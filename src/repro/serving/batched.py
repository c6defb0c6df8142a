"""Shared predicts across weight-identical sessions.

On every pool tick, all due sessions hand their frames to one
:class:`BatchedPredictor` call — key frames included: a key frame's
update is still in flight when the device predicts, so weight-identical
sessions at a key frame are as shareable as between key frames.  Frames
are grouped by ``(weight_version, frame geometry)``: equal weight
versions prove equal student weights (content-digest chains, see
:func:`repro.nn.serialize.state_dict_digest`), so within a group
bitwise-duplicate frames (the broadcast scenario) are predicted once
and fanned out — identical inputs through identical weights are the
same computation.  Every distinct frame, and every session whose
student has diverged (no group partner), runs its own per-session
predict — the exact single-session path.  Every route therefore
produces the same prediction the session would have computed alone,
which is what lets the pool promise bit-identical ``RunStats``.

Route-counter invariant (property-tested): at every point — including
after an exception aborts a call midway — ``predicts`` equals
``deduped_frames + single_frames + key_frames``.  Counters are advanced
only when a frame's result is actually resolved, and a duplicate is
counted only after its representative served.  A key frame is tagged
and counted ``key`` however it was resolved, so the other two routes
keep meaning "between key frames".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.serialize import array_digest

_COUNTER_OF_ROUTE = {
    "single": "single_frames", "dedup": "deduped_frames", "key": "key_frames",
}


class BatchedPredictor:
    """Gather/dedup/scatter predictor over pooled sessions."""

    def __init__(self) -> None:
        #: Route counters (BENCH-relevant): how each frame was served.
        self.counters: Dict[str, int] = {
            "predicts": 0,          # frames served in total
            "deduped_frames": 0,    # frames served from a duplicate's predict
            "single_frames": 0,     # frames served by their own n = 1 predict
            "key_frames": 0,        # key frames served, either way
        }

    def predict(
        self,
        items: Sequence[Tuple[object, np.ndarray]],
        key_flags: Sequence[bool] = (),
    ) -> Tuple[List[np.ndarray], List[str]]:
        """Serve ``(client, frame)`` pairs; returns (preds, route tags).

        ``client`` duck-types :class:`repro.runtime.client.Client`: it
        exposes ``student`` and ``weight_version``.  ``key_flags[i]``
        says whether ``items[i]`` is its session's key frame (none is,
        by default).  Order of results matches the input order.
        """
        preds: List[Optional[np.ndarray]] = [None] * len(items)
        routes = ["key" if flag else "" for flag in key_flags] or [""] * len(items)

        groups: Dict[Tuple[str, Tuple[int, ...]], List[int]] = {}
        for i, (client, frame) in enumerate(items):
            version = client.weight_version
            if version is None:
                # Untracked weights: nothing provable to share.
                self._serve_single(items, i, preds, routes)
                continue
            groups.setdefault((version, tuple(frame.shape)), []).append(i)

        for group in groups.values():
            self._serve_group(items, group, preds, routes)
        return preds, routes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _serve_group(self, items, group, preds, routes) -> None:
        # Collapse bitwise-duplicate frames through an explicit digest ->
        # representative table (first arrival represents); a lone frame
        # has no partner and is not digested.
        rep_by_digest: Dict[str, int] = {}
        dups: List[Tuple[int, int]] = []
        for i in group:
            rep = i
            if len(group) > 1:
                rep = rep_by_digest.setdefault(array_digest(items[i][1]), i)
            if rep == i:
                self._serve_single(items, i, preds, routes)
            else:
                dups.append((i, rep))

        # Fan out only now: a representative that failed above raised
        # before any duplicate was recorded as served, so the counters
        # stay consistent on every exception path.
        for i, rep in dups:
            self._resolve(preds, routes, i, preds[rep], "dedup")

    def _serve_single(self, items, i, preds, routes) -> None:
        self._resolve(
            preds, routes, i, items[i][0].student.predict(items[i][1]), "single"
        )

    def _resolve(self, preds, routes, i, pred, route) -> None:
        """Record frame ``i`` served; a key frame keeps its own tag."""
        preds[i] = pred
        routes[i] = route = routes[i] or route
        self.counters["predicts"] += 1
        self.counters[_COUNTER_OF_ROUTE[route]] += 1
