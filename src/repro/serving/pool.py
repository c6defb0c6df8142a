"""The session pool: N concurrent ShadowTutor clients on one box.

``SessionPool`` owns a set of :class:`SessionSpec` s, builds one full
server+client pair per spec through the same factory as the
single-session path (:func:`repro.runtime.session.build_session`), and
advances them cooperatively on one clock: each tick, every unfinished
session processes exactly one frame, in spec order, in three phases:

1. every session runs its key-frame phase (``Client.pre_predict``:
   overdue-update application, key-frame dispatch, server training —
   memoised across sessions by
   :class:`~repro.serving.shared.SharedDistillation` when attached);
2. the cohort's frames, key frames included, go through the
   :class:`~repro.serving.batched.BatchedPredictor` in one call;
3. every session runs its timing/update/stats phase
   (``Client.post_predict``); a session that has played its frames
   finishes.

Per-session observables are bit-identical to N independent single
runs: each session's three phases execute in order with no shared
mutable state, and every predictor/memo route returns exactly what the
session would have computed alone (the property-test harness asserts
this over randomized widths, strides, forced delays and distill
modes).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.teacher import Teacher
from repro.nn.serialize import state_dict_digest
from repro.runtime.stats import RunStats
from repro.serving.batched import BatchedPredictor
from repro.serving.shared import SharedDistillation
from repro.striding.baselines import StridePolicy


@dataclasses.dataclass
class SessionSpec:
    """Everything needed to enrol one client session in the pool.

    Exactly one of ``video`` (a fresh, un-shared generator — it will be
    reset and iterated) or ``frames`` (a pre-rendered, read-only
    sequence of ``(frame, label)`` pairs, safely shareable between
    specs) must be provided.
    """

    video: Optional[object] = None
    frames: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None
    num_frames: Optional[int] = None
    config: Optional[object] = None          #: SessionConfig
    teacher: Optional[Teacher] = None
    stride_policy: Optional[StridePolicy] = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.video is None) == (self.frames is None):
            raise ValueError("provide exactly one of video= or frames=")
        if self.num_frames is None:
            if self.frames is None:
                raise ValueError("num_frames is required with video=")
            self.num_frames = len(self.frames)


class _PooledSession:
    """Runtime state of one enrolled session."""

    def __init__(self, index: int, spec: SessionSpec, client) -> None:
        self.index = index
        self.spec = spec
        self.client = client
        if spec.video is not None:
            spec.video.reset()
            self.frame_iter = iter(spec.video.frames(spec.num_frames))
        else:
            self.frame_iter = iter(spec.frames[: spec.num_frames])
        self.frames_done = 0
        self.stats: Optional[RunStats] = None


@dataclasses.dataclass
class PoolResult:
    """Everything a pool run produced."""

    #: Per-session statistics, in spec order — each bit-identical to the
    #: session running alone.
    stats: List[RunStats]
    #: Deterministic interleaving trace: one ``(session, frame, route)``
    #: row per processed frame, in processing order, where route is
    #: ``"key"``, ``"single"`` or ``"dedup"`` (frame ``f`` of every
    #: session is processed on tick ``f``).
    schedule: List[Tuple[int, int, str]]
    #: BENCH-relevant counters: ticks, predictor routes, shared-
    #: distillation hits/misses.
    counters: Dict[str, int]


class SessionPool:
    """Cooperative multi-session serving runtime.

    Bitwise-identical key-frame work is memoised across sessions (the
    fan-out scenario) and bitwise-duplicate frames within a weight
    group are served from one predict; both only change *how* results
    are computed, never their values.  With a single spec the pool
    degenerates to the plain sequential client loop
    (``run_shadowtutor`` is exactly that).
    """

    def __init__(self, specs: Sequence[SessionSpec]) -> None:
        if not specs:
            raise ValueError("SessionPool needs at least one SessionSpec")
        # Stateful per-session components must never be shared between
        # specs: interleaved use would silently break the bit-identity
        # contract.  (Pre-rendered frames= are read-only and shareable.)
        for attr, hint in (
            ("video", "generators are stateful — give each session its own "
                      "(or share pre-rendered frames=)"),
            ("stride_policy", "stride policies are stateful"),
            ("teacher", "teachers may hold RNG state"),
        ):
            owned = [id(getattr(s, attr)) for s in specs if getattr(s, attr) is not None]
            if len(owned) != len(set(owned)):
                raise ValueError(f"two specs share one {attr} instance; {hint}")
        self.specs = list(specs)

    # ------------------------------------------------------------------
    def _build_sessions(self) -> List[_PooledSession]:
        pooled = len(self.specs) > 1
        shared = SharedDistillation() if pooled else None
        sessions: List[_PooledSession] = []
        try:
            self._build_into(sessions, shared, pooled)
        except BaseException:
            # A failure building session k must not leave sessions
            # 0..k-1 open on their server (an attached proxy's close
            # is its BYE).
            for s in sessions:
                close = getattr(s.client.server, "close", None)
                if close is not None:
                    close()
            raise
        self._shared = shared
        return sessions

    def _build_into(self, sessions, shared, pooled) -> None:
        from repro.runtime.session import SessionConfig, build_session

        for index, spec in enumerate(self.specs):
            config = spec.config or SessionConfig()
            if spec.video is not None:
                hw = (spec.video.config.height, spec.video.config.width)
            else:
                frame = spec.frames[0][0]
                hw = (frame.shape[-2], frame.shape[-1])
            client = build_session(
                config, hw, teacher=spec.teacher, stride_policy=spec.stride_policy
            )
            if pooled:
                # Seed the weight-version chain so the predictor can
                # prove weight equality between sessions.  The N = 1
                # case skips all digest bookkeeping — run_shadowtutor
                # must cost exactly what the classic loop cost.
                client.weight_version = state_dict_digest(
                    client.student.state_dict()
                )
                # Memoised distillation needs the server's trainer in
                # this process; attached sessions (SessionConfig.attach)
                # share the server process's memo instead.
                if hasattr(client.server, "distill"):
                    client.server.work_cache = shared
            client.begin(
                spec.label
                or (spec.video.config.name if spec.video is not None else f"session{index}")
            )
            sessions.append(_PooledSession(index, spec, client))

    # ------------------------------------------------------------------
    def run(self) -> PoolResult:
        """Drive every session to completion; returns per-session stats,
        the interleaving trace, and the amortisation counters.

        Attached sessions (``SessionConfig.attach``) are ended on
        their server (BYE) on the way out, success or failure —
        including sessions already admitted when building a later one
        fails.  The server process itself belongs to whoever holds its
        ``ServerHandle``."""
        sessions: List[_PooledSession] = []
        try:
            sessions = self._build_sessions()
            return self._run(sessions)
        finally:
            for s in sessions:
                close = getattr(s.client.server, "close", None)
                if close is not None:
                    close()

    def _run(self, sessions: List[_PooledSession]) -> PoolResult:
        predictor = BatchedPredictor()
        active: List[_PooledSession] = []
        for s in sessions:
            if s.spec.num_frames > 0:
                active.append(s)
            else:
                s.stats = s.client.finish()

        schedule: List[Tuple[int, int, str]] = []
        ticks = 0
        while active:
            ticks += 1

            # Phase 1: pull frames, run every session's key-frame phase
            # (server dispatch + training happen here).
            cohort = []
            for s in active:
                item = next(s.frame_iter, None)
                if item is None:
                    # Source ran dry before num_frames — stop the
                    # session gracefully, exactly like the classic
                    # client loop iterating an exhausted stream.
                    s.stats = s.client.finish()
                    continue
                frame, gt_label = item
                is_key = s.client.pre_predict(frame, gt_label, s.frames_done)
                cohort.append((s, frame, gt_label, is_key))

            # Phase 2: the whole cohort shares one predictor call (a key
            # frame's update is still pending, so it shares like any other).
            preds, routes = predictor.predict(
                [(s.client, frame) for s, frame, _, _ in cohort],
                [is_key for _, _, _, is_key in cohort],
            )

            # Phase 3: timing/update/stats, then finish whoever is done.
            for (s, _, gt_label, _), pred, route in zip(cohort, preds, routes):
                s.client.post_predict(pred, gt_label, s.frames_done)
                schedule.append((s.index, s.frames_done, route))
                s.frames_done += 1
                if s.frames_done == s.spec.num_frames:
                    s.stats = s.client.finish()
            active = [s for s in active if s.stats is None]

        counters = dict(predictor.counters)
        counters["ticks"] = ticks
        counters["sessions"] = len(sessions)
        if self._shared is not None:
            counters.update(
                {f"distill_{k}": v for k, v in self._shared.counters.items()}
            )
        return PoolResult(
            stats=[s.stats for s in sessions], schedule=schedule, counters=counters
        )
