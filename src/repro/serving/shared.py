"""Cross-session memoisation of server-side distillation work.

In the fan-out serving scenario (many clients watching one stream) the
pooled sessions submit bitwise-identical key-frame work: same student
weights, same frame, same pseudo-label.  Algorithm 1 is deterministic —
it is a pure function of (student state, optimizer state, frame,
pseudo-label, config) — so training once and replaying the outcome for
every identical submission is *observably indistinguishable* from each
server training on its own.  The pooled-vs-single property tests hold
with sharing on, which is the proof that matters.

Identity is established by content digests, never by assumption:

* each attached server carries a *work version* — a digest chain seeded
  from its student's full state and config fingerprint, advanced by the
  digests of every (frame, pseudo-label) it has distilled on;
* the memo key is ``(work_version, frame digest, pseudo-label digest)``;
* a hit loads the recorded post-training state into the server's
  student (deep-copied) and returns a deep-copied reply, leaving the
  server in exactly the state it would have reached by training.

Sharing is refused when ``config.reset_optimizer_state`` is off: with
carried-over Adam moments the trainer's outcome depends on state the
digest chain does not cover.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.teacher import TeacherNet
from repro.nn.serialize import (
    array_digest,
    clone_state_dict,
    state_dict_digest,
)

_MEMO_SIZE = 64  # per memo: a key frame's duplicates arrive close behind it


def _remember(memo: dict, key, value):
    """Insert into a FIFO-bounded memo (dicts keep insertion order)."""
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


class SharedDistillation:
    """Memo table for :meth:`repro.runtime.server.Server.distill`.

    Attach by assigning to ``server.work_cache``; the server then routes
    every key frame through :meth:`pseudo_label` and :meth:`distill`.
    """

    def __init__(self) -> None:
        #: (work version, frame digest, label digest) -> (post-training
        #: state, reply, result) (FIFO).
        self._entries: Dict[Tuple[str, str, str], tuple] = {}
        #: (teacher, frame digest, label digest) -> pseudo-label (FIFO).
        self._labels: Dict[tuple, np.ndarray] = {}
        self.counters: Dict[str, int] = {
            "calls": 0, "hits": 0, "misses": 0,
            "label_hits": 0, "label_misses": 0,
        }

    # ------------------------------------------------------------------
    def _fingerprint(self, server) -> str:
        """Everything besides weights that the training outcome depends
        on: distillation config and the trainable-parameter set."""
        trainable = ",".join(
            name for name, p in server.student.named_parameters() if p.requires_grad
        )
        return f"{server.config!r}|{trainable}"

    def _version(self, server) -> str:
        # The chain lives on the server object itself (not a table keyed
        # by id(server)): it dies with the server, so a recycled object
        # address can never inherit a stale chain.
        version = getattr(server, "_shared_work_version", None)
        if version is None:
            version = state_dict_digest(
                server.student.state_dict(), prev=self._fingerprint(server)
            )
            server._shared_work_version = version
        return version

    # ------------------------------------------------------------------
    def pseudo_label(
        self, teacher, frame: np.ndarray, label: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[str]]:
        """``teacher.infer(frame, label)``, once per distinct key frame.

        Returns the label and the frame digest when one was taken (for
        :meth:`distill` to reuse).  Only neural teachers are memoised,
        decided by type (an oracle is the identity on its label, a noisy
        one holds RNG state), and their weights must not change after
        the first call.  The shared array is read-only.
        """
        if not isinstance(teacher, TeacherNet):
            return teacher.infer(frame, label), None
        frame_digest = array_digest(frame)
        key = (teacher, frame_digest, None if label is None else array_digest(label))
        out = self._labels.get(key)
        if out is None:
            self.counters["label_misses"] += 1
            out = _remember(self._labels, key, teacher.infer(frame, label))
            out.flags.writeable = False
        else:
            self.counters["label_hits"] += 1
        return out, frame_digest

    def distill(self, server, frame: np.ndarray, pseudo_label: np.ndarray,
                frame_digest: Optional[str] = None):
        """Serve one key frame's training, memoised across servers."""
        self.counters["calls"] += 1
        if not server.config.reset_optimizer_state:
            # Carried-over optimizer moments are outside the digest
            # chain; sharing would not be provably identical.
            return server.distill(frame, pseudo_label)

        version = self._version(server)
        if frame_digest is None:
            frame_digest = array_digest(frame)
        label_digest = array_digest(pseudo_label)
        key = (version, frame_digest, label_digest)
        entry = self._entries.get(key)

        if entry is None:
            self.counters["misses"] += 1
            reply, result = server.distill(frame, pseudo_label)
            post_state = clone_state_dict(server.student.state_dict())
            _remember(self._entries, key, (
                post_state,
                dataclasses.replace(reply, update=clone_state_dict(reply.update)),
                dataclasses.replace(result, losses=list(result.losses)),
            ))
        else:
            self.counters["hits"] += 1
            post_state, stored_reply, stored_result = entry
            server.student.load_state_dict(clone_state_dict(post_state))
            reply = dataclasses.replace(
                stored_reply, update=clone_state_dict(stored_reply.update)
            )
            result = dataclasses.replace(
                stored_result, losses=list(stored_result.losses)
            )

        # Same start, same inputs, deterministic trainer: every server
        # that passed through this key holds the same weights, so the
        # chained version stays a proof of state equality.
        server._shared_work_version = hashlib.blake2b(
            f"{version}|{frame_digest}|{label_digest}".encode(), digest_size=16
        ).hexdigest()
        return reply, result
