"""Algorithm 3: the ShadowTutor server.

Per key frame received: run teacher inference to obtain the
pseudo-label, run Algorithm 1 (student training) on the server-side
student copy, and send back only the updated part of the student plus
the post-distillation metric.  When Algorithm 1 took no step (the
student already beat THRESHOLD) the updated part is empty: the device
holds those weights already.

This class is the pure per-key-frame core: it owns no link and no
loop.  In-process sessions call it directly; out of process,
:class:`~repro.serving.runtime.ServerRuntime` holds one per admitted
session and drives them all from one event loop.  For pooled serving
(:mod:`repro.serving`), an optional *work cache* can be attached: when
several sessions submit bitwise-identical distillation work (same
weights, same frame, same pseudo-label — the broadcast/fan-out serving
scenario), the training runs once and the resulting reply and
post-training state are shared, which is observably identical to every
session training on its own because Algorithm 1 is deterministic.

There is one serve path: every key frame trains with the configured
MAX_UPDATES and reports the metric it measured, whatever the load on
the runtime holding the session — the device's stride (Alg. 2) only
ever reads measurements.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.distill.config import DistillConfig, DistillMode
from repro.distill.trainer import StudentTrainer, TrainResult
from repro.models.student import StudentNet
from repro.models.teacher import Teacher, TeacherNet
from repro.network.messages import MessageSizes
from repro.nn.serialize import state_dict_diff


@dataclasses.dataclass
class ServerReply:
    """Payload the server sends back per key frame."""

    #: The student state the key frame changed; empty when ``steps == 0``.
    update: Dict[str, np.ndarray]
    metric: float
    steps: int
    initial_metric: float


class Server:
    """Holds the teacher and the server-side student copy (Alg. 3)."""

    def __init__(
        self,
        student: StudentNet,
        teacher: Teacher,
        config: DistillConfig,
        sizes: Optional[MessageSizes] = None,
        freeze_modules: Optional[tuple] = None,
        work_cache: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.teacher = teacher
        self.trainer = StudentTrainer(student, config, freeze_modules=freeze_modules)
        self.sizes = sizes or MessageSizes.paper()
        self._custom_freeze = freeze_modules is not None
        #: Optional shared-distillation cache (duck-typed; see
        #: :class:`repro.serving.shared.SharedDistillation`).
        self.work_cache = work_cache

    @property
    def student(self) -> StudentNet:
        return self.trainer.student

    @property
    def is_partial(self) -> bool:
        """Whether the server runs the paper's partial distillation."""
        return self.config.mode is DistillMode.PARTIAL

    @property
    def teacher_reads_label(self) -> bool:
        """Whether ``handle_key_frame``'s ``label`` reaches the teacher:
        a neural teacher labels the frame itself, so a device has
        nothing to send (it has no ground truth to begin with)."""
        return not isinstance(self.teacher, TeacherNet)

    # ------------------------------------------------------------------
    def handle_key_frame(
        self, frame: np.ndarray, label: Optional[np.ndarray] = None,
    ) -> Tuple[ServerReply, TrainResult]:
        """Process one key frame: teacher inference + student training.

        ``label`` is the renderer ground truth forwarded to oracle
        teachers; neural teachers ignore it.  With a work cache
        attached, every serve goes through it.
        """
        if self.work_cache is not None:
            pseudo_label, frame_digest = self.work_cache.pseudo_label(
                self.teacher, frame, label
            )
            return self.work_cache.distill(
                self, frame, pseudo_label, frame_digest
            )
        pseudo_label = self.teacher.infer(frame, label)
        return self.distill(frame, pseudo_label)

    def distill(
        self, frame: np.ndarray, pseudo_label: np.ndarray,
    ) -> Tuple[ServerReply, TrainResult]:
        """Run Algorithm 1 on ``frame`` and package the reply.

        Training may end with a rollback to the best checkpoint, which
        rebinds the trainable parameter arrays; engine plans read
        weights through the live layers per call, so the server-side
        student's compiled predicts never go stale.  A key frame that
        took no step changed nothing, so nothing is diffed.
        """
        result = self.trainer.train(frame, pseudo_label)
        if result.steps == 0:
            update: Dict[str, np.ndarray] = {}
        else:
            partial_payload = (
                self.trainer.trainable_fraction < 1.0
                if self._custom_freeze
                else self.config.mode is DistillMode.PARTIAL
            )
            update = state_dict_diff(self.student, trainable_only=partial_payload)
        reply = ServerReply(
            update=update,
            metric=result.metric,
            steps=result.steps,
            initial_metric=result.initial_metric,
        )
        return reply, result

    def reply_bytes(self) -> int:
        """Wire size of the student update (paper-scale, Table 4).  The
        simulated link carries it on every key frame, as the paper's
        does; only the measured wire skips a zero-step key frame's."""
        if self.config.mode is DistillMode.PARTIAL:
            return self.sizes.student_diff_partial
        return self.sizes.student_full
