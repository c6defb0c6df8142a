"""Algorithm 1: server-side student training on a key frame.

The trainer owns the server's student copy and an optimizer over its
*trainable* parameters.  For partial distillation the student's
front-end is frozen (``partial_freeze``), so the backward pass
genuinely stops at the freeze boundary — the ``PartialBackward`` of the
paper — and the optimizer only touches the back-end.

Per Algorithm 1: if the student already beats THRESHOLD on the key
frame, no optimisation step is taken (d = 0, which the traffic
upper-bound derivation in section 4.4 relies on); otherwise up to
MAX_UPDATES steps run, tracking the best checkpoint, with early exit as
soon as the metric exceeds THRESHOLD.

Hot-loop strategy (the engine integration): with the paper's freeze
boundary, the frozen front-end's activations for the key frame are
constant across all optimisation steps, so they are computed **once**
through the compiled engine and reused — freeze-boundary activation
caching.  Everything after that is the compiled train step over just
the trainable back-end (:class:`repro.engine.training.CompiledTrainStep`),
the forward-pass twin of PartialBackward: its forward scores the key
frame *before* any update (the metric that gates the loop) and the same
activations are step 1's forward, so a trained key frame costs one
front pass and no forward it does not use.  A key frame the student
already beats THRESHOLD on pays for that one forward and nothing else:
the loss weights, the optimizer reset and the checkpoint slots all sit
behind the gate.

:func:`make_step_runner` builds the one step runner, for Algorithm 1
and for pre-training alike.  Every freeze state of a ``StudentNet``
compiles: ``train_back`` on the cached front features when the front
is fully frozen, ``train_full`` otherwise (the step regenerates its
adjoint from the live ``requires_grad`` flags, so the ablation's
intermediate boundaries compile like the paper's).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet, partial_freeze
from repro.nn.optim import Adam
from repro.nn.serialize import StateSlots
from repro.segmentation.classes import class_map
from repro.segmentation.losses import lvs_weight_map
from repro.segmentation.metrics import mean_iou


@dataclasses.dataclass
class TrainResult:
    """Outcome of one key-frame distillation (Algorithm 1's return)."""

    metric: float            #: best mIoU seen on the key frame, the pre-update one included
    initial_metric: float    #: mIoU before any update (gates the loop)
    steps: int               #: optimisation steps actually taken (<= MAX_UPDATES)
    losses: List[float]      #: loss after each step
    improved: bool           #: whether training beat the initial metric


class _CompiledStepRunner:
    """Fully compiled train step (back-end with cached feats, or the
    whole student wherever the front trains — ``inputs`` is whatever
    the plan eats).

    Every metric predict is merged into the next step's forward: with
    fixed inputs, the prediction after update ``i`` (``i = 0`` being
    the pre-update metric that gates the loop) and the training forward
    of update ``i + 1`` are the same computation (identical inputs and
    weights; batch-norm always normalises with batch statistics).
    ``predict()`` therefore runs the train plan's forward, and the
    following ``step()`` reuses those activations — halving the loop's
    forward count while leaving every loss and metric bit-identical to
    a loop that runs them separately.
    """

    def __init__(self, train_plan, inputs, target, weight_map) -> None:
        self.train_plan = train_plan
        self.inputs = inputs
        self.target = target
        self.weight_map = weight_map
        #: True when the plan holds a forward primed *by this runner*
        #: with the current weights (a stale pending forward could have
        #: survived on the cached plan from a previous key frame; one
        #: left by another session does not survive the hand-over).
        self._primed = False

    def step(self) -> float:
        if not self._primed:
            self.train_plan.forward_only(self.inputs)
        self._primed = False
        return self.train_plan.finish_step(self.target, self.weight_map)

    def predict(self) -> np.ndarray:
        logits = self.train_plan.forward_only(self.inputs)
        self._primed = True
        return class_map(logits)


def _front_fully_frozen(student: StudentNet) -> bool:
    """True when every parameter through SB4 is frozen, i.e. the
    paper's freeze boundary (or a deeper one) is in effect and the
    front-end activations are constants per key frame."""
    front = set(StudentNet.FRONT_MODULES)
    return not any(
        p.requires_grad for name, p in student.named_parameters()
        if name.split(".", 1)[0] in front
    )


def make_step_runner(student: StudentNet, x4: np.ndarray, target, weight_map,
                     plan_for=None):
    """The compiled step for ``student``'s freeze state — ``train_back``
    on the key frame's front activations when the front is frozen
    (computed once; copied out, because plan buffers are reused while
    the loop runs), ``train_full`` on the frame otherwise.
    ``plan_for(kind, shapes)`` supplies the train plan — by default the
    student's handle on the process-wide one; pre-training passes a
    plan of its own."""
    kind, inputs = "train_full", (x4,)
    if _front_fully_frozen(student):
        kind = "train_back"
        inputs = tuple(np.array(f, copy=True) for f in student.run_plan("front", x4))
    train_plan = (plan_for or student.engine_plan)(
        kind, tuple(a.shape for a in inputs)
    )
    return _CompiledStepRunner(train_plan, inputs, target, weight_map)


class StudentTrainer:
    """Owns the server-side student copy and runs Algorithm 1.

    ``freeze_modules`` overrides the freeze boundary (used by the
    freeze-point ablation): the named top-level modules are frozen and
    the rest trained, regardless of ``config.mode``.  With the default
    of ``None``, PARTIAL mode applies the paper's boundary (through
    SB4) and FULL mode trains everything.
    """

    def __init__(
        self,
        student: StudentNet,
        config: DistillConfig,
        freeze_modules: Optional[tuple] = None,
    ) -> None:
        self.student = student
        self.config = config
        if freeze_modules is not None:
            student.unfreeze()
            frozen = set(freeze_modules)
            student.freeze_where(lambda n: n.split(".", 1)[0] in frozen)
            self.trainable_fraction = student.trainable_fraction()
        elif config.mode is DistillMode.PARTIAL:
            self.trainable_fraction = partial_freeze(student)
        else:
            student.unfreeze()
            self.trainable_fraction = 1.0
        self._optimizer = Adam(student.trainable_parameters(), lr=config.lr)
        #: Best-checkpoint slots, resolved per freeze signature (the
        #: ablations move the boundary between calls; nothing else does).
        self._params = student.parameters()
        self._checkpoint: Optional[StateSlots] = None
        self._checkpoint_sig: Optional[tuple] = None

    def _checkpoint_slots(self) -> StateSlots:
        """What training can change: the trainable parameters.  The
        frozen front-end never moves, so it is never snapshotted."""
        sig = tuple(p.requires_grad for p in self._params)
        if sig != self._checkpoint_sig:
            self._checkpoint = StateSlots(self.student, trainable_only=True)
            self._checkpoint_sig = sig
        return self._checkpoint

    # ------------------------------------------------------------------
    def train(self, frame: np.ndarray, label: np.ndarray) -> TrainResult:
        """Distil the teacher's pseudo-label into the student (Alg. 1)."""
        cfg = self.config
        student = self.student

        x4 = frame[None] if frame.ndim == 3 else frame
        target = label[None] if label.ndim == 2 else label

        # The runner's first predict is the pre-update metric and also
        # step 1's forward.  When the student already beats THRESHOLD
        # it stays an unprimed pending forward on the plan, which the
        # next key frame's runner ignores — and nothing else was
        # prepared: no loss weights, no optimizer reset, no checkpoint
        # slots.
        runner = make_step_runner(student, x4, target, None)
        best_metric = mean_iou(runner.predict(), label)
        initial_metric = best_metric
        best_state = None
        losses: List[float] = []
        steps = 0

        if best_metric < cfg.threshold:
            runner.weight_map = lvs_weight_map(target)
            # Each key frame is a fresh single-image problem: Adam
            # starts it with no moments.
            self._optimizer.reset_state()
            checkpoint = self._checkpoint_slots()
            for _ in range(cfg.max_updates):
                self._optimizer.zero_grad()
                losses.append(runner.step())
                self._optimizer.step()
                steps += 1

                metric = mean_iou(runner.predict(), label)
                if metric > best_metric:
                    best_metric = metric
                    best_state = checkpoint.copy()
                if metric > cfg.threshold:
                    break
            # Roll back to the best post-update checkpoint.  When no
            # step beat the pre-update metric there is none, and the
            # student keeps the last iterate's weights although
            # ``metric`` reports the pre-update value.
            if best_state is not None:
                checkpoint.restore(best_state)

        return TrainResult(
            metric=best_metric,
            initial_metric=initial_metric,
            steps=steps,
            losses=losses,
            improved=best_metric > initial_metric,
        )
