"""Property tests: the generated adjoint is bitwise autograd.

The adjoint plan (:mod:`repro.engine.adjoint`) claims more than
closeness: for any traced geometry, width, and LVS weight map, the
gradients it installs are *bit-identical* to the define-by-run loop's,
because its schedule replays autograd's reversed depth-first postorder
exactly.  These tests check the property over randomized
configurations, and pin the schedule itself for the case that forced
the old escape hatch — the Figure-3b skip tensors, whose **three**
gradient consumers make float32 accumulation order observable.

The s1 skip (SB1's output) is consumed by ``sb2.bn``, ``sb2.project``
and ``concat([s5, s1])``; s2 likewise by ``sb3.bn``, ``sb3.project``
and ``concat([s4, s2])``.  Autograd's traversal runs those closures as
concat, then bn, then project — *not* the reversed record order (which
would put project before bn, the last-ulp difference that kept full
mode off the engine).  The pin test asserts both the relative order and
that the schedule genuinely differs from reversed lowering order.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.engine.adjoint import (
    BatchNormVjpStep,
    ConcatVjpStep,
    ConvVjpStep,
    CrossEntropyVjpStep,
)
from repro.autograd.functional import cross_entropy
from repro.models.student import StudentNet, partial_freeze
from repro.segmentation.losses import lvs_weight_map


def _frame_and_target(seed: int, h: int, w: int):
    rng = np.random.default_rng(seed)
    x4 = rng.uniform(0.0, 1.0, (1, 3, h, w)).astype(np.float32)
    target = rng.integers(0, 9, size=(1, h, w))
    return x4, target


def _autograd_grads(student, x4, target, weight_map):
    # Call functional.cross_entropy directly (not weighted_cross_entropy,
    # which substitutes the LVS map for None): the plan's None path means
    # genuinely unweighted, and the reference must mean the same thing.
    loss = cross_entropy(student(Tensor(x4)), target, weight_map)
    loss.backward()
    return loss.item(), {n: p.grad for n, p in student.named_parameters()}


def _adjoint_grads(student, x4, target, weight_map):
    plan = student.engine_plan("train_full", (tuple(x4.shape),))
    assert plan is not None, "full train step must compile"
    loss = plan.run((x4,), target, weight_map)
    return loss, {n: p.grad for n, p in student.named_parameters()}


class TestAdjointBitwiseProperty:
    @pytest.mark.parametrize(
        "seed,h,w,width,use_wm",
        [
            (0, 32, 48, 0.5, True),    # canonical bench geometry
            (1, 36, 44, 0.5, False),   # odd (non-power-of-two) geometry
            (2, 32, 32, 1.0, True),    # paper-sized width
            (3, 24, 40, 0.75, True),   # width that rounds channels oddly
            (4, 48, 36, 1.0, False),
        ],
    )
    def test_full_mode_grads_bitwise(self, seed, h, w, width, use_wm):
        x4, target = _frame_and_target(seed, h, w)
        weight_map = lvs_weight_map(target) if use_wm else None

        ref_student = StudentNet(width=width, seed=seed)
        ref_student.unfreeze()
        ref_loss, ref_grads = _autograd_grads(ref_student, x4, target, weight_map)

        got_student = StudentNet(width=width, seed=seed)
        got_student.unfreeze()
        got_loss, got_grads = _adjoint_grads(got_student, x4, target, weight_map)

        assert got_loss == ref_loss
        assert set(got_grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            if ref is None:
                assert got_grads[name] is None, name
            else:
                np.testing.assert_array_equal(got_grads[name], ref, err_msg=name)

    def test_freeze_boundary_change_rebuilds_schedule(self):
        # The schedule is a function of live requires_grad flags (a
        # frozen subtree contributes no closures in autograd), so a
        # cached train step must regenerate its adjoint when the
        # boundary moves — and stay bitwise against autograd both
        # before and after.
        x4, target = _frame_and_target(7, 32, 48)
        weight_map = lvs_weight_map(target)

        got_student = StudentNet(width=0.5, seed=7)
        got_student.unfreeze()
        plan = got_student.engine_plan("train_full", (tuple(x4.shape),))
        full_schedule_len = len(plan.adjoint._steps)
        plan.run((x4,), target, weight_map)

        partial_freeze(got_student)
        got_student.zero_grad()
        got_loss = plan.run((x4,), target, weight_map)
        assert len(plan.adjoint._steps) < full_schedule_len

        ref_student = StudentNet(width=0.5, seed=7)
        partial_freeze(ref_student)
        ref_loss, ref_grads = _autograd_grads(ref_student, x4, target, weight_map)
        assert got_loss == ref_loss
        for name, p in got_student.named_parameters():
            if ref_grads[name] is None:
                assert p.grad is None, name
            else:
                np.testing.assert_array_equal(p.grad, ref_grads[name], err_msg=name)


class TestThreeConsumerSchedulePin:
    """Regression-pin the accumulation order on the Figure-3b skips."""

    @pytest.fixture
    def train_step(self):
        student = StudentNet(width=0.5, seed=0)
        student.unfreeze()
        plan = student.engine_plan("train_full", ((1, 3, 32, 48),))
        assert plan is not None
        return student, plan

    def test_adjoint_shape(self, train_step):
        _, plan = train_step
        steps = plan.adjoint._steps
        # Seed gradient first, then one vjp per forward kernel (full
        # mode reaches every step exactly once).
        assert isinstance(steps[0], CrossEntropyVjpStep)
        assert len(steps) == plan.num_kernels + 1
        inner = [s._inner for s in steps[1:]]
        assert len(set(map(id, inner))) == len(inner)
        assert set(map(id, inner)) == set(map(id, plan.bound()._steps))

    def test_schedule_is_not_reversed_lowering_order(self, train_step):
        # The whole point of the generator: autograd's traversal is NOT
        # the reverse of the forward step list once skips fan out.  If
        # this ever collapses back to plain reversal, the 3-consumer
        # sums are being reordered silently.
        _, plan = train_step
        adjoint_order = [id(s._inner) for s in plan.adjoint._steps[1:]]
        reversed_order = [id(s) for s in reversed(plan.bound()._steps)]
        assert adjoint_order != reversed_order

    @pytest.mark.parametrize("skip", ["s1", "s2"])
    def test_three_consumer_accumulation_order(self, train_step, skip):
        # s1's gradient buffer sums three contributions; autograd runs
        # them concat -> bn -> project (see module docstring), and the
        # generated schedule must preserve exactly that sequence.  Same
        # shape for s2 one level deeper.
        student, plan = train_step
        block = student.sb2 if skip == "s1" else student.sb3
        # concat([s5, s1]) is the later of the two concats in trace
        # order; concat([s4, s2]) the earlier.
        concat_steps = [s for s in plan.bound()._steps if type(s).__name__ == "ConcatStep"]
        assert len(concat_steps) == 2
        concat_inner = concat_steps[1] if skip == "s1" else concat_steps[0]

        positions = {}
        for pos, vjp in enumerate(plan.adjoint._steps):
            if isinstance(vjp, ConcatVjpStep) and vjp._inner is concat_inner:
                positions["concat"] = pos
            elif isinstance(vjp, BatchNormVjpStep) and vjp._inner.module is block.bn:
                positions["bn"] = pos
            elif isinstance(vjp, ConvVjpStep) and vjp._inner.module is block.project:
                positions["project"] = pos
        assert set(positions) == {"concat", "bn", "project"}
        assert positions["concat"] < positions["bn"] < positions["project"]
