"""Parity tests: compiled training vs the seed autograd loop.

Algorithm 1's observable behaviour (losses, steps, metrics, the weights
the server ships) must not change when the trainer routes through the
compiled engine.  Partial distillation is required to be *exactly*
reproduced — the cached front-end is a constant and every compiled
kernel mirrors its autograd twin's operation order — so every parity
check compares the student's whole state.
"""

import dataclasses

import numpy as np
import pytest

from repro.distill import trainer as trainer_module
from repro.distill.config import DistillConfig, DistillMode
from repro.distill.trainer import (
    StudentTrainer,
    _CompiledStepRunner,
    make_step_runner,
)
from repro.models.student import StudentNet
from repro.nn.serialize import state_dict_digest
from repro.segmentation.metrics import mean_iou
from repro.video.generator import SyntheticVideo, VideoConfig
from tests.helpers import AutogradStepRunner, interpreted


@pytest.fixture
def frame_and_label():
    video = SyntheticVideo(VideoConfig(seed=9, height=32, width=48,
                                       num_objects=2, class_pool=(1,)))
    frame, label = next(iter(video.frames(1)))
    return frame, label


def run_training(mode, enabled, frame, label, seed=1, max_updates=6,
                 threshold=0.97, freeze_modules=None):
    student = StudentNet(width=0.5, seed=seed)
    with interpreted(not enabled):
        trainer = StudentTrainer(
            student,
            DistillConfig(mode=mode, max_updates=max_updates, threshold=threshold),
            freeze_modules=freeze_modules,
        )
        result = trainer.train(frame, label)
    return result, student


class TestPartialParity:
    def test_identical_train_result(self, frame_and_label):
        frame, label = frame_and_label
        ref, student_ref = run_training(DistillMode.PARTIAL, False, frame, label)
        got, student_got = run_training(DistillMode.PARTIAL, True, frame, label)
        assert ref.steps == got.steps
        assert ref.metric == pytest.approx(got.metric, abs=1e-12)
        assert ref.initial_metric == pytest.approx(got.initial_metric, abs=1e-12)
        assert ref.improved == got.improved
        np.testing.assert_allclose(ref.losses, got.losses, rtol=1e-6)

    def test_identical_shipped_state(self, frame_and_label):
        """Everything the server would communicate must match bit-exactly."""
        frame, label = frame_and_label
        _, student_ref = run_training(DistillMode.PARTIAL, False, frame, label)
        _, student_got = run_training(DistillMode.PARTIAL, True, frame, label)
        ref_state = student_ref.state_dict()
        got_state = student_got.state_dict()
        assert ref_state.keys() == got_state.keys()
        for key in ref_state:
            np.testing.assert_array_equal(
                ref_state[key], got_state[key], err_msg=key
            )

    def test_best_checkpoint_still_returned(self, frame_and_label):
        frame, label = frame_and_label
        result, student = run_training(
            DistillMode.PARTIAL, True, frame, label, max_updates=12, threshold=0.9
        )
        final = mean_iou(student.predict(frame), label)
        assert final == pytest.approx(result.metric, abs=1e-6)

    def test_compiled_runner_selected(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.5, seed=1)
        StudentTrainer(student, DistillConfig())  # applies the paper's boundary
        x4 = frame[None]
        runner = make_step_runner(student, x4, label[None], None)
        # The paper boundary compiles: exactly the compiled tier.
        assert type(runner) is _CompiledStepRunner


class TestFullModeParity:
    def test_full_mode_default_is_seed_exact(self, frame_and_label):
        # Full distillation now rides the generated adjoint plan by
        # default, and the adjoint's schedule reproduces autograd's
        # accumulation order bitwise — including the 3-consumer
        # Figure-3b skip tensors.  Published full-mode numbers therefore
        # still cannot depend on whether the engine is enabled.
        frame, label = frame_and_label
        ref, student_ref = run_training(DistillMode.FULL, False, frame, label)
        got, student_got = run_training(DistillMode.FULL, True, frame, label)
        assert ref.steps == got.steps
        np.testing.assert_array_equal(ref.losses, got.losses)
        assert ref.metric == got.metric
        ref_state, got_state = student_ref.state_dict(), student_got.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key], got_state[key], err_msg=key)

    def test_full_mode_compiled_runner_selected(self, frame_and_label):
        # The bit-exactness above is the compiled step's: the trainer
        # picks it in full mode too.
        frame, label = frame_and_label
        student = StudentNet(width=0.5, seed=1)
        StudentTrainer(student, DistillConfig(mode=DistillMode.FULL))  # unfreezes
        x4 = frame[None]
        runner = make_step_runner(student, x4, label[None], None)
        assert isinstance(runner, _CompiledStepRunner)


class TestCustomFreezeBoundaries:
    def test_non_paper_boundary_compiles_and_matches(self, frame_and_label):
        # Freezing only through sb2 leaves part of the "front" trainable:
        # the cached-front optimisation is invalid there, so the whole
        # student steps through ``train_full``, whose adjoint stops at
        # the frozen parameters — with equal results.
        frame, label = frame_and_label
        freeze = ("in1", "in2", "sb1", "sb2")
        ref, _ = run_training(
            DistillMode.PARTIAL, False, frame, label, freeze_modules=freeze
        )
        got, _ = run_training(
            DistillMode.PARTIAL, True, frame, label, freeze_modules=freeze
        )
        assert ref.steps == got.steps
        np.testing.assert_allclose(ref.losses, got.losses, rtol=1e-6)
        assert ref.metric == pytest.approx(got.metric, abs=1e-12)

    def test_deeper_boundary_still_uses_cache(self, frame_and_label):
        # Freezing *more* than the paper boundary keeps the front
        # constant, so the cached path stays valid.
        frame, label = frame_and_label
        freeze = StudentNet.FRONT_MODULES + ("sb5",)
        ref, _ = run_training(
            DistillMode.PARTIAL, False, frame, label, freeze_modules=freeze
        )
        got, _ = run_training(
            DistillMode.PARTIAL, True, frame, label, freeze_modules=freeze
        )
        assert ref.steps == got.steps
        np.testing.assert_allclose(ref.losses, got.losses, rtol=1e-6)
        assert ref.metric == pytest.approx(got.metric, abs=1e-12)


#: ``StudentNet``'s top-level modules in forward order: every proper
#: prefix is a freeze boundary.  The ablation's four points are
#: prefixes 0 (full), 4 (through sb2), 6 (the paper's) and 8 (sb6).
MODULE_ORDER = StudentNet.FRONT_MODULES + StudentNet.BACK_MODULES


def _train_key_frames(width, hw, frozen, reference):
    """Three key frames of Algorithm 1 with the first ``frozen``
    modules frozen, compiled or (``reference``) interpreted."""
    frames = _frames(3, hw)
    with interpreted(reference):
        trainer = StudentTrainer(
            StudentNet(width=width, seed=1),
            DistillConfig(max_updates=2, threshold=0.99),
            freeze_modules=MODULE_ORDER[:frozen],
        )
        first, first_label = frames[0]
        # Through the module, so the reference leg gets the reference runner.
        runner = trainer_module.make_step_runner(
            trainer.student, first[None], first_label[None], None
        )
        results = [trainer.train(frame, label) for frame, label in frames]
    return type(runner), [
        (r.steps, r.losses, r.metric, r.initial_metric) for r in results
    ], state_dict_digest(trainer.student.state_dict())


@pytest.mark.parametrize("hw", [(64, 96), (28, 44)], ids=["64x96", "28x44"])
@pytest.mark.parametrize("width", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("frozen", range(len(MODULE_ORDER)))
def test_every_freeze_prefix_rides_the_compiled_step(frozen, width, hw):
    """No freeze state of a ``StudentNet`` reaches the interpreted
    loop, and the compiled step it takes instead is that loop bit for
    bit: steps, losses, metrics, weights and buffers."""
    want_runner, want, want_digest = _train_key_frames(width, hw, frozen, True)
    got_runner, got, got_digest = _train_key_frames(width, hw, frozen, False)
    assert want_runner is AutogradStepRunner  # the reference is the reference
    assert got_runner is _CompiledStepRunner
    assert sum(steps for steps, *_ in got) > 0
    assert got == want
    assert got_digest == want_digest


class TestCompiledGradients:
    def test_frozen_parameters_get_no_grad(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.5, seed=1)
        trainer = StudentTrainer(student, DistillConfig(max_updates=1, threshold=0.99))
        trainer.train(frame, label)
        for name, p in student.named_parameters():
            top = name.split(".", 1)[0]
            if top in StudentNet.FRONT_MODULES:
                assert p.grad is None, name

    @pytest.mark.parametrize("mode", [DistillMode.PARTIAL, DistillMode.FULL])
    def test_no_gradient_into_a_slot_nothing_reads(self, mode):
        """Under partial distillation both inputs of ``concat(s4, s2)``
        are frozen roots, so nothing reads that slot's gradient: the
        table the vjp steps share has no buffer there, and SB5's batch
        norm and ``project`` compute no input gradient.  In full mode
        the front end trains and both still do."""
        from repro.engine import plan_cache
        from repro.engine.kernels import BatchNormStep, ConvStep
        from repro.models.student import partial_freeze

        student = StudentNet(width=0.25, seed=0)
        x = np.zeros((1, 3, 32, 48), np.float32)
        if mode is DistillMode.PARTIAL:
            partial_freeze(student)
            kind = "train_back"
            inputs = tuple(np.array(f) for f in student.run_plan("front", x))
        else:
            kind = "train_full"
            inputs = (x,)
        step = plan_cache.compile_transient(
            student, kind, tuple(a.shape for a in inputs)
        )
        table = step._live_gbufs
        loss_vjp, *vjps = step.adjoint._steps
        assert all(vjp._gbufs is table for vjp in vjps)
        assert loss_vjp.gout is table[step._logits_slot]
        (bn,) = [s for s in step._steps
                 if isinstance(s, BatchNormStep) and s.module is student.sb5.bn]
        (project,) = [s for s in step._steps
                      if isinstance(s, ConvStep) and s.module is student.sb5.project]
        assert bn.in_slot == project.in_slot
        if mode is DistillMode.PARTIAL:
            assert table[bn.in_slot] is None
            # Only that slot is dropped: every other produced slot
            # leads to a trainable parameter.
            produced = [s.out_slot for s in step._steps]
            assert [slot for slot in produced if table[slot] is None] == [bn.in_slot]
        else:
            assert table[bn.in_slot] is not None
            assert all(table[s.out_slot] is not None for s in step._steps)

    def test_compiled_gradients_match_autograd(self, frame_and_label):
        from repro.autograd.tensor import Tensor
        from repro.segmentation.losses import lvs_weight_map, weighted_cross_entropy

        frame, label = frame_and_label
        x4, target = frame[None], label[None]
        wm = lvs_weight_map(target)

        ref_student = StudentNet(width=0.5, seed=1)
        StudentTrainer(ref_student, DistillConfig())
        loss = weighted_cross_entropy(ref_student(Tensor(x4)), target, wm)
        loss.backward()

        got_student = StudentNet(width=0.5, seed=1)
        StudentTrainer(got_student, DistillConfig())
        runner = make_step_runner(got_student, x4, target, wm)
        compiled_loss = runner.step()

        assert compiled_loss == pytest.approx(loss.item(), rel=1e-6)
        ref_grads = {n: p.grad for n, p in ref_student.named_parameters()}
        for name, p in got_student.named_parameters():
            if ref_grads[name] is None:
                assert p.grad is None, name
            else:
                np.testing.assert_allclose(
                    p.grad, ref_grads[name], rtol=1e-5, atol=1e-7, err_msg=name
                )


def _frames(count, hw=(32, 48)):
    video = SyntheticVideo(VideoConfig(seed=5, height=hw[0], width=hw[1],
                                       num_objects=3, class_pool=(1, 2)))
    return list(video.frames(count))


def _state_bytes(trainer):
    """Everything a key frame may change: weights and Adam state."""
    student, adam = trainer.student, trainer._optimizer
    state = {k: v.tobytes() for k, v in student.state_dict().items()}
    for name, p in student.named_parameters():
        st = adam.state.get(id(p))
        if st is not None:
            state[f"adam.{name}"] = (st["m"].tobytes(), st["v"].tobytes(), st["t"])
    return state


def _key_frame_sequence(mode, enabled, interleave=False):
    """Trained, zero-step, trained-on-another-frame; optionally with a
    second session's trainer taking the shared plan after each."""
    (f0, l0), (f1, l1), (f2, l2) = _frames(3)
    with interpreted(not enabled):
        trainer = StudentTrainer(
            StudentNet(width=0.5, seed=1),
            DistillConfig(mode=mode, max_updates=4, threshold=0.99),
        )
        other = StudentTrainer(
            StudentNet(width=0.5, seed=2),
            DistillConfig(mode=mode, max_updates=2, threshold=0.99),
        )
        results, states = [], []
        for frame, label, threshold in ((f0, l0, 0.99), (f1, l1, 1e-6), (f2, l2, 0.99)):
            trainer.config = dataclasses.replace(trainer.config, threshold=threshold)
            states.append(_state_bytes(trainer))
            results.append(trainer.train(frame, label))
            if interleave:
                other.train(f1, l1)
        states.append(_state_bytes(trainer))
    return results, states


@pytest.mark.parametrize("mode", [DistillMode.PARTIAL, DistillMode.FULL])
class TestOneForwardPerKeyFrame:
    """``train()`` takes the pre-update metric from the step runner's
    forward, which is also step 1's — or nobody's, on a zero-step key
    frame."""

    def test_sequence_matches_the_autograd_loop(self, mode):
        ref_results, ref_states = _key_frame_sequence(mode, enabled=False)
        got_results, got_states = _key_frame_sequence(mode, enabled=True)
        assert [r.steps for r in got_results] == [4, 0, 4]
        for ref, got in zip(ref_results, got_results):
            assert (ref.steps, ref.metric, ref.initial_metric, ref.improved) == (
                got.steps, got.metric, got.initial_metric, got.improved
            )
            np.testing.assert_allclose(ref.losses, got.losses, rtol=1e-6)
        assert ref_states == got_states

    def test_zero_step_key_frame_changes_nothing(self, mode):
        results, states = _key_frame_sequence(mode, enabled=True)
        assert results[1].steps == 0 and results[1].losses == []
        assert results[1].metric == results[1].initial_metric
        assert any(k.startswith("adam.") for k in states[1])
        assert states[1] == states[2]  # weights and Adam

    def test_pending_forward_is_not_reused(self, mode):
        """The zero-step key frame leaves its forward pending on the
        shared plan; the next key frame (another frame) must run its
        own — alone, or after another session took the plan."""
        alone, alone_states = _key_frame_sequence(mode, enabled=True)
        mixed, mixed_states = _key_frame_sequence(mode, enabled=True, interleave=True)
        assert alone == mixed
        assert alone_states == mixed_states
        # ... and the stale forward really was another frame's: a
        # trainer that had reused it would have scored f1, not f2.
        assert alone[2].initial_metric != alone[1].initial_metric
