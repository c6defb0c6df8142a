"""Engine coverage for the neural teacher (ROADMAP "Engine coverage").

``TeacherNet`` is built from ``Sequential`` chains; with the avg-pool
kernel added, every op the teacher family uses lowers to engine
kernels.  These tests pin bit-identity of compiled teacher inference
against the autograd path, and the avg-pool kernel's forward/backward
against its autograd twin.  The softmax-head kernel closes the last
gap: compiled ``soft_infer`` (class probabilities for soft-target
distillation) is bit-identical too.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.engine.compiler import compile_plan
from repro.engine.kernels import AvgPool2dStep, SoftmaxStep, UntraceableError
from repro.models.teacher import TeacherNet
from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, ReLU, Sequential
from repro.nn.module import Module
from tests.helpers import interpreted


@pytest.fixture
def frame(rng=None):
    return np.random.default_rng(0).random((3, 32, 48)).astype(np.float32)


class TestTeacherNetCompiles:
    def test_forward_plan_compiles(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        plan = teacher.engine_plan("forward", ((1, 3, 32, 48),))
        assert plan is not None, "TeacherNet no longer compiles"
        assert plan.num_kernels > 0

    def test_logits_bitwise_identical_to_autograd(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        plan = teacher.engine_plan("forward", ((1, 3, 32, 48),))
        (logits,) = plan.run(frame[None])
        teacher.eval()
        with no_grad():
            ref = teacher.forward(Tensor(frame[None])).data
        assert ref.shape == logits.shape
        assert ref.tobytes() == logits.tobytes()

    def test_infer_argmax_identical_to_autograd(self, frame):
        teacher = TeacherNet(width=8, seed=1)
        got = teacher.infer(frame)
        with interpreted():
            ref = teacher.infer(frame)
        np.testing.assert_array_equal(got, ref)

    def test_infer_uses_compiled_plan(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        teacher.infer(frame)
        key = ("forward", ((1, 3, 32, 48),))
        assert teacher._engine_plans.get(key) is not None

    def test_infer_preserves_training_mode(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        teacher.train(True)
        teacher.infer(frame)
        assert teacher.training

    def test_unknown_plan_kind_raises(self):
        teacher = TeacherNet(width=8, seed=0)
        with pytest.raises(KeyError):
            teacher.engine_plan("train_back", ((1, 3, 32, 48),))


class _PoolNet(Module):
    """Sequential chain with average pooling (encoder-pool-decoder)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.body = Sequential(
            Conv2d(3, 8, 3, rng=rng), BatchNorm2d(8), ReLU(),
            AvgPool2d(2),
            Conv2d(8, 8, 3, rng=rng), ReLU(),
            AvgPool2d(2),
            Conv2d(8, 5, 1, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)


class TestAvgPoolKernel:
    def test_sequential_avgpool_net_bitwise(self):
        net = _PoolNet()
        x = np.random.default_rng(3).random((1, 3, 16, 24)).astype(np.float32)
        plan = net.engine_plan("forward", ((1, 3, 16, 24),))
        assert plan is not None
        (got,) = plan.run(x)
        net.eval()
        with no_grad():
            ref = net.forward(Tensor(x)).data
        assert got.shape == ref.shape == (1, 5, 4, 6)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [2, 4])
    def test_step_forward_matches_autograd(self, k):
        x = np.random.default_rng(4).random((2, 3, 8, 8)).astype(np.float32)
        step = AvgPool2dStep(0, 1, x.shape, k, training=False)
        env = [x, None]
        step.forward(env)
        ref = Tensor(x).avg_pool2d(k).data
        assert env[1].tobytes() == ref.tobytes()

    def test_step_backward_matches_autograd(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 3, 8, 12)).astype(np.float32)
        upstream = rng.random((2, 3, 4, 6)).astype(np.float32)

        t = Tensor(x, requires_grad=True)
        out = t.avg_pool2d(2)
        out.backward(upstream)

        step = AvgPool2dStep(0, 1, x.shape, 2, training=True)
        env = [x, None]
        step.forward(env)
        gbufs = [np.zeros_like(x), upstream.copy()]
        step.backward(env, gbufs)
        assert gbufs[0].tobytes() == t.grad.tobytes()

    def test_indivisible_geometry_raises(self):
        with pytest.raises(UntraceableError):
            AvgPool2dStep(0, 1, (1, 3, 7, 8), 2, training=False)


class TestSoftmaxHead:
    """Compiled ``soft_infer``: the softmax-head kernel (ISSUE 4)."""

    def test_soft_plan_compiles(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        plan = teacher.engine_plan("soft", ((1, 3, 32, 48),))
        assert plan is not None, "soft_infer no longer compiles"
        assert plan.num_kernels > 0

    def test_soft_infer_bitwise_identical_to_autograd(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        got = teacher.soft_infer(frame)
        with interpreted():
            ref = teacher.soft_infer(frame)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_soft_infer_is_a_distribution(self, frame):
        teacher = TeacherNet(width=8, seed=1)
        probs = teacher.soft_infer(frame)
        assert probs.shape == (teacher.num_classes, 32, 48)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=1e-5)

    def test_soft_infer_uses_compiled_plan(self, frame):
        teacher = TeacherNet(width=8, seed=0)
        teacher.soft_infer(frame)
        assert teacher._engine_plans.get(("soft", ((1, 3, 32, 48),))) is not None

    def test_soft_infer_result_owns_memory(self, frame):
        """Plan output buffers are reused; soft_infer must hand back a
        copy that survives the next run."""
        teacher = TeacherNet(width=8, seed=0)
        first = teacher.soft_infer(frame)
        snapshot = first.copy()
        teacher.soft_infer(frame * 0.5 + 0.1)
        assert first.tobytes() == snapshot.tobytes()

    def test_step_forward_matches_functional_softmax(self):
        from repro.autograd import functional as F

        logits = np.random.default_rng(7).normal(
            size=(2, 9, 8, 12)
        ).astype(np.float32) * 10
        step = SoftmaxStep(0, 1, logits.shape, axis=1, training=False)
        env = [logits, None]
        step.forward(env)
        ref = F.softmax(Tensor(logits), axis=1).data
        assert env[1].tobytes() == ref.tobytes()

    def test_non_channel_axis_raises(self):
        with pytest.raises(UntraceableError):
            SoftmaxStep(0, 1, (1, 9, 8, 8), axis=2, training=False)

    def test_training_plan_raises(self):
        """Training graphs fall back: the losses differentiate through
        log_softmax on the autograd side."""
        with pytest.raises(UntraceableError):
            SoftmaxStep(0, 1, (1, 9, 8, 8), axis=1, training=True)
