"""Engine coverage for the neural teacher (ROADMAP "Engine coverage").

``TeacherNet`` is built from ``Sequential`` chains of layers the
student uses too, so every op it emits lowers to engine kernels.  These
tests pin bit-identity of compiled teacher inference against the
autograd path, and pin the IR itself: the op kinds the two models
emit are exactly the kinds the compiler lowers.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.engine.compiler import compile_plan, trace_forward
from repro.engine.kernels import UntraceableError
from repro.engine.training import CompiledTrainStep
from repro.models.student import StudentNet
from repro.models.teacher import TeacherNet
from repro.nn import Conv2d, FrozenBatchNorm2d, ReLU, Sequential
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

    def test_unknown_plan_kind_raises(self):
        teacher = TeacherNet(width=8, seed=0)
        with pytest.raises(KeyError):
            teacher.engine_plan("train_back", ((1, 3, 32, 48),))


class TestFrozenBatchNormKernel:
    """``FrozenBatchNormStep`` is ``FrozenBatchNorm2d.forward`` compiled:
    the same bits at any ``eps`` and affine, and no adjoint."""

    @staticmethod
    def _net():
        rng = np.random.default_rng(3)
        net = Sequential(
            Conv2d(3, 4, 3, rng=rng), FrozenBatchNorm2d(4, eps=1e-3), ReLU(),
            Conv2d(4, 5, 1, rng=rng),
        )
        net[1].weight.data = rng.normal(size=4).astype(np.float32)
        net[1].bias.data = rng.normal(size=4).astype(np.float32)
        x = rng.normal(size=(1, 3, 8, 10)).astype(np.float32)
        return net, x

    def test_compiled_kernel_is_the_layer_bit_for_bit(self):
        net, x = self._net()
        (got,) = compile_plan(net.forward, (x,)).run(x)
        with no_grad():
            ref = net.forward(Tensor(x)).data
        assert got.tobytes() == ref.tobytes()

    def test_a_train_step_through_it_is_refused(self):
        net, x = self._net()
        with pytest.raises(UntraceableError, match="FrozenBatchNorm2d"):
            CompiledTrainStep(net.forward, (x,))


class TestTracedOpVocabulary:
    """The IR is what the models emit: every plan kind of ``StudentNet``
    (three widths) and of ``TeacherNet`` (two widths) traces to exactly
    these op kinds, each of which ``build_steps`` lowers — and it has a
    branch for no other kind."""

    KINDS = {"module", "relu", "add", "concat", "upsample2x"}

    def test_models_emit_exactly_the_lowered_ops(self):
        x = np.random.default_rng(0).random((1, 3, 32, 48)).astype(np.float32)
        models = [StudentNet(width=w, seed=0) for w in (0.25, 0.5, 1.0)]
        models += [TeacherNet(width=w, seed=0) for w in (8, 48)]
        seen = set()
        for model in models:
            fns = model._engine_fns()
            if isinstance(model, TeacherNet):
                assert set(fns) == {"forward"}
            else:
                with no_grad():
                    front = tuple(t.data for t in model.forward_front(Tensor(x)))
            for kind, fn in fns.items():
                inputs = front if kind in ("back", "train_back") else (x,)
                records, _, _ = trace_forward(fn, inputs)
                seen |= {rec.kind for rec in records}
        assert seen == self.KINDS

    def test_the_compiler_lowers_no_other_kind(self):
        import ast
        import inspect

        from repro.engine import compiler

        tree = ast.parse(inspect.getsource(compiler.build_steps))
        lowered = {
            node.comparators[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and ast.unparse(node.left) == "rec.kind"
            and isinstance(node.comparators[0], ast.Constant)
        }
        assert lowered == self.KINDS
