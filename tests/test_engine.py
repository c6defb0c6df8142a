"""Tests for the compiled inference engine (plan compiler + kernels)."""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.engine import plan_cache, tracer
from repro.engine.compiler import CompiledPlan, compile_plan
from repro.engine.kernels import ConvStep, Layout, UntraceableError
from repro.engine.training import CompiledTrainStep
from repro.models.student import StudentNet, partial_freeze
from repro.models.teacher import TeacherNet
from repro.nn.serialize import apply_state_dict, state_dict_diff
from tests.helpers import interpreted


def autograd_logits(student, x):
    with no_grad():
        return student.forward(Tensor(x)).data


@pytest.fixture
def fresh_plan_cache():
    """An empty process-wide plan cache, for tests that count compiles
    (and emptied again after, so a forced failure cannot outlive them)."""
    plan_cache.clear()
    yield
    plan_cache.clear()


class TestForwardEquivalence:
    @pytest.mark.parametrize("width", [0.5, 1.0])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_matches_autograd(self, rng, width, batch):
        student = StudentNet(width=width, seed=3)
        n = 1 if batch is None else batch
        x = rng.normal(size=(n, 3, 32, 48)).astype(np.float32)
        ref = autograd_logits(student, x)
        plan = student.engine_plan("forward", (x.shape,))
        assert plan is not None
        (got,) = plan.run(x)
        np.testing.assert_allclose(got, ref, atol=1e-5)

    @pytest.mark.parametrize("hw", [(20, 28), (64, 96), (16, 16), (32, 44)])
    def test_odd_geometries(self, rng, hw):
        student = StudentNet(width=0.5, seed=7)
        x = rng.normal(size=(1, 3) + hw).astype(np.float32)
        ref = autograd_logits(student, x)
        (got,) = student.engine_plan("forward", (x.shape,)).run(x)
        np.testing.assert_allclose(got, ref, atol=1e-5)

    def test_single_frame_is_bit_identical(self, rng):
        # The hot path (one frame) must not drift at all: the benchmark
        # asserts argmax equality against the autograd path per frame.
        student = StudentNet(width=0.5, seed=11)
        x = rng.normal(size=(1, 3, 64, 96)).astype(np.float32)
        ref = autograd_logits(student, x)
        (got,) = student.engine_plan("forward", (x.shape,)).run(x)
        np.testing.assert_array_equal(got, ref)

    def test_predict_routes_through_engine_and_matches(self, rng):
        student = StudentNet(width=0.5, seed=5)
        frame = rng.normal(size=(3, 32, 48)).astype(np.float32)
        with interpreted():
            ref = student.predict(frame)
        got = student.predict(frame)
        np.testing.assert_array_equal(ref, got)
        # The plan must now be cached for the frame geometry.
        assert student.engine_plan("forward", ((1, 3, 32, 48),)) is not None

    def test_front_back_split_composes_to_forward(self, rng):
        student = StudentNet(width=0.5, seed=5)
        x = rng.normal(size=(1, 3, 32, 48)).astype(np.float32)
        front = student.engine_plan("front", (x.shape,))
        feats = front.run(x)
        feats = tuple(np.array(f, copy=True) for f in feats)
        back = student.engine_plan("back", tuple(f.shape for f in feats))
        (got,) = back.run(*feats)
        np.testing.assert_allclose(got, autograd_logits(student, x), atol=1e-5)


class TestPlanMechanics:
    def test_run_validates_shapes(self, rng):
        student = StudentNet(width=0.25, seed=0)
        plan = student.engine_plan("forward", ((1, 3, 16, 16),))
        with pytest.raises(ValueError):
            plan.run(np.zeros((1, 3, 32, 32), np.float32))
        with pytest.raises(ValueError):
            plan.run()

    def test_untraceable_callable_raises(self):
        def fn(x):
            return x.sigmoid()  # no kernel / no hook for sigmoid

        with pytest.raises(UntraceableError):
            compile_plan(fn, (np.zeros((1, 2, 4, 4), np.float32),))

    def test_failed_compile_raises_and_caches_nothing(
        self, monkeypatch, fresh_plan_cache
    ):
        student = StudentNet(width=0.25, seed=0)
        # A geometry the student rejects, whichever plan kind asks ...
        for kind in ("forward", "front", "train_full"):
            with pytest.raises(ValueError, match="multiples of 4"):
                student.engine_plan(kind, ((1, 3, 30, 46),))
        # ... and a graph that does not lower.
        import repro.engine.compiler as compiler_mod

        def failing(fn, examples):
            raise UntraceableError("forced")

        monkeypatch.setattr(compiler_mod, "compile_plan", failing)
        with pytest.raises(UntraceableError, match="forced"):
            student.engine_plan("forward", ((1, 3, 16, 16),))
        assert not plan_cache._PLANS
        assert not student._engine_plans

    def test_plan_buffers_reused_between_runs(self, rng):
        student = StudentNet(width=0.25, seed=0)
        plan = student.engine_plan("forward", ((1, 3, 16, 16),))
        a = plan.run(rng.normal(size=(1, 3, 16, 16)).astype(np.float32))[0]
        first = a.copy()
        b = plan.run(rng.normal(size=(1, 3, 16, 16)).astype(np.float32))[0]
        assert a is b  # same scratch buffer: callers copy if they keep it
        assert not np.array_equal(first, b)


class TestInvalidation:
    """apply_state_dict / load_state_dict must never leave stale plans."""

    def test_engine_fresh_after_apply_state_dict(self, rng):
        student = StudentNet(width=0.5, seed=1)
        donor = StudentNet(width=0.5, seed=99)
        x = rng.normal(size=(1, 3, 32, 48)).astype(np.float32)
        plan = student.engine_plan("forward", (x.shape,))
        before = plan.run(x)[0].copy()

        update = state_dict_diff(donor, trainable_only=False)
        apply_state_dict(student, update)

        plan_after = student.engine_plan("forward", (x.shape,))
        got = plan_after.run(x)[0]
        ref = autograd_logits(student, x)
        np.testing.assert_array_equal(got, ref)
        assert not np.allclose(before, got)  # genuinely new weights

    def test_engine_fresh_after_load_state_dict(self, rng):
        student = StudentNet(width=0.5, seed=1)
        donor = StudentNet(width=0.5, seed=42)
        x = rng.normal(size=(1, 3, 32, 48)).astype(np.float32)
        student.engine_plan("forward", (x.shape,)).run(x)
        student.load_state_dict(donor.state_dict())
        got = student.engine_plan("forward", (x.shape,)).run(x)[0]
        np.testing.assert_array_equal(got, autograd_logits(student, x))

    def test_engine_fresh_after_inplace_optimizer_update(self, rng):
        # Adam mutates parameter arrays in place between metric predicts.
        student = StudentNet(width=0.5, seed=1)
        x = rng.normal(size=(1, 3, 32, 48)).astype(np.float32)
        plan = student.engine_plan("forward", (x.shape,))
        plan.run(x)
        for p in student.parameters():
            p.data -= 0.05 * rng.normal(size=p.data.shape).astype(np.float32)
        np.testing.assert_array_equal(plan.run(x)[0], autograd_logits(student, x))

    def test_full_invalidation_clears_cache(self):
        student = StudentNet(width=0.25, seed=0)
        student.engine_plan("forward", ((1, 3, 16, 16),))
        assert student._engine_plans
        student.invalidate_plans()
        assert not student._engine_plans


class TestCompiledPlanDirect:
    def test_compile_plan_on_plain_callable(self, rng):
        student = StudentNet(width=0.25, seed=0)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        plan = compile_plan(student.forward, (x,))
        assert isinstance(plan, CompiledPlan)
        np.testing.assert_allclose(plan.run(x)[0], autograd_logits(student, x), atol=1e-5)


# ----------------------------------------------------------------------
# One plan per architecture, handed between instances (plan_cache)
# ----------------------------------------------------------------------
_HW = (16, 24)


def _private_plan(model, kind, shapes):
    """What ``engine_plan`` built before plans were shared: a plan
    traced on, and for ever bound to, this one instance."""
    fn = model._engine_fns()[kind]
    examples = tuple(np.zeros(shape, np.float32) for shape in shapes)
    if kind.startswith("train"):
        return CompiledTrainStep(fn, examples)
    return compile_plan(fn, examples)


def _assert_same_state(got, want, grads):
    """``grads`` only right after a step: installed gradients are views
    of plan scratch, valid until anyone runs the same plan again."""
    for (name, a), (_, b) in zip(got.named_parameters(), want.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
        if grads:
            assert (a.grad is None) == (b.grad is None), name
            if a.grad is not None:
                assert a.grad.tobytes() == b.grad.tobytes(), name


class TestSharedPlans:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_instances_match_private_plans(self, seed):
        # Same-structure models with different weights and freeze
        # states share every plan; whatever order their calls
        # interleave in, each must compute exactly what a plan compiled
        # for it alone computes — outputs, losses, gradients, bit for
        # bit.
        rng = np.random.default_rng(seed)

        def student(s, freeze):
            pair = []
            for _ in range(2):
                net = StudentNet(width=0.25, seed=s)
                if freeze:
                    partial_freeze(net)
                pair.append(net)
            return pair

        def teacher(s):
            return [TeacherNet(width=8, seed=s) for _ in range(2)]

        x1 = (1, 3, *_HW)
        probe = StudentNet(width=0.25, seed=0)
        feat_shapes = tuple(
            f.shape for f in probe.engine_plan("front", (x1,)).run(np.zeros(x1, np.float32))
        )
        student_kinds = {
            "forward": (x1,), "front": (x1,),
            "train_back": feat_shapes, "train_full": (x1,),
        }
        teacher_kinds = {"forward": (x1,)}
        models = [
            (*student(11, True), student_kinds),
            (*student(12, False), student_kinds),
            (*student(13, True), student_kinds),
            (*student(14, False), student_kinds),
            (*teacher(21), teacher_kinds),
            (*teacher(22), teacher_kinds),
        ]
        private = {
            (i, kind): _private_plan(twin, kind, shapes)
            for i, (_, twin, kinds) in enumerate(models)
            for kind, shapes in kinds.items()
        }
        # The sharing under test is real: one plan per (class, kind).
        for kind, shapes in student_kinds.items():
            shared = {id(m.engine_plan(kind, shapes)._plan) for m, _, k in models if k is student_kinds}
            assert len(shared) == 1, kind

        for _ in range(60):
            i = int(rng.integers(len(models)))
            model, twin, kinds = models[i]
            kind = list(kinds)[int(rng.integers(len(kinds)))]
            shapes = kinds[kind]
            shared, own = model.engine_plan(kind, shapes), private[i, kind]
            inputs = tuple(rng.normal(size=s).astype(np.float32) for s in shapes)
            if kind.startswith("train"):
                target = rng.integers(0, 9, size=(1, *_HW))
                weight_map = rng.uniform(0.5, 2.0, size=(1, *_HW)).astype(np.float32)
                for net in (model, twin):
                    net.zero_grad()
                if rng.integers(2):
                    # The split protocol the trainer uses: a forward
                    # for the metric, finished as the next step.
                    got_logits = shared.forward_only(inputs).copy()
                    assert got_logits.tobytes() == own.forward_only(inputs).tobytes()
                    got = shared.finish_step(target, weight_map)
                    want = own.finish_step(target, weight_map)
                else:
                    got = shared.run(inputs, target, weight_map)
                    want = own.run(inputs, target, weight_map)
                assert got == want
                _assert_same_state(model, twin, grads=True)
                for net in (model, twin):
                    for p in net.trainable_parameters():
                        if p.grad is not None:
                            p.data -= np.float32(0.05) * p.grad
            else:
                got, want = shared.run(*inputs), own.run(*inputs)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), kind
        for model, twin, _ in models:
            _assert_same_state(model, twin, grads=False)

    def test_stale_forward_does_not_survive_a_hand_over(self, rng):
        a, b = StudentNet(width=0.25, seed=1), StudentNet(width=0.25, seed=2)
        x = rng.normal(size=(1, 3, *_HW)).astype(np.float32)
        target = rng.integers(0, 9, size=(1, *_HW))
        plan_a = a.engine_plan("train_full", (x.shape,))
        plan_b = b.engine_plan("train_full", (x.shape,))
        plan_a.forward_only((x,))
        with pytest.raises(RuntimeError):
            plan_b.finish_step(target, None)  # a's activations, not b's
        plan_a.forward_only((x,))
        plan_b.run((x,), target, None)
        with pytest.raises(RuntimeError):
            plan_a.finish_step(target, None)  # b ran in between

    def test_adjoint_follows_the_owner_at_hand_over(self):
        # A partial-mode and a full-mode student share "train_full";
        # the schedule must be the owner's before any step runs.
        full, part = StudentNet(width=0.25, seed=1), StudentNet(width=0.25, seed=2)
        partial_freeze(part)
        shapes = ((1, 3, *_HW),)
        plan_full = full.engine_plan("train_full", shapes)
        plan_part = part.engine_plan("train_full", shapes)
        n_full = len(plan_full.adjoint._steps)
        assert n_full == plan_full.num_kernels + 1
        assert len(plan_part.adjoint._steps) < n_full
        assert len(plan_full.adjoint._steps) == n_full

    def test_fresh_model_on_a_dead_models_address(self, rng):
        # Regression: an owner identified by id() let a new student
        # that landed on a dead student's address run (and train) the
        # dead student's layers.
        frame = rng.normal(size=(3, *_HW)).astype(np.float32)
        first = StudentNet(width=0.25, seed=1)
        first.predict(frame)
        address = id(first)
        del first
        gc.collect()
        for attempt in range(64):
            fresh = StudentNet(width=0.25, seed=2 + attempt)
            if id(fresh) == address:
                break
        with interpreted():
            want = fresh.predict(frame)
        np.testing.assert_array_equal(fresh.predict(frame), want)
        plan = fresh.engine_plan("forward", ((1, 3, *_HW),))
        assert plan.bound().sites[0].module is fresh.in1

    def test_different_structures_never_share(self, rng):
        x = rng.normal(size=(1, 3, *_HW)).astype(np.float32)
        base = StudentNet(width=0.25, seed=1)
        wider = StudentNet(width=0.5, seed=1)
        other_eps = StudentNet(width=0.25, seed=1)
        other_eps.sb3.bn.eps = 1e-3
        unpadded = StudentNet(width=0.25, seed=1)
        unpadded.out1.padding = (0, 0)
        shapes = (x.shape,)
        plans = [m.engine_plan("forward", shapes) for m in (base, wider, other_eps)]
        plans.append(base.engine_plan("forward", ((1, 3, 32, 24),)))
        plans.append(base.engine_plan("front", shapes))
        plans.append(unpadded.engine_plan("forward", shapes))
        assert len({id(p._plan) for p in plans}) == len(plans)
        twin = StudentNet(width=0.25, seed=9)
        assert twin.engine_plan("forward", shapes)._plan is plans[0]._plan
        for model in (base, wider, other_eps, unpadded, twin):
            (got,) = model.engine_plan("forward", shapes).run(x)
            assert got.tobytes() == autograd_logits(model, x).tobytes()

    def test_second_instance_traces_nothing(self, monkeypatch, fresh_plan_cache):
        traces = []
        capture = tracer.capture

        def counting():
            traces.append(1)
            return capture()

        monkeypatch.setattr(tracer, "capture", counting)
        first, second = StudentNet(width=0.25, seed=1), StudentNet(width=0.25, seed=2)
        kinds = {
            "forward": ((1, 3, *_HW),),
            "front": ((1, 3, *_HW),), "train_full": ((1, 3, *_HW),),
        }
        for kind, shapes in kinds.items():
            assert first.engine_plan(kind, shapes) is not None
        assert len(traces) == len(kinds)
        for kind, shapes in kinds.items():
            assert second.engine_plan(kind, shapes) is not None
        second.invalidate_plans()
        assert second.engine_plan("forward", kinds["forward"]) is not None
        assert len(traces) == len(kinds)

    def test_dropped_models_are_not_kept_alive(self, rng):
        x = rng.normal(size=(1, 3, *_HW)).astype(np.float32)
        target = rng.integers(0, 9, size=(1, *_HW))
        models = [StudentNet(width=0.25, seed=s) for s in (1, 2)]
        models.append(TeacherNet(width=8, seed=3))
        watched = []
        for model in models:
            model.engine_plan("forward", (x.shape,)).run(x)
            if isinstance(model, StudentNet):
                model.engine_plan("train_full", (x.shape,)).run((x,), target, None)
            watched += [weakref.ref(m) for _, m in model.named_modules()]
            watched += [weakref.ref(p) for p in model.parameters()]
        models[0].invalidate_plans()
        del model, models
        gc.collect()
        assert not [ref for ref in watched if ref() is not None]

    def test_cache_counters_when_armed(self, fresh_plan_cache, rng):
        import importlib.util
        import pathlib

        from repro import obs

        spec = importlib.util.spec_from_file_location(
            "obs_report",
            pathlib.Path(__file__).resolve().parent.parent / "scripts" / "obs_report.py",
        )
        obs_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(obs_report)

        frame = rng.normal(size=(3, *_HW)).astype(np.float32)
        a, b = StudentNet(width=0.25, seed=1), StudentNet(width=0.25, seed=2)
        obs.arm(metrics=True)
        try:
            for model in (a, b, a, a, b):
                model.predict(frame)
            counters = obs.snapshot()["counters"]
            row = obs_report.format_plan_cache_row(obs.snapshot())
        finally:
            obs.disarm()
        assert counters["engine.plan_cache.miss"] == 1
        assert counters["engine.plan_cache.hit"] == 1
        assert counters["engine.plan_cache.rebind"] == 4  # a b a (a) b
        assert row == (
            "engine plan cache: 1 compiled, 1 reused (50% of 2 requests), "
            "4 hand-overs"
        )
        assert obs_report.format_plan_cache_row({}) == ""


def _adversarial(rng, shape):
    """float32 values chosen to expose any change of order or rounding:
    exponents spread over 2**80 (so a float64 sum of a few of them is
    inexact and order-sensitive), both zeros, and subnormals."""
    x = rng.standard_normal(shape).astype(np.float32)
    x *= np.float32(2.0) ** rng.integers(-40, 40, shape).astype(np.float32)
    kind = rng.random(shape)
    x[kind < 0.08] = 0.0
    x[(kind >= 0.08) & (kind < 0.16)] = -0.0
    x[(kind >= 0.16) & (kind < 0.20)] = np.float32(1e-42)
    x[(kind >= 0.20) & (kind < 0.24)] = np.float32(-3e-45)
    return x


def _laid_out(make):
    """A step built on its own: ``make(layout)``, then the one
    allocation its plan's build would make."""
    layout = Layout()
    step = make(layout)
    layout.allocate()
    return step


def _conv_step(rng, n, c, h, w, kernel, padding, stride, training=True):
    from repro.nn.layers import Conv2d

    module = Conv2d(c, 2, kernel, stride=stride, padding=padding, rng=rng)
    return _laid_out(lambda layout: ConvStep(
        module, 0, 1, (n, c, h, w), fuse_relu=False, training=training, layout=layout
    ))


class TestConvTapsAreExact:
    """ConvStep's gather / scatter equal ``autograd.conv.im2col`` /
    ``col2im`` byte for byte — the flat taps on adversarial values, and
    the geometries that must stay on slice taps."""

    # (kernel, padding) pairs whose output is as wide as the input.
    FLAT = [
        ((3, 3), (1, 1)), ((3, 1), (1, 0)), ((1, 3), (0, 1)), ((5, 5), (2, 2)),
        ((1, 5), (0, 2)), ((1, 7), (0, 3)), ((3, 3), (0, 1)), ((3, 3), (2, 1)),
    ]

    @pytest.mark.parametrize("kernel,padding", FLAT)
    @pytest.mark.parametrize("seed", range(4))
    def test_flat_taps_match_autograd(self, kernel, padding, seed):
        from repro.autograd.conv import col2im, im2col

        rng = np.random.default_rng(1000 * seed + 10 * kernel[0] + kernel[1])
        c = int(rng.choice([1, 3, 12, 64]))
        h = int(rng.integers(max(1, kernel[0] - 2 * padding[0]), 14))
        w = int(rng.integers(1, 15))  # odd and even, narrower than the pad too
        step = _conv_step(rng, 1, c, h, w, kernel, padding, 1)
        assert step.flat
        for _ in range(2):  # twice: the scratch must not remember a run
            x = _adversarial(rng, (1, c, h, w))
            want = im2col(x, *kernel, *padding, 1)
            assert step._gather(x).tobytes() == want.tobytes()
            gcols = _adversarial(rng, want.shape)
            want = np.ascontiguousarray(col2im(gcols, x.shape, *kernel, *padding, 1))
            step._gcols[...] = gcols
            assert step._scatter().tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n,kernel,padding,stride",
        [
            (1, (3, 3), (1, 1), 2),   # stride 2
            (3, (3, 3), (1, 1), 1),   # n > 1
            (1, (3, 3), (1, 0), 1),   # pad that changes the width
            (1, (3, 3), (1, 2), 1),
            (2, (1, 3), (0, 0), 2),
        ],
    )
    def test_other_geometries_keep_slice_taps_and_still_match(
        self, rng, n, kernel, padding, stride
    ):
        from repro.autograd.conv import col2im, im2col

        step = _conv_step(rng, n, 5, 9, 10, kernel, padding, stride)
        assert not step.flat
        x = _adversarial(rng, (n, 5, 9, 10))
        want = im2col(x, *kernel, *padding, stride)
        assert step._gather(x).tobytes() == want.tobytes()
        gcols = _adversarial(rng, want.shape)
        want = np.ascontiguousarray(col2im(gcols, x.shape, *kernel, *padding, stride))
        step._gcols[...] = gcols
        assert step._scatter().tobytes() == want.tobytes()

    def test_every_student_conv_but_the_stems_is_flat(self, rng):
        student = StudentNet(width=0.25, seed=0)
        plan = compile_plan(student.forward, (np.zeros((1, 3, *_HW), np.float32),))
        convs = [s for s in plan._steps if hasattr(s, "is_1x1")]
        assert [s.stride for s in convs if not (s.flat or s.is_1x1)] == [2, 2]
        assert sum(s.flat for s in convs) == 6 * 3 + 2


class TestWeightGradientOrientation:
    """``ConvStep.backward`` and ``autograd.conv`` compute the weight
    gradient as ``cols . grad^T`` and copy it transposed, where the
    reference is ``grad . cols^T``: the faster orientation on this
    BLAS, and the same bits only if BLAS sums every entry's dot
    product in the same order both ways.  Checked for every conv GEMM
    shape the train plans run at the two bench geometries; a BLAS on
    which it does not hold fails here, before any digest drifts."""

    @staticmethod
    def _spread(rng, shape):
        """Values over 2^-60 .. 2^60 with both zeros and subnormals."""
        x = rng.standard_normal(shape).astype(np.float32)
        x *= np.float32(2.0) ** rng.integers(-60, 61, shape).astype(np.float32)
        kind = rng.random(shape)
        x[kind < 0.05] = 0.0
        x[(kind >= 0.05) & (kind < 0.10)] = -0.0
        x[(kind >= 0.10) & (kind < 0.13)] = np.float32(1e-42)
        x[(kind >= 0.13) & (kind < 0.16)] = np.float32(-3e-45)
        return x

    @pytest.mark.parametrize("hw", [(64, 96), (96, 144)])
    def test_both_orientations_agree_bitwise(self, rng, hw):
        student = StudentNet(width=0.5, seed=0)
        partial_freeze(student)
        x = np.zeros((1, 3, *hw), np.float32)
        feats = tuple(np.array(f) for f in student.run_plan("front", x))
        gemms = set()
        for kind, inputs in (("train_back", feats), ("train_full", (x,))):
            plan = plan_cache.compile_transient(
                student, kind, tuple(a.shape for a in inputs)
            )
            gemms |= {
                (s.oc, s.K, s.n * s.L) for s in plan._steps if isinstance(s, ConvStep)
            }
        assert len(gemms) > 10
        for oc, k, nl in sorted(gemms):
            cols, grad = self._spread(rng, (k, nl)), self._spread(rng, (oc, nl))
            want = np.dot(grad, cols.T)
            got_t = np.empty((k, oc), np.float32)
            np.dot(cols, grad.T, out=got_t)
            got = np.empty((oc, k), np.float32)
            np.copyto(got, got_t.T)
            assert got.tobytes() == want.tobytes(), (
                f"this BLAS sums the {oc}x{k} (over {nl}) weight gradient "
                "differently in the two orientations"
            )


class TestUpsampleIsExact:
    @pytest.mark.parametrize("n", [1, 3])
    def test_step_matches_autograd(self, rng, n):
        from repro.engine.kernels import Upsample2xStep

        shape = (n, 5, 6, 7)
        step = _laid_out(lambda layout: Upsample2xStep(0, 1, shape, True, layout))
        for _ in range(2):
            x = _adversarial(rng, shape)
            g = _adversarial(rng, step.out_shape)
            t = Tensor(x, requires_grad=True)
            out = t.upsample2x()
            out.backward(g)
            env = [x, None]
            step.forward(env)
            assert env[1].tobytes() == out.data.tobytes()
            gbufs = [np.zeros(shape, np.float32), g]
            step.backward(env, gbufs)
            # The engine adds into a +0.0 buffer, autograd installs the
            # first gradient as is: compare after the same ``0.0 +``.
            assert gbufs[0].tobytes() == (np.float32(0.0) + t.grad).tobytes()

    def test_window_sum_order(self, rng):
        """``sum_2x2_windows`` is ``((g00 + g01) + 0.0) + (g10 + g11)``
        in float32 — the order NumPy's two-axis reduce used when it was
        ``upsample2x``'s backward, whose ``+0.0`` start turns a window
        of four ``-0.0`` into ``+0.0``."""
        from repro.autograd.tensor import sum_2x2_windows

        g = _adversarial(rng, (2, 3, 4, 6))
        g[0, 0, :2, :2] = -0.0
        got = sum_2x2_windows(g)
        out, tmp = np.empty_like(got), np.empty_like(got)
        assert sum_2x2_windows(g, out, tmp) is out
        assert out.tobytes() == got.tobytes()
        for n, c, y, x in np.ndindex(got.shape):
            q = g[n, c, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
            want = ((q[0, 0] + q[0, 1]) + np.float32(0.0)) + (q[1, 0] + q[1, 1])
            assert got[n, c, y, x].tobytes() == want.tobytes()
        assert not np.signbit(got[0, 0, 0, 0])
