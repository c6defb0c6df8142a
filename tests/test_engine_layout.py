"""A compiled plan lays out its own memory (:class:`repro.engine.kernels.Layout`):
what may share bytes with what, and how many bytes a plan holds."""

import itertools

import numpy as np
import pytest

from repro.engine import plan_cache
from repro.engine.compiler import CompiledPlan, build_steps, trace_forward
from repro.engine.kernels import _ALIGN, OUT, Layout, _aligned
from repro.models.student import StudentNet, partial_freeze
from repro.models.teacher import TeacherNet

STUDENT_KINDS = ("forward", "front", "back", "train_back", "train_full")


def _plan(model, kind, n, hw):
    """``model``'s own ``kind`` plan for a batch of ``n`` frames, and an
    input for it."""
    x = np.random.default_rng(n).random((n, 3, *hw)).astype(np.float32)
    inputs = (x,)
    if kind in ("back", "train_back"):
        inputs = tuple(np.array(f) for f in model.run_plan("front", x))
    plan = plan_cache.compile_transient(model, kind, tuple(a.shape for a in inputs))
    assert plan is not None
    return plan, inputs


def _cases():
    for n in (1, 2):
        for kind in STUDENT_KINDS:
            yield pytest.param("student", kind, n, id=f"student-{kind}-n{n}")
        yield pytest.param("teacher", "forward", n, id=f"teacher-forward-n{n}")


def _model(name):
    if name == "teacher":
        return TeacherNet(width=8, seed=0)
    student = StudentNet(width=0.25, seed=0)
    partial_freeze(student)
    return student


def _reads(step):
    if hasattr(step, "in_slots"):
        return list(step.in_slots)
    if hasattr(step, "a_slot"):
        return [step.a_slot, step.b_slot]
    return [step.in_slot]


def _forward(plan):
    return getattr(plan, "_plan", plan)


def _spans(plan):
    """Step -> ``(first, last)``: the steps over which its output must
    hold its value, derived here from the step list alone.  A train
    plan's adjoint reads every activation, so they all live throughout."""
    fwd = _forward(plan)
    steps, end = fwd._steps, len(fwd._steps)
    if fwd is not plan:
        return {step: (0, end) for step in steps}
    last = {}
    for i, step in enumerate(steps):
        for slot in _reads(step):
            last[slot] = i
    return {
        step: (0, end) if step.out_slot in fwd._output_slots
        else (i, last.get(step.out_slot, i))
        for i, step in enumerate(steps)
    }


def _buffers(plan):
    """``(owner, role, array)`` for every buffer the plan's layout placed."""
    return [
        (owner, role, owner[key] if isinstance(key, int) else getattr(owner, key))
        for owner, key, _, _, role in plan.layout.requests
    ]


def _owned_bytes(plan):
    """Bytes of the distinct base arrays every step, gradient buffer and
    loss scratch of ``plan`` holds — whatever allocated them."""
    holders = list(_forward(plan)._steps)
    if hasattr(plan, "_gbufs"):
        holders.append({"gbufs": plan._gbufs, "loss": plan._loss_bufs})
    bases = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for holder in holders:
        visit(list((holder if isinstance(holder, dict) else vars(holder)).values()))
    return sum(b.nbytes for b in bases.values())


class TestNothingLiveIsShared:
    @pytest.mark.parametrize("name,kind,n", list(_cases()))
    def test_no_overlapping_lifetimes_share_bytes(self, name, kind, n):
        model = _model(name)
        plan, inputs = _plan(model, kind, n, (32, 48))
        spans = _spans(plan)
        buffers = _buffers(plan)
        outs = [(owner, a) for owner, role, a in buffers if role == OUT]
        assert len(outs) == len(spans)
        for (s, a), (t, b) in itertools.combinations(outs, 2):
            (f1, l1), (f2, l2) = spans[s], spans[t]
            if f1 <= l2 and f2 <= l1:
                assert not np.shares_memory(a, b), (type(s), type(t))
        # Scratch shares bytes only within its role; a private buffer
        # and a train plan's activations with nothing at all.
        others = [(role, a) for _, role, a in buffers if role != OUT]
        for (r1, a), (r2, b) in itertools.combinations(others, 2):
            if r1 is None or r1 != r2:
                assert not np.shares_memory(a, b), (r1, r2)
        for role, a in others:
            for _, b in outs:
                assert not np.shares_memory(a, b), role

    @pytest.mark.parametrize("name,kind,n", list(_cases()))
    def test_outputs_alias_nothing_and_no_step_its_inputs(self, name, kind, n):
        model = _model(name)
        plan, inputs = _plan(model, kind, n, (32, 48))
        fwd = _forward(plan)
        out_of = {step.out_slot: a for step, role, a in _buffers(plan) if role == OUT}
        for step in fwd._steps:
            for slot in _reads(step):
                if slot in out_of:
                    assert not np.shares_memory(out_of[step.out_slot], out_of[slot])
        for slot in fwd._output_slots:
            for owner, _, a in _buffers(plan):
                if a is not out_of[slot]:
                    assert not np.shares_memory(out_of[slot], a), type(owner)

    @pytest.mark.parametrize("kind", ["forward", "front", "back"])
    def test_shared_bytes_change_no_value(self, kind):
        """Two frames, two runs each, against the same plan with every
        activation private."""
        model = _model("student")
        plan, inputs = _plan(model, kind, 2, (32, 48))
        records, ins, outs = trace_forward(model._engine_fns()[kind], inputs)
        layout = Layout()
        private = CompiledPlan(
            *build_steps(records, ins, outs, training=False, layout=layout), layout
        )
        layout.live = None
        layout.allocate()
        want = [w.tobytes() for w in private.run(*inputs)]
        for _ in range(2):
            assert [g.tobytes() for g in plan.run(*inputs)] == want


class TestPlanBytes:
    """At 64x96 an eval plan holds its liveness peak, one buffer per
    scratch role and its padded input images — and nothing else."""

    @staticmethod
    def _bound(plan):
        spans = _spans(plan)
        out_bytes, roles, private = {}, {}, 0
        for owner, key, shape, dtype, role in plan.layout.requests:
            nbytes = _aligned(int(np.prod(shape)) * dtype.itemsize)
            if role == OUT:
                out_bytes[owner] = nbytes
            elif role is None:
                assert key == "_xp", key  # only the padded images are private
                private += nbytes
            else:
                roles[role] = max(roles.get(role, 0), nbytes)
        peak = max(
            sum(b for step, b in out_bytes.items() if spans[step][0] <= t <= spans[step][1])
            for t in range(len(plan._steps) + 1)
        )
        return peak + sum(roles.values()) + private + _ALIGN

    @pytest.mark.parametrize(
        "name,kind,limit",
        [
            ("teacher", "forward", 18e6),
            ("student", "forward", 5e6),
            ("student", "front", None),
            ("student", "back", None),
        ],
    )
    def test_owned_bytes_within_the_bound(self, name, kind, limit):
        model = TeacherNet(width=48, seed=0) if name == "teacher" else StudentNet(width=0.5, seed=0)
        plan, _ = _plan(model, kind, 1, (64, 96))
        owned = _owned_bytes(plan)
        assert owned == plan.layout.memory.nbytes  # one allocation
        assert owned <= self._bound(plan)
        if limit is not None:
            assert owned <= limit
