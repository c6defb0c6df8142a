"""Plan-level adjoint generation: the backward pass as an engine plan.

``generate_adjoint`` walks a recorded forward trace *backwards* and
emits the gradient computation as a first-class
:class:`~repro.engine.compiler.CompiledPlan`: one vjp step per forward
kernel, executing against the forward plan's activation environment and
a preallocated gradient-buffer table.  The train step therefore rides
the same machinery end to end — same step protocol, same cache, same
opt-in per-step timing (``engine.step.ConvVjpStep`` next to
``engine.step.ConvStep`` in the obs tables).

The load-bearing part is the *schedule*.  Autograd
(:meth:`repro.autograd.tensor.Tensor.backward`) runs closures in
reversed depth-first postorder, and float32 summation is not
associative: a tensor with three or more gradient consumers — the
Figure-3b skip tensors under full distillation — receives its
contributions in that DFS order, and any other order changes the last
ulp, which chaotic online distillation amplifies into a different
trajectory.  Rather than approximate that order, this module simulates
``Tensor.backward()``'s traversal *exactly* on a mirror of the trace:

* every :class:`~repro.engine.tracer.OpRecord` is one graph node, with
  parents in the precise ``_parents`` order of its autograd twin
  (conv: ``(x, weight[, bias])``; batch-norm: ``(x, weight, bias)``;
  tensor ops: the recorded inputs in order);
* :class:`~repro.nn.module.Parameter` leaves join the mirror with their
  *live* ``requires_grad`` flags, so freeze boundaries shape the
  traversal exactly as they shape autograd's (a frozen subtree
  contributes no nodes);
* the same explicit ``(node, processed)`` stack walk produces the same
  postorder, and the vjp steps are emitted in its reversal.

Because each vjp step accumulates into its input-gradient buffers in
the same within-closure order as its autograd twin, and consumer steps
execute in autograd's cross-closure order, every multi-consumer
accumulation is performed term for term in the same sequence — the
generated adjoint is *bitwise* equal to interpreted autograd, not
merely float32-close.  ``tests/test_engine_adjoint.py`` pins both the
property and the schedule itself.

Fused steps (conv+relu, add+relu) cover two records with one kernel.
In reversed postorder the relu node is immediately followed by its
producer (the producer's whole subtree — parameter leaves included —
completes between the two stack entries, so nothing can interleave);
the fused vjp therefore executes once, at the relu's schedule position,
and remains exactly faithful.  :func:`generate_adjoint` verifies this
adjacency and raises :class:`UntraceableError` rather than emit a plan
whose ordering it cannot prove.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.autograd.functional import cross_entropy_vjp
from repro.engine.compiler import CompiledPlan
from repro.engine.kernels import (
    AddStep,
    BatchNormStep,
    ConcatStep,
    ConvStep,
    ReluStep,
    UntraceableError,
    Upsample2xStep,
)
from repro.nn.layers import BatchNorm2d, Conv2d


class _VjpStep:
    """A backward kernel wearing the forward-step protocol.

    ``forward(env)`` (the :class:`CompiledPlan` execution hook) runs the
    wrapped kernel's ``backward`` against the *forward* plan's
    activation environment and the shared gradient-buffer table — the
    adjoint plan's own env is unused, since every saved activation lives
    on the forward step.  One concrete subclass per kernel class keeps
    the obs histogram names (``engine.step.<type>``) split per kernel,
    so forward and backward time can be read side by side.
    """

    __slots__ = ("_inner", "_env", "_gbufs")

    def __init__(self, inner, env, gbufs) -> None:
        self._inner = inner
        self._env = env
        self._gbufs = gbufs

    def forward(self, env) -> None:
        self._inner.backward(self._env, self._gbufs)


class ConvVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.ConvStep`."""


class BatchNormVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.BatchNormStep`."""


class ReluVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.ReluStep`."""


class AddVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.AddStep`."""


class ConcatVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.ConcatStep`."""


class Upsample2xVjpStep(_VjpStep):
    """Adjoint of :class:`~repro.engine.kernels.Upsample2xStep`."""


class CrossEntropyVjpStep:
    """Seed gradient: the LVS-weighted loss's vjp
    (:func:`repro.autograd.functional.cross_entropy_vjp`) into the
    logits' gradient buffer ``gout``, reading the softmax and ``saved``
    state its train step's last loss forward left.

    It is always the first step of an adjoint plan, exactly as the loss
    node leads autograd's reversed postorder.
    """

    __slots__ = ("softmax", "seed", "gout", "saved")

    def __init__(self, softmax, seed, gout) -> None:
        self.softmax, self.seed, self.gout = softmax, seed, gout
        self.saved: Optional[tuple] = None

    def forward(self, env) -> None:
        cross_entropy_vjp(1.0, self.softmax, self.saved, self.seed, self.gout)


_VJP_OF = {
    ConvStep: ConvVjpStep,
    BatchNormStep: BatchNormVjpStep,
    ReluStep: ReluVjpStep,
    AddStep: AddVjpStep,
    ConcatStep: ConcatVjpStep,
    Upsample2xStep: Upsample2xVjpStep,
}

# Mirror-node keys: ("rec", record_index) | ("leaf", id(param)).
_Key = Tuple[str, int]


def _record_parents(rec) -> List[Tuple[str, object]]:
    """One record's parents in its autograd twin's ``_parents`` order.

    Entries are ``("t", tensor_id)`` for tensor parents and
    ``("p", param)`` for Parameter leaves.  Orders mirror the closures:
    ``conv2d`` builds ``(x, weight[, bias])``, ``BatchNorm2d.forward``
    builds ``(x, weight, bias)``, tensor ops record their operands in
    ``_parents`` order already.
    """
    if rec.kind == "module":
        module = rec.module
        if isinstance(module, Conv2d):
            parents = [("t", rec.input_ids[0]), ("p", module.weight)]
            if module.bias is not None:
                parents.append(("p", module.bias))
            return parents
        if isinstance(module, BatchNorm2d):
            return [
                ("t", rec.input_ids[0]),
                ("p", module.weight),
                ("p", module.bias),
            ]
        raise UntraceableError(
            f"no adjoint for module type {type(module).__name__}"
        )
    return [("t", tid) for tid in rec.input_ids]


def leaf_parameters(records) -> List[object]:
    """Every Parameter leaf of the traced graph, in record order.

    The tuple of their ``requires_grad`` flags is the adjoint schedule's
    cache key: autograd's traversal depends on live freeze state, so a
    schedule built under one freeze boundary must be rebuilt when the
    boundary moves (see ``CompiledTrainStep.finish_step``).
    """
    params: List[object] = []
    seen: set = set()
    for rec in records:
        for tag, value in _record_parents(rec):
            if tag == "p" and id(value) not in seen:
                seen.add(id(value))
                params.append(value)
    return params


def adjoint_schedule(
    records,
    input_ids: Sequence[int],
    logits_id: int,
    step_of_record: Sequence[int],
) -> Tuple[List[int], List[bool]]:
    """Step indices in autograd's exact backward execution order, and
    each record's ``requires_grad``.

    Simulates :meth:`Tensor.backward`'s explicit-stack DFS on the
    record mirror, rooted at the logits producer (the loss node above
    it is :class:`CrossEntropyVjpStep`), and
    maps the reversed postorder onto lowered steps.  A fused step is
    scheduled once, at its relu record's position.
    """
    producer: Dict[int, int] = {rec.output_id: i for i, rec in enumerate(records)}
    roots = set(input_ids)

    # Per-record requires_grad, bottom-up in trace (= topological) order,
    # exactly as Tensor._make computes it: any requiring parent.
    requires: List[bool] = []
    parents: List[List[Tuple[_Key, bool]]] = []
    for rec in records:
        rec_parents: List[Tuple[_Key, bool]] = []
        for tag, value in _record_parents(rec):
            if tag == "p":
                rec_parents.append((("leaf", id(value)), value.requires_grad))
            elif value in roots:
                # Plan inputs are gradient roots (requires_grad=False
                # frame/feature tensors) — never pushed, like autograd.
                rec_parents.append((("rec", -1), False))
            else:
                pidx = producer.get(value)
                if pidx is None:
                    raise UntraceableError(
                        f"op {rec.kind!r} consumes a tensor produced by an untraced op"
                    )
                rec_parents.append((("rec", pidx), requires[pidx]))
        parents.append(rec_parents)
        requires.append(any(req for _, req in rec_parents))

    root_idx = producer.get(logits_id)
    if root_idx is None:
        raise UntraceableError("adjoint root was produced by an untraced op")
    if not requires[root_idx]:
        # Nothing trainable reaches the loss: autograd would have no
        # closures to run, so the adjoint is empty.
        return [], requires

    # Verbatim Tensor.backward() traversal on the mirror keys.
    topo: List[_Key] = []
    visited: set = set()
    stack: List[Tuple[_Key, bool]] = [(("rec", root_idx), False)]
    while stack:
        key, processed = stack.pop()
        if processed:
            topo.append(key)
            continue
        if key in visited:
            continue
        visited.add(key)
        stack.append((key, True))
        if key[0] == "rec":
            for pkey, preq in parents[key[1]]:
                if preq and pkey not in visited:
                    stack.append((pkey, False))

    order: List[int] = []
    scheduled: set = set()
    rec_positions: Dict[int, int] = {}
    for key in reversed(topo):
        if key[0] != "rec":
            continue
        rec_positions[key[1]] = len(rec_positions)
        step_idx = step_of_record[key[1]]
        if step_idx in scheduled:
            continue
        scheduled.add(step_idx)
        order.append(step_idx)

    # A fused step must cover *adjacent* schedule positions (the relu,
    # then its producer) or executing both closures at the relu's slot
    # would reorder accumulations.  The DFS guarantees adjacency for
    # sole-consumer fusions; verify rather than assume.
    by_step: Dict[int, List[int]] = {}
    for rec_idx, pos in rec_positions.items():
        by_step.setdefault(step_of_record[rec_idx], []).append(pos)
    for step_idx, positions in by_step.items():
        if len(positions) > 1:
            lo, hi = min(positions), max(positions)
            if hi - lo != len(positions) - 1:
                raise UntraceableError(
                    "fused records are not adjacent in the adjoint schedule"
                )
    return order, requires


def generate_adjoint(
    records,
    input_ids: Sequence[int],
    logits_id: int,
    steps: Sequence[object],
    step_of_record: Sequence[int],
    slot_shapes: Sequence[Tuple[int, ...]],
    env: List,
    gbufs: List,
    loss_vjp: CrossEntropyVjpStep,
    logits_slot: int,
) -> Tuple[CompiledPlan, List]:
    """Compile the backward pass of a traced train step.

    Returns ``(plan, table)``.  ``plan`` is a :class:`CompiledPlan`
    (kind "adjoint") whose steps are the loss's vjp ``loss_vjp``
    followed by
    one vjp step per reached forward kernel, in autograd's exact
    execution order.  ``run()`` takes no inputs and produces no
    outputs: it reads saved activations from ``env`` (the forward
    plan's environment) and accumulates into ``table`` and the
    trainable parameters' ``.grad``.

    ``table`` is the gradient-buffer table the vjp steps see: ``gbufs``
    with ``None`` for every slot whose record requires no gradient (as
    for the roots), so no kernel computes an input gradient nothing
    reads — under partial distillation, SB5's batch norm and
    ``project`` skip the gradient of ``concat(s4, s2)``, whose inputs
    are both frozen roots.  The loss's vjp writes the logits slot's
    either way.  The caller zero-fills ``table`` and runs the loss's
    forward before each execution.
    """
    schedule, requires = adjoint_schedule(
        records, input_ids, logits_id, step_of_record
    )
    live = {logits_slot}
    live.update(
        steps[step_of_record[i]].out_slot for i, req in enumerate(requires) if req
    )
    table = [g if slot in live else None for slot, g in enumerate(gbufs)]
    vjp_steps: List[object] = [loss_vjp]
    for step_idx in schedule:
        step = steps[step_idx]
        try:
            vjp_cls = _VJP_OF[type(step)]
        except KeyError:
            raise UntraceableError(
                f"no adjoint for kernel {type(step).__name__}"
            ) from None
        vjp_steps.append(vjp_cls(step, env, table))
    return CompiledPlan(vjp_steps, list(slot_shapes), [], []), table
