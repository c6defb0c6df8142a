"""Trace a model's forward pass and compile it into a kernel plan.

``compile_plan(fn, example_inputs)`` runs ``fn`` once under a trace
(:mod:`repro.engine.tracer`) and lowers the recorded op stream into
:mod:`repro.engine.kernels` steps:

* every traced tensor gets a *slot* in a flat environment table;
* ``Conv2d``/``add`` followed by a single-consumer ``relu`` are fused;
* unknown ops, untraced producers, or unsupported geometries raise
  :class:`~repro.engine.kernels.UntraceableError` — callers fall back
  to the autograd path, so compilation failures are never fatal.

A :class:`CompiledPlan` is geometry-specific and weight-free: kernels
read parameters and buffers through a ``step.module`` reference at
execution time and capture nothing else that belongs to one model
instance.  That is what lets :mod:`repro.engine.plan_cache` keep *one*
plan per (architecture, kind, geometry) for the whole process and hand
it from instance to instance with :meth:`CompiledPlan.bind`.

Buffer lifetime: a plan validates input shapes and returns output
buffers that remain valid **until any plan of the same cache key runs
in this process** — the same instance's next call, or any other
same-architecture instance's.  The same holds for the gradient views a
train step installs on ``Parameter.grad``.  Callers that need
persistence copy or reduce at once (``predict`` takes an argmax, the
distillation trainer copies its cached front-end features once per key
frame, the optimizer consumes gradients before the next step).  The
runtime is non-threaded — no two sessions ever execute a plan at once —
so "at once" is all a caller has to do.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

from repro.autograd.tensor import Tensor, no_grad
from repro.engine import tracer
from repro.engine.kernels import (
    AddStep,
    AvgPool2dStep,
    BatchNormStep,
    ConcatStep,
    ConvStep,
    ReluStep,
    SoftmaxStep,
    UntraceableError,
    Upsample2xStep,
)
from repro.nn.layers import BatchNorm2d, Conv2d


def trace_forward(
    fn: Callable, example_inputs: Sequence[np.ndarray]
) -> Tuple[list, Tuple[Tensor, ...], Tuple[Tensor, ...]]:
    """Run ``fn`` once on example inputs, recording its op stream."""
    inputs = tuple(
        Tensor(np.ascontiguousarray(a, dtype=np.float32)) for a in example_inputs
    )
    with no_grad(), tracer.capture() as session:
        result = fn(*inputs)
    outputs = tuple(result) if isinstance(result, tuple) else (result,)
    if not all(isinstance(t, Tensor) for t in outputs):
        raise UntraceableError("traced callable must return Tensor(s)")
    return session.records, inputs, outputs


def build_steps(
    records: list,
    inputs: Tuple[Tensor, ...],
    outputs: Tuple[Tensor, ...],
    training: bool,
    with_lowering: bool = False,
) -> tuple:
    """Lower trace records to kernel steps.

    Returns ``(steps, slot_shapes, input_slots, output_slots)``; with
    ``with_lowering`` a fifth element is appended: the record-to-step
    index map (``step_of_record[i]`` is the step lowered from record
    ``i``, with a fused relu record mapping to its producer's fused
    step).  The adjoint generator replays autograd's traversal over the
    *records* and needs this map to land on the lowered kernels.
    """
    slot_of = {id(t): i for i, t in enumerate(inputs)}
    shapes: List[Tuple[int, ...]] = [tuple(t.shape) for t in inputs]

    # Consumer bookkeeping for the fusion pass: a producer fuses with a
    # downstream relu only when that relu is its *sole* consumer and the
    # producer's raw value is not itself a plan output.
    consumer_count: dict = {}
    sole_consumer: dict = {}
    for idx, rec in enumerate(records):
        for tid in rec.input_ids:
            consumer_count[tid] = consumer_count.get(tid, 0) + 1
            sole_consumer[tid] = idx
    output_ids = {id(t) for t in outputs}

    def fusable_relu(rec) -> Optional[int]:
        tid = rec.output_id
        if tid in output_ids or consumer_count.get(tid, 0) != 1:
            return None
        cidx = sole_consumer[tid]
        consumer = records[cidx]
        if consumer.kind == "relu":
            return cidx
        return None

    steps = []
    skip: set = set()
    step_of_record: List[int] = [-1] * len(records)
    for idx, rec in enumerate(records):
        if idx in skip:
            continue
        in_slots = []
        for tid in rec.input_ids:
            if tid not in slot_of:
                raise UntraceableError(
                    f"op {rec.kind!r} consumes a tensor produced by an untraced op"
                )
            in_slots.append(slot_of[tid])

        fuse_relu = False
        out_id = rec.output_id
        if rec.kind in ("module", "add"):
            relu_idx = fusable_relu(rec)
            if relu_idx is not None and (
                rec.kind == "add" or isinstance(rec.module, Conv2d)
            ):
                fuse_relu = True
                skip.add(relu_idx)
                step_of_record[relu_idx] = len(steps)
                out_id = records[relu_idx].output_id

        if rec.kind == "module":
            module = rec.module
            if isinstance(module, Conv2d):
                step = ConvStep(
                    module, in_slots[0], len(shapes), shapes[in_slots[0]],
                    fuse_relu, training,
                )
            elif isinstance(module, BatchNorm2d):
                step = BatchNormStep(
                    module, in_slots[0], len(shapes), shapes[in_slots[0]], training,
                )
            else:
                raise UntraceableError(
                    f"no kernel for module type {type(module).__name__}"
                )
        elif rec.kind == "relu":
            step = ReluStep(in_slots[0], len(shapes), shapes[in_slots[0]], training)
        elif rec.kind == "add":
            if shapes[in_slots[0]] != shapes[in_slots[1]]:
                raise UntraceableError("broadcasting add is not compilable")
            step = AddStep(
                in_slots[0], in_slots[1], len(shapes), shapes[in_slots[0]],
                fuse_relu, training,
            )
        elif rec.kind == "concat":
            if rec.meta.get("axis", 1) != 1:
                raise UntraceableError("only channel concat is compilable")
            step = ConcatStep(
                in_slots, len(shapes), [shapes[s] for s in in_slots], training
            )
        elif rec.kind == "upsample2x":
            step = Upsample2xStep(in_slots[0], len(shapes), shapes[in_slots[0]], training)
        elif rec.kind == "avg_pool2d":
            step = AvgPool2dStep(
                in_slots[0], len(shapes), shapes[in_slots[0]],
                rec.meta.get("k", 2), training,
            )
        elif rec.kind == "softmax":
            step = SoftmaxStep(
                in_slots[0], len(shapes), shapes[in_slots[0]],
                rec.meta.get("axis", 1), training,
            )
        else:
            raise UntraceableError(f"no kernel for traced op {rec.kind!r}")

        slot_of[out_id] = len(shapes)
        shapes.append(tuple(step.out_shape))
        step_of_record[idx] = len(steps)
        steps.append(step)

    output_slots = []
    for t in outputs:
        if id(t) not in slot_of:
            raise UntraceableError("a plan output was produced by an untraced op")
        output_slots.append(slot_of[id(t)])
    input_slots = list(range(len(inputs)))
    if with_lowering:
        return steps, shapes, input_slots, output_slots, step_of_record
    return steps, shapes, input_slots, output_slots


class CompiledPlan:
    """A geometry-specialised, zero-Tensor forward executor.

    Kernels read module parameters at execution time, so weight updates
    never stale a plan, and :meth:`bind` can point the same plan at
    another instance of the same architecture.
    """

    def __init__(
        self,
        steps: list,
        slot_shapes: List[Tuple[int, ...]],
        input_slots: List[int],
        output_slots: List[int],
    ) -> None:
        self._steps = steps
        self._env: List[Optional[np.ndarray]] = [None] * len(slot_shapes)
        self._input_slots = input_slots
        self._input_shapes = [slot_shapes[s] for s in input_slots]
        self._output_slots = output_slots
        self.num_kernels = len(steps)
        #: Everything holding a layer reference (``site.module``): the
        #: conv / batch-norm kernels.  :meth:`bind` re-points them.
        self.sites: list = [s for s in steps if hasattr(s, "module")]
        #: Token of the :class:`~repro.engine.plan_cache.PlanHandle`
        #: the sites point at; ``None`` while they still point at the
        #: traced instance (or at nothing, after :meth:`release`).
        self.owner = None

    def bind(self, modules: Sequence) -> None:
        """Point every site at ``modules`` (one layer per site, in
        :attr:`sites` order) — a hand-over to another instance."""
        for site, module in zip(self.sites, modules):
            site.module = module

    def release(self) -> None:
        """Drop every layer reference, so a plan whose last user is
        gone keeps no model alive."""
        for site in self.sites:
            site.module = None

    def run(self, *inputs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Execute the plan; returned buffers are valid until the next
        run of this plan, by anyone (see the module docstring)."""
        if len(inputs) != len(self._input_slots):
            raise ValueError(
                f"plan takes {len(self._input_slots)} inputs, got {len(inputs)}"
            )
        env = self._env
        for slot, shape, value in zip(self._input_slots, self._input_shapes, inputs):
            arr = np.ascontiguousarray(value, dtype=np.float32)
            if arr.shape != shape:
                raise ValueError(f"plan compiled for input {shape}, got {arr.shape}")
            env[slot] = arr
        if obs.engine_timing():
            # Opt-in per-step timing (REPRO_OBS=...,engine): one
            # histogram per kernel class — where a plan's milliseconds
            # go.  A separate loop so the default path stays branch-free
            # per step.
            for step in self._steps:
                t0 = time.perf_counter()
                step.forward(env)
                obs.histogram(
                    f"engine.step.{type(step).__name__}"
                ).observe(time.perf_counter() - t0)
        else:
            for step in self._steps:
                step.forward(env)
        return tuple(env[s] for s in self._output_slots)


def compile_plan(
    fn: Callable, example_inputs: Sequence[np.ndarray]
) -> CompiledPlan:
    """Compile ``fn`` (a model forward) for the example inputs' geometry.

    This is the one place a trace happens: :mod:`repro.engine.plan_cache`
    calls it (through this module, at call time) once per structural
    key, and every later instance of the architecture rebinds the
    result instead of tracing again.  Called directly, the returned
    plan stays bound to the layers ``fn`` ran through.
    """
    records, inputs, outputs = trace_forward(fn, example_inputs)
    steps, shapes, input_slots, output_slots = build_steps(
        records, inputs, outputs, training=False
    )
    return CompiledPlan(steps, shapes, input_slots, output_slots)
