"""Compiled train step: fused forward + generated adjoint for Algorithm 1.

Partial distillation freezes the student's front-end, so each of the
up-to-``MAX_UPDATES`` optimisation steps per key frame only needs
forward + backward over the trainable back-end — the forward-pass twin
of the paper's ``PartialBackward``.  Full distillation compiles the
whole forward the same way (gradient flow into the frame input is
skipped because inputs are roots, exactly as ``requires_grad=False``
does in autograd).

The forward is a :class:`~repro.engine.compiler.CompiledPlan` traced
once per geometry.  The backward is no longer a hand-maintained
reversed walk over the forward steps: :mod:`repro.engine.adjoint`
*generates* it from the recorded trace as a second plan — explicit vjp
steps scheduled in autograd's exact reversed depth-first postorder.
That schedule is what makes the step **bitwise** equal to the
define-by-run loop in both modes: each vjp accumulates into its
gradient buffers in its closure's own operation order, and the
cross-closure order (which decides how three-consumer skip tensors sum
their float32 contributions) is simulated from
:meth:`repro.autograd.tensor.Tensor.backward` rather than approximated.
The parity tests in ``tests/test_engine_training.py`` and the property
tests in ``tests/test_engine_adjoint.py`` assert this end to end, so the
trainer steps through it in both modes and pre-training in full mode.

The step writes gradients straight into ``Parameter.grad`` (scratch
views — no per-step gradient allocation), so the existing optimizers
work unchanged.  The caller owns ``optimizer.zero_grad()`` /
``optimizer.step()``, exactly as with the autograd loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.adjoint import generate_adjoint, leaf_parameters
from repro.engine.compiler import CompiledPlan, build_steps, trace_forward
from repro.engine.kernels import Layout, UntraceableError


class CrossEntropyHead:
    """LVS-weighted softmax cross-entropy, mirrored from
    :func:`repro.autograd.functional.cross_entropy` op for op."""

    def __init__(self, logits_shape: Tuple[int, ...], layout: Layout) -> None:
        n, c, h, w = logits_shape
        self.shape = logits_shape
        self.hw = h * w
        self._idx: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._norm = 1.0
        layout.add(self)

    def _buffers(self):
        n, c, _, _ = self.shape
        for key in ("_shifted", "_exp", "_softmax"):
            yield key, self.shape, np.float32, None
        yield "_gflat", (n, c, self.hw), np.float32, None
        yield "_unit_weights", (n, self.hw), np.float32, None

    def _bind(self) -> None:
        # The unweighted case uses the same unit map every step; build
        # it (and its sum) once instead of allocating per forward.
        self._unit_weights.fill(1.0)
        self._unit_norm = float(self._unit_weights.sum())

    def forward(
        self, logits: np.ndarray, target: np.ndarray, weight_map: Optional[np.ndarray]
    ) -> float:
        n, c, h, w = self.shape
        target = np.asarray(target)
        if target.shape != (n, h, w):
            raise ValueError(f"target shape {target.shape} != {(n, h, w)}")
        m = logits.max(axis=1, keepdims=True)
        np.subtract(logits, m, out=self._shifted)
        np.exp(self._shifted, out=self._exp)
        denom = self._exp.sum(axis=1, keepdims=True)
        np.divide(self._exp, denom, out=self._softmax)
        logp = self._shifted
        logp -= np.log(denom)
        flat = logp.reshape(n, c, self.hw)
        idx = target.reshape(n, self.hw)
        gathered = np.take_along_axis(flat, idx[:, None, :], axis=1)[:, 0, :]
        if weight_map is None:
            weights = self._unit_weights
            norm = self._unit_norm
        else:
            weights = np.asarray(weight_map, dtype=np.float32).reshape(n, self.hw)
            norm = float(weights.sum())
        loss = np.asarray(-(gathered * weights).sum() / norm, dtype=np.float32)
        self._idx, self._weights, self._norm = idx, weights, norm
        return float(loss)

    def backward(self, gout: np.ndarray) -> None:
        """Write dloss/dlogits into ``gout`` (the logits grad buffer)."""
        n, c, h, w = self.shape
        gflat = self._gflat
        gflat.fill(0.0)
        np.put_along_axis(
            gflat, self._idx[:, None, :], (-self._weights / self._norm)[:, None, :], axis=1
        )
        g4 = gflat.reshape(n, c, h, w)
        s = g4.sum(axis=1, keepdims=True)
        np.multiply(self._softmax, s, out=gout)
        np.subtract(g4, gout, out=gout)


class CompiledTrainStep:
    """One fused optimisation step: forward plan, loss, adjoint plan.

    ``run(inputs, target, weight_map)`` executes the compiled forward on
    the (cached) input features, evaluates the weighted cross-entropy,
    and runs the generated adjoint plan, installing gradients on the
    trainable parameters.  Returns the loss value.

    Like the forward plan it composes, a step belongs to an
    architecture rather than to an instance: :meth:`bind` hands it to
    another instance's layers (see :mod:`repro.engine.plan_cache`).
    """

    def __init__(self, fn: Callable, example_inputs: Sequence[np.ndarray]) -> None:
        records, inputs, outputs = trace_forward(fn, example_inputs)
        if len(outputs) != 1:
            raise UntraceableError("train step expects a single logits output")
        #: The step's memory: forward activations and kernel scratch,
        #: gradient buffers and the loss head, in one allocation.
        self.layout = layout = Layout()
        steps, shapes, input_slots, output_slots, step_of_record = build_steps(
            records, inputs, outputs, training=True, layout=layout,
            with_lowering=True,
        )
        self._logits_slot = output_slots[0]
        if self._logits_slot in input_slots:
            raise UntraceableError("train step traced an identity forward")
        # Compose the forward executor instead of re-implementing it:
        # the train step is a CompiledPlan plus gradient buffers and
        # the loss head.
        self._plan = CompiledPlan(steps, shapes, input_slots, output_slots, layout)
        self._steps = steps
        # Gradient buffers exist only for produced slots; roots (cached
        # front-end features or the raw frame) never need gradients —
        # the freeze boundary in array form.  The adjoint sees, and
        # finish_step zero-fills, only those whose record requires a
        # gradient under the current freeze state (``_live_gbufs``).
        self._gbufs: List[Optional[np.ndarray]] = [None] * len(shapes)
        for step in steps:
            layout.take(self._gbufs, step.out_slot, shapes[step.out_slot])
        self._loss = CrossEntropyHead(shapes[self._logits_slot], layout)
        layout.allocate()
        self.num_kernels = len(steps)
        # Everything the adjoint generator needs to (re)build a schedule
        # when the freeze boundary moves.  Record/tensor ids are only
        # ever compared against each other in these structures, so they
        # stay valid after the traced tensors are collected.
        self._records = records
        self._input_ids = tuple(id(t) for t in inputs)
        self._logits_id = id(outputs[0])
        self._step_of_record = step_of_record
        self._slot_shapes = shapes
        # The trace records reach layers too (the adjoint generator
        # reads their parameters' live freeze flags), so a hand-over
        # re-points them along with the kernels.
        self.sites: list = self._plan.sites + [
            rec for rec in records if rec.kind == "module"
        ]
        self.owner = None
        self._leaf_params = leaf_parameters(records)
        self._adjoint_sig: Optional[tuple] = None
        #: The generated backward pass, a CompiledPlan of vjp steps
        #: (kind "adjoint") sharing the forward plan's environment.
        self.adjoint: Optional[CompiledPlan] = None
        self._build_adjoint()
        #: True when forward state (activations, saved columns) is
        #: valid and awaiting finish_step().
        self.has_pending_forward = False

    def bind(self, modules: Sequence) -> None:
        """Hand the step over to ``modules`` (one layer per site, in
        :attr:`sites` order).

        Nothing of the previous owner may survive: a forward it left
        pending is dropped, and the adjoint is brought in line with the
        new owner's freeze state *here*, not lazily in
        :meth:`finish_step` — a partial-mode student and a full-mode one
        share this step, and callers may inspect :attr:`adjoint` before
        stepping.
        """
        for site, module in zip(self.sites, modules):
            site.module = module
        self._leaf_params = leaf_parameters(self._records)
        self.has_pending_forward = False
        if self._adjoint_sig != self._requires_sig():
            self._build_adjoint()

    def release(self) -> None:
        """Drop every layer and parameter reference (see
        :meth:`CompiledPlan.release`)."""
        for site in self.sites:
            site.module = None
        self._leaf_params = []

    def _requires_sig(self) -> tuple:
        return tuple(p.requires_grad for p in self._leaf_params)

    def _build_adjoint(self) -> None:
        """Generate the adjoint plan for the current freeze boundary.

        Autograd's traversal prunes frozen subtrees via live
        ``requires_grad`` flags, so the schedule is a function of the
        freeze state: cache it under that signature and regenerate only
        when a parameter is frozen or unfrozen between steps.  Which
        gradient buffers are live depends on the same flags, so that
        table is rebuilt with it.
        """
        self.adjoint, self._live_gbufs = generate_adjoint(
            self._records,
            self._input_ids,
            self._logits_id,
            self._steps,
            self._step_of_record,
            self._slot_shapes,
            self._plan._env,
            self._gbufs,
            self._loss,
            self._logits_slot,
        )
        self._adjoint_sig = self._requires_sig()

    def forward_only(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """Run the compiled forward; returns the logits buffer.

        A forward changes nothing on the module, so the same one can
        score the post-update metric and, if :meth:`finish_step`
        follows, serve as the next step's forward.
        """
        (logits,) = self._plan.run(*inputs)
        self.has_pending_forward = True
        return logits

    def finish_step(
        self, target: np.ndarray, weight_map: Optional[np.ndarray]
    ) -> float:
        """Finish the pending forward as a training step: loss, and
        gradients (installed on the trainable parameters)."""
        if not self.has_pending_forward:
            raise RuntimeError("finish_step() without a pending forward")
        env = self._plan._env
        loss = self._loss.forward(env[self._logits_slot], target, weight_map)
        if self._adjoint_sig != self._requires_sig():
            self._build_adjoint()
        for g in self._live_gbufs:
            if g is not None:
                g.fill(0.0)
        self.adjoint.run()
        self.has_pending_forward = False
        return loss

    def run(
        self,
        inputs: Sequence[np.ndarray],
        target: np.ndarray,
        weight_map: Optional[np.ndarray],
    ) -> float:
        self.forward_only(inputs)
        return self.finish_step(target, weight_map)
