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
define-by-run loop in both modes: each vjp step and its autograd
closure call the op's one vjp, and the cross-closure order (which
decides how three-consumer skip tensors sum their float32
contributions) is simulated from
:meth:`repro.autograd.tensor.Tensor.backward` rather than approximated.
The parity tests in ``tests/test_engine_training.py`` and the property
tests in ``tests/test_engine_adjoint.py`` assert this end to end, so the
trainer steps through it in both modes and pre-training in full mode.

The loss is :func:`repro.autograd.functional.cross_entropy_forward`
and its vjp seeds the adjoint, on scratch in the step's allocation.
The step writes gradients straight into ``Parameter.grad`` (scratch
views — no per-step gradient allocation), so the existing optimizers
work unchanged.  The caller owns ``optimizer.zero_grad()`` /
``optimizer.step()``, exactly as with the autograd loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autograd.functional import cross_entropy_forward
from repro.engine.adjoint import CrossEntropyVjpStep, generate_adjoint, leaf_parameters
from repro.engine.compiler import CompiledPlan, build_steps, trace_forward
from repro.engine.kernels import Layout, UntraceableError


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
        #: gradient buffers and the loss's scratch, in one allocation.
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
        # the loss.
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
        # The loss's scratch: shifted, exp, softmax (which its vjp
        # reads) and the vjp's seed.  A list owns them, as it does the
        # gradient buffers: a layout that held the step would be a cycle.
        self._loss_bufs: list = [None] * 4
        for i in range(4):
            layout.take(self._loss_bufs, i, shapes[self._logits_slot])
        layout.allocate()
        self._loss_vjp = CrossEntropyVjpStep(
            *self._loss_bufs[2:], self._gbufs[self._logits_slot]
        )
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
            self._loss_vjp,
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
        loss, self._loss_vjp.saved = cross_entropy_forward(
            env[self._logits_slot], target, weight_map, *self._loss_bufs[:3]
        )
        if self._adjoint_sig != self._requires_sig():
            self._build_adjoint()
        for g in self._live_gbufs:
            if g is not None:
                g.fill(0.0)
        self.adjoint.run()
        self.has_pending_forward = False
        return float(loss)

    def run(
        self,
        inputs: Sequence[np.ndarray],
        target: np.ndarray,
        weight_map: Optional[np.ndarray],
    ) -> float:
        self.forward_only(inputs)
        return self.finish_step(target, weight_map)
