"""Compiled inference engine for the ShadowTutor hot loop.

The autograd stack (:mod:`repro.autograd`) is define-by-run: every op
allocates a ``Tensor``, wires a backward closure, and re-derives its
geometry.  That is the right tool for training research code and the
wrong tool for the steady-state loop, where the same network runs over
thousands of frames at a fixed geometry.

This package compiles a model's forward pass **once per architecture
and geometry, per process** (:mod:`repro.engine.plan_cache` — every
instance of that architecture rebinds the one plan to its own layers)
into a flat list of fused NumPy kernels:

* ``Conv2d`` lowers to a per-tap gather + one GEMM into a buffer of
  the plan's memory, with bias add and ReLU fused in place;
  1x1/stride-1 convolutions skip the gather entirely.
* ``BatchNorm2d`` becomes a per-channel scale/shift kernel over the
  batch statistics, recomputed per call; the teacher's
  ``FrozenBatchNorm2d`` becomes one eval-only multiply-add.
* concat/upsample write into preallocated buffers through views.

Each plan's buffers are laid out once, at build time, in one
allocation (:class:`~repro.engine.kernels.Layout`): scratch is one
buffer per role, and an eval plan's activations share bytes wherever
their live intervals do not meet.

Executing a plan allocates **zero** ``Tensor`` objects.  Kernels read
parameters from the live modules at execution time, so
weight updates (optimizer steps, ``apply_state_dict``) are picked up
without recompilation.

:mod:`repro.engine.training` extends the same machinery to Algorithm
1's update step: the forward is a compiled plan, and
:mod:`repro.engine.adjoint` *generates* the backward from the recorded
trace as a second plan of vjp steps, scheduled in autograd's exact
reversed depth-first postorder so multi-consumer gradient accumulation
(the Figure-3b skip tensors under full distillation) sums bitwise
identically to the define-by-run loop.  The adjoint is regenerated from
the live ``requires_grad`` flags, so every freeze boundary of a
``StudentNet`` — both distillation modes and the ablation's points in
between — rides the compiled step.

The engine is the only executor: every forward outside a trace runs a
plan (:meth:`repro.nn.module.Module.run_plan`), and every training step
runs the trainer's compiled step.  A geometry whose traced graph does
not compile raises :class:`~repro.engine.kernels.UntraceableError`.
The define-by-run reference the bit-identity tests compare against is
something the tests construct (``tests/helpers.py``).
"""

from __future__ import annotations

from repro.engine import tracer  # noqa: F401  (dependency-free submodule)

# Heavier submodules are exposed lazily: they import the autograd/nn
# stack, which itself imports ``repro.engine.tracer`` at load time.
_LAZY = {
    "compile_plan": ("repro.engine.compiler", "compile_plan"),
    "CompiledPlan": ("repro.engine.compiler", "CompiledPlan"),
    "UntraceableError": ("repro.engine.kernels", "UntraceableError"),
    "CompiledTrainStep": ("repro.engine.training", "CompiledTrainStep"),
    "generate_adjoint": ("repro.engine.adjoint", "generate_adjoint"),
    "adjoint_schedule": ("repro.engine.adjoint", "adjoint_schedule"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
