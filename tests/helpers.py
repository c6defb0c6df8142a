"""Shared helpers for the test suite: numeric gradients, the
interpreted reference the engine is judged against, and the
shared-memory leak check of the multi-process tests."""

import contextlib
import os
from unittest import mock

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.distill import trainer
from repro.nn.module import Module
from repro.segmentation.losses import weighted_cross_entropy


class AutogradStepRunner:
    """The define-by-run training step: the reference every compiled
    step is judged against."""

    def __init__(self, student, x, target, weight_map) -> None:
        self.student = student
        self.x = x
        self.target = target
        self.weight_map = weight_map

    def step(self) -> float:
        logits = self.student(self.x)
        loss = weighted_cross_entropy(logits, self.target, self.weight_map)
        loss.backward()
        return loss.item()

    def predict(self) -> np.ndarray:
        return self.student.predict(self.x.data)


def _autograd_step_runner(student, x4, target, weight_map, plan_for=None):
    return AutogradStepRunner(student, Tensor(x4), target, weight_map)


def _interpreted_run_plan(self, kind, *inputs):
    """The ``kind`` callable interpreted under ``no_grad``."""
    with no_grad():
        out = self._engine_fns()[kind](*map(Tensor, inputs))
    return tuple(t.data for t in (out if isinstance(out, tuple) else (out,)))


@contextlib.contextmanager
def interpreted(active=True):
    """The reference of every engine == autograd test, constructed here
    because production has no way to ask for it: inside the block every
    forward through ``Module.run_plan`` is interpreted and every
    training step (Algorithm 1's and pre-training's, both built by
    ``repro.distill.trainer.make_step_runner``) is an
    :class:`AutogradStepRunner`.  Plans and handles are untouched.
    ``active=False`` is the compiled leg of a parametrised pair."""
    if not active:
        yield
        return
    with mock.patch.object(Module, "run_plan", _interpreted_run_plan), \
            mock.patch.object(trainer, "make_step_runner", _autograd_step_runner):
        yield


@contextlib.contextmanager
def no_shm_leak():
    """Fail if a ``multiprocessing.shared_memory`` segment made inside
    the block outlives it.  Only ``psm_`` names count: unrelated
    ``/dev/shm`` entries appearing mid-test must not fail it, and a
    system without ``/dev/shm`` has nothing to check."""

    def segments():
        try:
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
        except OSError:
            return set()

    before = segments()
    yield
    leaked = segments() - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def numeric_gradient(tensor, scalar_fn, eps=1e-2):
    """Central-difference gradient of ``scalar_fn()`` w.r.t. ``tensor.data``.

    ``scalar_fn`` must recompute the forward pass from ``tensor.data``.
    float32 arithmetic limits accuracy, hence the relatively large eps.
    """
    grad = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor.data[idx].copy()
        tensor.data[idx] = orig + eps
        plus = scalar_fn()
        tensor.data[idx] = orig - eps
        minus = scalar_fn()
        tensor.data[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


def assert_grad_close(analytic, numeric, rtol=2e-2, atol=1e-3):
    """Compare analytic and numeric gradients with float32 tolerances."""
    scale = max(np.abs(numeric).max(), 1e-6)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol * scale + atol)
