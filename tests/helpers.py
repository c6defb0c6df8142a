"""Shared helpers for the test suite: numeric gradients, and the
interpreted reference the engine is judged against."""

import contextlib
from unittest import mock

import numpy as np

from repro.engine import plan_cache
from repro.nn.module import Module


@contextlib.contextmanager
def interpreted(active=True):
    """The reference of every engine == autograd test, constructed here
    because production has no way to ask for it: inside the block no
    model finds a plan (shared or transient), so forwards run through
    ``Module.run_plan``'s define-by-run branch and training through
    ``make_step_runner``'s no-plan branch.  Handles a model already
    holds are untouched and come back with the block's end.
    ``active=False`` is the compiled leg of a parametrised pair."""
    if not active:
        yield
        return
    with mock.patch.object(Module, "engine_plan", lambda self, kind, shapes: None), \
            mock.patch.object(plan_cache, "compile_transient", lambda *args: None):
        yield


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
