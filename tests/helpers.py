"""Shared helpers for the test suite: numeric gradients, the
interpreted reference the engine is judged against, the reference
column gather and scatter the convolution taps are judged against, and
the shared-memory leak check of the multi-process tests."""

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


def _conv_out_dims(h, w, kh, kw, pad_h, pad_w, stride):
    return (h + 2 * pad_h - kh) // stride + 1, (w + 2 * pad_w - kw) // stride + 1


def fancy_index_im2col(x, kh, kw, pad_h, pad_w, stride):
    """The original gather: one fancy-index read through (channel, row,
    col) index arrays into the ``(C*kh*kw, N*out_h*out_w)`` column
    matrix (rows channel-major, then kh, then kw; columns
    sample-major).  The reference the tap gather must reproduce byte
    for byte."""
    n, c, h, w = x.shape
    out_h, out_w = _conv_out_dims(h, w, kh, kw, pad_h, pad_w, stride)
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    x_padded = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    patches = x_padded[:, chans, rows, cols]
    return patches.transpose(1, 0, 2).reshape(patches.shape[1], n * patches.shape[2])


def slice_loop_col2im(cols, x_shape, kh, kw, pad_h, pad_w, stride):
    """The reference scatter: one float64 ``+=`` per kernel tap, in kh
    then kw order, into a zeroed image padded on all four sides, then
    one downcast and the crop — what the seed's bincount scatter
    computed.  Returns a C-contiguous ``(n, c, h, w)`` array."""
    n, c, h, w = x_shape
    out_h, out_w = _conv_out_dims(h, w, kh, kw, pad_h, pad_w, stride)
    x_padded = np.zeros((n, c, h + 2 * pad_h, w + 2 * pad_w), dtype=np.float64)
    grid = cols.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                grid[:, i, j].transpose(1, 0, 2, 3)
            )
    x_padded = x_padded.astype(cols.dtype)
    return np.ascontiguousarray(x_padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w])
