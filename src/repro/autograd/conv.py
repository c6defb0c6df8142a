"""Vectorized 2-D convolution via im2col / col2im.

The student and teacher networks are fully convolutional, so convolution
is the single hottest kernel in the whole reproduction.  Following the
scientific-Python optimization guidance, the implementation lowers each
convolution to one large GEMM: patches are gathered by ``im2col`` with
one fancy-index read through cached index arrays (no Python loops over
pixels) and the kernel is applied with a single ``matmul``.  The
backward pass scatters through the same column geometry: ``col2im`` is
one strided float64 ``+=`` per kernel tap and a single downcast.

This module is the *reference*: :mod:`repro.engine.kernels` reproduces
``im2col`` / ``col2im`` byte for byte on preallocated scratch, and the
property tests in ``tests/test_engine.py`` compare against the
functions here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor


def _out_dim(size: int, k: int, pad: int, stride: int) -> int:
    return (size + 2 * pad - k) // stride + 1


@lru_cache(maxsize=512)
def _im2col_indices(
    chw: Tuple[int, int, int],
    kh: int,
    kw: int,
    pad_h: int,
    pad_w: int,
    stride: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute (channel, row, col) gather indices for im2col.

    Returns index arrays of shape ``(C*kh*kw, out_h*out_w)`` suitable for
    fancy-indexing a padded input of shape ``(N, C, H+2p, W+2p)``.
    Cached per geometry: the same convolutions run thousands of times
    over a video stream, and index construction dominated the profile
    before memoization.
    """
    c, h, w = chw
    out_h = _out_dim(h, kh, pad_h, stride)
    out_w = _out_dim(w, kw, pad_w, stride)

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return chans, rows, cols


def im2col(
    x: np.ndarray, kh: int, kw: int, pad_h: int, pad_w: int, stride: int
) -> np.ndarray:
    """Gather sliding-window patches into columns.

    Input ``(N, C, H, W)`` -> output ``(C*kh*kw, N*out_h*out_w)``.
    """
    n = x.shape[0]
    x_padded = (
        np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
        if (pad_h or pad_w)
        else x
    )
    chans, rows, cols = _im2col_indices(x.shape[1:], kh, kw, pad_h, pad_w, stride)
    patches = x_padded[:, chans, rows, cols]  # (N, C*kh*kw, L)
    return patches.transpose(1, 0, 2).reshape(patches.shape[1], n * patches.shape[2])


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    pad_h: int,
    pad_w: int,
    stride: int,
) -> np.ndarray:
    """Scatter columns back to an image, accumulating overlaps.

    One strided ``+=`` per kernel tap — the exact inverse of the
    ``im2col`` gather.  Compared with the old flattened ``np.bincount``
    scatter this builds no per-call index arrays and never copies the
    whole contribution stream through an upcast, and runs several times
    faster.  Accumulation stays in float64 deliberately: per output
    cell the tap loop adds contributions in the same order bincount
    did, so the result is *bit-identical* to the seed implementation —
    a pure-float32 variant is numerically fine but changes last-ulp
    gradient rounding, which chaotic online distillation amplifies into
    different trajectories.  The compiled engine's conv backward
    performs the same float64 tap loop on preallocated scratch, so both
    paths produce bit-identical input gradients.
    """
    n, c, h, w = x_shape
    out_h = _out_dim(h, kh, pad_h, stride)
    out_w = _out_dim(w, kw, pad_w, stride)
    x_padded = np.zeros((n, c, h + 2 * pad_h, w + 2 * pad_w), dtype=np.float64)
    # (C*kh*kw, N*L) -> one (c, n, out_h, out_w) view per tap, matching
    # the _im2col_indices ordering (channel-major, then kh, then kw).
    grid = cols.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                grid[:, i, j].transpose(1, 0, 2, 3)
            )
    x_padded = x_padded.astype(cols.dtype)
    if pad_h or pad_w:
        return x_padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w]
    return x_padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: Tuple[int, int] | int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    ``padding`` may be a single int or an ``(pad_h, pad_w)`` pair —
    asymmetric padding is needed for the student's 3x1 and 1x3
    convolutions (Figure 3a of the paper).
    """
    if isinstance(padding, int):
        pad_h = pad_w = padding
    else:
        pad_h, pad_w = padding

    n, c, h, w = x.data.shape
    oc, ic, kh, kw = weight.data.shape
    if ic != c:
        raise ValueError(f"weight expects {ic} input channels, got {c}")
    out_h = _out_dim(h, kh, pad_h, stride)
    out_w = _out_dim(w, kw, pad_w, stride)

    cols = im2col(x.data, kh, kw, pad_h, pad_w, stride)  # (C*kh*kw, N*L)
    w_mat = weight.data.reshape(oc, -1)
    out = w_mat @ cols  # (oc, N*L)
    out = out.reshape(oc, n, out_h, out_w).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        # grad: (N, oc, out_h, out_w)
        grad_mat = grad.transpose(1, 0, 2, 3).reshape(oc, -1)  # (oc, N*L)
        if weight.requires_grad:
            gw = (grad_mat @ cols.T).reshape(weight.data.shape)
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = w_mat.T @ grad_mat  # (C*kh*kw, N*L)
            gx = col2im(gcols, (n, c, h, w), kh, kw, pad_h, pad_w, stride)
            x._accumulate(gx)

    return Tensor._make(out, parents, backward)
