"""2-D convolution as one GEMM over gathered kernel taps.

The student and teacher networks are fully convolutional, so convolution
is the single hottest kernel in the whole reproduction.  Following the
scientific-Python optimization guidance, each convolution lowers to one
large GEMM over a column matrix of patches, gathered with one strided
copy of every kernel tap of a zero-padded scratch image (no Python loops
over pixels, no index arrays).  The backward pass scatters through the
same tap geometry: one float64 ``+=`` per tap and a single downcast.

This module is the op's one definition: :class:`ConvGeometry` (shapes
and which taps a geometry takes), :class:`ConvTaps` (the tap views over
one scratch image and one column matrix), :func:`conv_forward` and
:func:`conv_vjp`.  Autograd's :func:`conv2d` runs them on transient
zeroed scratch, so no state outlives a call; the compiled engine's
``ConvStep`` runs them on views of its plan's memory.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


def _out_dim(size: int, k: int, pad: int, stride: int) -> int:
    return (size + 2 * pad - k) // stride + 1


class ConvGeometry:
    """The shapes of one conv over an ``(n, c, h, w)`` input, and the
    tap layout its scratch image takes.

    *Slice taps* (any geometry): the image is padded on all four sides,
    channel-major like the conv/add/concat buffers on either side of a
    conv, so for ``n > 1`` the interior fill and the tap copies are
    layout-aligned rather than full transposes.

    *Flat taps* (:attr:`flat`: stride-1 convs at ``n == 1`` whose
    output is as wide as their input — every 3x3 / 3x1 / 1x3 of the
    student and teacher but the stride-2 stems): the image is padded
    vertically only, with ``pw`` cells of slack at either end, so each
    tap is one contiguous run of it (see :class:`ConvTaps`).

    1x1 stride-1 unpadded convs (:attr:`is_1x1`) are pure channel mixes
    and need no scratch image at all.
    """

    def __init__(
        self,
        x_shape: Tuple[int, int, int, int],
        kernel_size: Tuple[int, int],
        padding: Tuple[int, int],
        stride: int,
    ) -> None:
        n, c, h, w = x_shape
        kh, kw = kernel_size
        ph, pw = padding
        self.n, self.c, self.h, self.w = n, c, h, w
        self.kh, self.kw, self.ph, self.pw, self.stride = kh, kw, ph, pw, stride
        self.oh = _out_dim(h, kh, ph, stride)
        self.ow = _out_dim(w, kw, pw, stride)
        self.L = self.oh * self.ow
        self.K = c * kh * kw
        self.x_shape = (n, c, h, w)
        self.is_1x1 = kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0
        self.flat = not self.is_1x1 and n == 1 and stride == 1 and kw == 2 * pw + 1
        #: The padded scratch image's shape (``None`` for a 1x1 conv).
        self.pad_shape = (
            None if self.is_1x1
            else (c, (h + 2 * ph) * w + 2 * pw) if self.flat
            else (c, n, h + 2 * ph, w + 2 * pw)
        )

    def nchw(self, mat: np.ndarray) -> np.ndarray:
        """The NCHW view of a sample-major ``(rows, N*L)`` matrix — a
        conv's output, or a 1x1 conv's columns (whose ``L`` is ``h*w``)
        — channel-major in memory for ``n > 1``, as autograd has always
        laid conv outputs out."""
        return mat.reshape(mat.shape[0], self.n, self.oh, self.ow).transpose(1, 0, 2, 3)


class ConvTaps:
    """Every kernel tap of ``geom`` over ``scratch`` (a zeroed padded
    image of ``geom.pad_shape``: the gather never writes its border, the
    scatter zeroes all of it first) and ``cols`` (a ``(C*kh*kw, N*L)``
    column matrix: rows channel-major, then kh, then kw; columns
    sample-major).

    ``windows`` is one strided view of every tap at once, laid out like
    ``cols`` reshaped to ``windows.shape``: entry ``[:, i, j]`` is the
    cells of ``scratch`` tap ``(i, j)`` touches, so the gather is one
    copy of ``windows``.  The taps overlap in ``scratch``, so the
    scatter cannot be one add: it adds the grid into ``windows[:, i,
    j]`` one tap at a time (kh, then kw).

    Slice taps: ``windows`` is ``(c, kh, kw, n, oh, ow)``, tap ``(i,
    j)`` the strided slice starting at row ``i``, column ``j``.  Flat
    taps: the image's row pitch is ``w`` — the column matrix's — so
    output cell ``y*w + x`` of tap ``(i, j)`` sits at flat offset
    ``(y*w + x) + i*w + j`` and ``windows`` is ``(c, kh, kw, L)``, each
    tap one contiguous ``(c, L)`` run, several times cheaper to move
    than ``oh`` short rows.  A run crosses the row ends where a fully
    padded image would have its zero columns; the cells that wrapped
    into a neighbouring row are :attr:`wrapped`.
    """

    def __init__(self, geom: ConvGeometry, scratch: np.ndarray, cols: np.ndarray) -> None:
        g = geom
        n, c, h, w = g.x_shape
        kh, kw, ph, pw, s = g.kh, g.kw, g.ph, g.pw, g.stride
        item = scratch.itemsize
        if g.flat:
            lo = pw + ph * w
            self.interior = scratch[:, lo : lo + h * w].reshape(1, c, h, w)
            shape = (c, kh, kw, g.L)
            strides = (scratch.strides[0], w * item, item, item)
        else:
            sc, sn, sh, sw = scratch.strides
            self.interior = scratch.transpose(1, 0, 2, 3)[:, :, ph : ph + h, pw : pw + w]
            shape = (c, kh, kw, n, g.oh, g.ow)
            strides = (sc, sh, sw, sn, s * sh, s * sw)
        self.scratch = scratch
        self.cols = cols
        # A strided view of the scratch itself (NumPy checks it stays in
        # bounds), so like every other view its base is the caller's.
        self.windows = np.ndarray(shape, scratch.dtype, buffer=scratch, strides=strides)
        self.grid = cols.reshape(shape)
        self.taps = [
            (self.windows[:, i, j], self.grid[:, i, j])
            for i in range(kh) for j in range(kw)
        ]
        #: Views of ``cols`` holding the flat taps' wrapped cells: the
        #: ``|j - pw|`` cells per row of tap ``(i, j)`` that ran into a
        #: neighbouring row, one view per column offset ``j != pw``
        #: covering every ``i`` and channel — two for a 3-wide kernel.
        #: They are padding, so they are zeroed after the copy when
        #: gathering, and before the adds when scattering.  Adding that
        #: ``+0.0`` is the identity — a float64 sum that starts at
        #: ``+0.0`` can never hold ``-0.0`` — and no other value, tap
        #: order or rounding step differs from the slice taps.  Slice
        #: taps wrap nothing.
        self.wrapped = []
        if g.flat:
            rows = cols.reshape(c, kh, kw, g.oh, w)
            for j in range(kw):
                dx = j - pw
                if dx:
                    self.wrapped.append(
                        rows[:, :, j, :, :-dx] if dx < 0
                        else rows[:, :, j, :, max(w - dx, 0) :]
                    )

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Gather ``x`` into ``cols``: one copy into the padded
        image, one of every tap, one zeroing per wrapping column offset."""
        self.interior[...] = x
        np.copyto(self.grid, self.windows)
        for cells in self.wrapped:
            cells.fill(0.0)
        return self.cols

    def scatter(self, out: np.ndarray) -> np.ndarray:
        """Scatter ``cols`` into ``out`` (``(n, c, h, w)`` float32),
        one ``+=`` per tap into the zeroed scratch (float64), then one
        downcast.  Accumulation stays in float64 deliberately: per
        output cell the taps add in the order the seed's bincount
        scatter did, so the input gradient is bit-identical to it — a
        pure-float32 variant is numerically fine but changes last-ulp
        gradient rounding, which chaotic online distillation amplifies
        into different trajectories."""
        self.scratch.fill(0.0)
        for cells in self.wrapped:
            cells.fill(0.0)
        for window, col in self.taps:
            window += col
        np.copyto(out, self.interior)
        return out


def conv_forward(geom: ConvGeometry, x, w_mat, bias, cols, taps: Optional[ConvTaps], out):
    """``out`` (``(oc, N*L)``) = ``w_mat`` (``(oc, C*kh*kw)``) times the
    column matrix of ``x``, plus ``bias`` unless it is ``None``.

    ``taps`` gathers the columns into ``cols``.  A 1x1 conv has no taps:
    its columns are ``x`` itself at ``n == 1``, a transposed copy into
    ``cols`` otherwise.  Returns the column matrix (read by
    :func:`conv_vjp`).
    """
    g = geom
    if taps is not None:
        cols = taps.gather(x)
    elif g.n == 1:
        cols = x.reshape(g.c, g.L)
    else:
        np.copyto(g.nchw(cols), x)
    np.dot(w_mat, cols, out=out)
    if bias is not None:
        out += bias[:, None]
    return cols


def conv_vjp(geom: ConvGeometry, grad, grad_mat, cols, w_mat, wants,
             gw_t, gw, gcols, gtaps: Optional[ConvTaps], gx) -> tuple:
    """``(g_weight, g_bias, g_x)`` of :func:`conv_forward` at the out
    gradient ``grad`` (NCHW; ``grad_mat`` is it as the ``(oc, N*L)``
    matrix), ``None`` where ``wants`` (weight, bias, input) is false.

    The weight gradient is ``cols . grad^T`` copied transposed into
    ``gw``: BLAS runs this orientation faster, and every entry is the
    same dot product in the same order as ``grad . cols^T``
    (``tests/test_engine.py::TestWeightGradientOrientation``).  The
    bias gradient sums ``grad`` in its own memory order.  The input
    gradient is ``w_mat^T . grad_mat`` into ``gcols``, scattered by
    ``gtaps`` into ``gx``; a 1x1 conv's is ``gcols`` itself at ``n ==
    1``, a transposed copy into ``gx`` otherwise (the mirror of
    :func:`conv_forward`).
    """
    g = geom
    want_w, want_b, want_x = wants
    g_w = g_b = g_x = None
    if want_w:
        np.dot(cols, grad_mat.T, out=gw_t)
        np.copyto(gw, gw_t.T)
        g_w = gw
    if want_b:
        g_b = grad.sum(axis=(0, 2, 3))
    if want_x:
        np.dot(w_mat.T, grad_mat, out=gcols)
        if gtaps is not None:
            g_x = gtaps.scatter(gx)
        elif g.n == 1:
            g_x = gcols.reshape(g.x_shape)
        else:
            g_x = gx
            np.copyto(gx, g.nchw(gcols))
    return g_w, g_b, g_x


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
        padding = (padding, padding)
    oc, ic, kh, kw = weight.data.shape
    if ic != x.data.shape[1]:
        raise ValueError(f"weight expects {ic} input channels, got {x.data.shape[1]}")
    g = ConvGeometry(x.data.shape, (kh, kw), padding, stride)
    nl = g.n * g.L

    def taps(dtype):
        """A column matrix, and its taps over fresh zeroed scratch."""
        cols = np.empty((g.K, nl), np.float32)
        return cols, None if g.is_1x1 else ConvTaps(g, np.zeros(g.pad_shape, dtype), cols)

    w_mat = weight.data.reshape(oc, g.K)
    out = np.empty((oc, nl), np.float32)
    cols = conv_forward(
        g, x.data, w_mat, None if bias is None else bias.data, *taps(np.float32), out
    )
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        g_w, g_b, g_x = conv_vjp(
            g, grad, grad.transpose(1, 0, 2, 3).reshape(oc, nl), cols, w_mat,
            (weight.requires_grad, bias is not None and bias.requires_grad,
             x.requires_grad),
            np.empty((g.K, oc), np.float32), np.empty((oc, g.K), np.float32),
            *taps(np.float64), np.empty(g.x_shape, np.float32),
        )
        if g_w is not None:
            weight._accumulate(g_w.reshape(weight.data.shape))
        if g_b is not None:
            bias._accumulate(g_b)
        if g_x is not None:
            x._accumulate(g_x)

    return Tensor._make(g.nchw(out), parents, backward)
