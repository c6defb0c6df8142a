"""Fused NumPy kernels executed by compiled plans.

Each kernel is a *step*: it reads input activations from the shared
``env`` slot table, writes its output into a buffer it owns, and (when
built for training) can push gradients backwards through the same
geometry.  All geometry work — per-tap views, padded buffers, GEMM
scratch — happens once at build time; executing a step is pure array
math with no per-call allocation on the main path.

Numeric contract: every kernel mirrors the exact operation order of its
autograd twin (:mod:`repro.autograd.conv`, :mod:`repro.nn.layers`,
:mod:`repro.autograd.tensor`), so plan *forward* outputs are
bit-identical to the define-by-run forward — the engine-vs-autograd
equivalence tests rely on this, and argmax predictions cannot drift
between the two paths.  Backward is bit-identical too: each ``backward``
accumulates into its gradient buffers in its closure's own operation
order, and the *cross*-kernel order — which decides how tensors with
three or more gradient consumers (the Figure-3b skips under full
distillation) sum their float32 contributions — is scheduled by
:mod:`repro.engine.adjoint` from a simulation of autograd's traversal,
not by reversed lowering order.

Weight handling: kernels hold *module references* and read
``weight.data`` / buffers at execution time.  In-place optimizer
updates and rebinding loads (``load_state_dict`` / ``apply_state_dict``)
are therefore picked up automatically; no kernel caches packed weights.
The reference (``step.module``) is the only thing a kernel knows about
one model instance, which is what lets a plan be handed to another
instance of the same architecture (:mod:`repro.engine.plan_cache`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd.conv import _out_dim
from repro.autograd.tensor import sum_2x2_windows


class UntraceableError(RuntimeError):
    """A traced graph contains an op or geometry the engine cannot compile."""


def _set_grad(param, value: np.ndarray) -> None:
    """Install ``value`` as ``param.grad`` (accumulating if one exists).

    The compiled backward computes each parameter's gradient exactly
    once per step, so after ``optimizer.zero_grad()`` this is a plain
    assignment of a scratch view — no per-step gradient allocation.
    """
    if param.grad is None:
        param.grad = value
    else:
        param.grad += value


class ConvStep:
    """conv2d [+ bias] [+ fused ReLU] via per-tap gather and GEMM.

    im2col and col2im run over a list of kernel *taps* built once from
    the geometry (:meth:`_tap_views`); a tap is one copy into — or one
    float64 ``+=`` out of — the column matrix.
    """

    def __init__(
        self,
        module,
        in_slot: int,
        out_slot: int,
        in_shape: Sequence[int],
        fuse_relu: bool,
        training: bool,
    ) -> None:
        n, c, h, w = in_shape
        kh, kw = module.kernel_size
        ph, pw = module.padding
        stride = module.stride
        if module.in_channels != c:
            raise UntraceableError(
                f"conv expects {module.in_channels} channels, traced input has {c}"
            )
        self.module = module
        self.in_slot, self.out_slot = in_slot, out_slot
        self.fuse_relu = fuse_relu
        self.n, self.c, self.h, self.w = n, c, h, w
        self.kh, self.kw, self.ph, self.pw, self.stride = kh, kw, ph, pw, stride
        self.oc = module.out_channels
        self.oh = _out_dim(h, kh, ph, stride)
        self.ow = _out_dim(w, kw, pw, stride)
        self.L = self.oh * self.ow
        self.K = c * kh * kw
        self.x_shape = (n, c, h, w)
        self.out_shape = (n, self.oc, self.oh, self.ow)
        #: 1x1 stride-1 unpadded convs are pure channel mixes: the GEMM
        #: reads the input through a reshape view, no gather at all.
        self.is_1x1 = kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0
        #: Stride-1 convs at n == 1 whose output is as wide as their
        #: input (every 3x3 / 3x1 / 1x3 of the student and teacher but
        #: the stride-2 stems) take the flat taps of :meth:`_tap_views`.
        self.flat = (
            not self.is_1x1 and n == 1 and stride == 1 and kw == 2 * pw + 1
        )
        # Column scratch in im2col layout: axis order (c, kh, kw, n, L)
        # flattens to the same (C*kh*kw, N*L) matrix autograd builds.
        grid = (c, kh, kw, n, self.L)
        if self.is_1x1:
            self._cols = None if n == 1 else np.empty((self.K, n * self.L), np.float32)
        else:
            cols_grid = np.empty(grid, np.float32)
            self._cols = cols_grid.reshape(self.K, n * self.L)
            self._xp, self._xp_interior, self._taps = self._tap_views(
                cols_grid, np.float32
            )
        self._out_mat = np.empty((self.oc, n * self.L), np.float32)
        # The NCHW output is a free view of the GEMM result; for n > 1 it
        # is the same transposed view autograd produces, so downstream
        # reductions (batch-norm statistics) iterate memory in the same
        # order and stay bit-identical to the define-by-run path.
        self.out = (
            self._out_mat.reshape(1, self.oc, self.oh, self.ow)
            if n == 1
            else self._out_mat.reshape(self.oc, n, self.oh, self.ow).transpose(1, 0, 2, 3)
        )
        self._saved_cols: Optional[np.ndarray] = None
        if training:
            self._mask = np.empty(self.out_shape, bool) if fuse_relu else None
            self._gpre = np.empty(self.out_shape, np.float32) if fuse_relu else None
            self._gw = np.empty((self.oc, self.K), np.float32)
            self._gcols = np.empty((self.K, n * self.L), np.float32)
            self._gmat = (
                np.empty((self.oc, n * self.L), np.float32) if n > 1 else None
            )
            if not self.is_1x1:
                # col2im accumulates in float64 and downcasts once, as
                # autograd's does (see :meth:`_scatter`).
                self._gxp, self._gxp_interior, self._gtaps = self._tap_views(
                    self._gcols.reshape(grid), np.float64
                )
                self._gx32 = np.empty((n, c, h, w), np.float32)

    def _tap_views(self, cols_grid: np.ndarray, dtype) -> tuple:
        """``(scratch, interior, taps)`` for one direction of the conv.

        ``scratch`` is a zeroed padded image of ``dtype``, ``interior``
        its ``(n, c, h, w)`` unpadded view, and ``taps`` lists, in
        im2col order (kh, then kw), ``(window, col, wrapped)``: the
        cells of ``scratch`` tap ``(i, j)`` touches, the rows of the
        column matrix they map to, and the cells of ``col`` to zero.

        *Slice taps* (any geometry): the image is padded on all four
        sides and a window is its strided ``(n, c, oh, ow)`` slice;
        ``wrapped`` is ``None``.

        *Flat taps* (``self.flat``): the image is padded vertically
        only, so its row pitch is ``w`` — the column matrix's — and
        output cell ``y*w + x`` of tap ``(i, j)`` sits at flat offset
        ``(y*w + x) + i*w + j``.  A window is then one contiguous
        ``(c, L)`` run of the scratch (``pw`` cells of slack at either
        end keep the corner taps in bounds), several times cheaper to
        move than ``oh`` short rows.  It runs over the row ends where
        the padded image has its zero columns, so the ``|j - pw|``
        cells per row that *wrapped* into a neighbouring row are zeroed
        in ``col``: after the copy when gathering (they are padding),
        before the add when scattering (autograd's col2im crops them).
        Adding that ``+0.0`` is the identity — a float64 sum that
        starts at ``+0.0`` can never hold ``-0.0`` — and no other value,
        tap order or rounding step differs from the slice taps.
        """
        n, c, h, w = self.x_shape
        kh, kw, ph, pw, s = self.kh, self.kw, self.ph, self.pw, self.stride
        oh, ow, L = self.oh, self.ow, self.L
        taps = []
        if self.flat:
            scratch = np.zeros((c, (h + 2 * ph) * w + 2 * pw), dtype)
            lo = pw + ph * w
            interior = scratch[:, lo : lo + h * w].reshape(1, c, h, w)
            for i in range(kh):
                for j in range(kw):
                    col = cols_grid[:, i, j, 0]
                    rows, dx = col.reshape(c, oh, w), j - pw
                    wrapped = (
                        rows[:, :, :-dx] if dx < 0
                        else rows[:, :, max(w - dx, 0) :] if dx else None
                    )
                    off = i * w + j
                    taps.append((scratch[:, off : off + L], col, wrapped))
        else:
            # Channel-major like the conv/add/concat buffers on either
            # side, so for n > 1 the interior fill and the tap copies
            # are layout-aligned rather than full transposes.
            scratch = np.zeros(
                (c, n, h + 2 * ph, w + 2 * pw), dtype
            ).transpose(1, 0, 2, 3)
            interior = scratch[:, :, ph : ph + h, pw : pw + w]
            for i in range(kh):
                for j in range(kw):
                    window = scratch[:, :, i : i + s * oh : s, j : j + s * ow : s]
                    col = cols_grid[:, i, j].reshape(c, n, oh, ow).transpose(1, 0, 2, 3)
                    taps.append((window, col, None))
        return scratch, interior, taps

    # ------------------------------------------------------------------
    def _gather(self, x: np.ndarray) -> np.ndarray:
        """Fill the column matrix (layout identical to autograd im2col)."""
        n, L = self.n, self.L
        if self.is_1x1:
            if n == 1:
                return x.reshape(self.c, L)
            np.copyto(
                self._cols, x.transpose(1, 0, 2, 3).reshape(self.c, n * L)
            )
            return self._cols
        self._xp_interior[...] = x
        for window, col, wrapped in self._taps:
            np.copyto(col, window)
            if wrapped is not None:
                wrapped[...] = 0.0
        return self._cols

    def _scatter(self) -> np.ndarray:
        """col2im of ``_gcols``: one float64 ``+=`` per tap into the
        zeroed scratch, in autograd's col2im tap order, then one
        downcast — bit-identical to the define-by-run input gradient
        (and to the seed's bincount)."""
        self._gxp.fill(0.0)
        for window, col, wrapped in self._gtaps:
            if wrapped is not None:
                wrapped[...] = 0.0
            window += col
        np.copyto(self._gx32, self._gxp_interior)
        return self._gx32

    def forward(self, env: List[np.ndarray]) -> None:
        cols = self._gather(env[self.in_slot])
        self._saved_cols = cols
        w_mat = self.module.weight.data.reshape(self.oc, self.K)
        np.dot(w_mat, cols, out=self._out_mat)
        bias = self.module.bias
        if bias is not None:
            self._out_mat += bias.data[:, None]
        if self.fuse_relu:
            np.maximum(self._out_mat, 0.0, out=self._out_mat)
        env[self.out_slot] = self.out

    def backward(self, env: List[np.ndarray], gbufs: List[Optional[np.ndarray]]) -> None:
        g = gbufs[self.out_slot]
        if self.fuse_relu:
            np.greater(self.out, 0.0, out=self._mask)
            np.multiply(g, self._mask, out=self._gpre)
            gpre = self._gpre
        else:
            gpre = g
        if self.n == 1:
            grad_mat = gpre.reshape(self.oc, self.L)
        else:
            np.copyto(
                self._gmat.reshape(self.oc, self.n, self.oh, self.ow),
                gpre.swapaxes(0, 1),
            )
            grad_mat = self._gmat
        weight = self.module.weight
        if weight.requires_grad:
            np.dot(grad_mat, self._saved_cols.T, out=self._gw)
            _set_grad(weight, self._gw.reshape(weight.data.shape))
        bias = self.module.bias
        if bias is not None and bias.requires_grad:
            _set_grad(bias, gpre.sum(axis=(0, 2, 3)))
        gin = gbufs[self.in_slot]
        if gin is not None:
            w_mat = weight.data.reshape(self.oc, self.K)
            np.dot(w_mat.T, grad_mat, out=self._gcols)
            if self.is_1x1:
                # col2im is an identity scatter for 1x1/stride-1.
                if self.n == 1:
                    gx = self._gcols.reshape(1, self.c, self.h, self.w)
                else:
                    gx = self._gcols.reshape(self.c, self.n, self.h, self.w).swapaxes(0, 1)
                gin += gx
            else:
                # Downcast before accumulating, matching autograd's
                # col2im (f32(sum64) then a float32 add).
                gin += self._scatter()


class BatchNormStep:
    """BatchNorm2d as per-channel scale/shift.

    ``training`` selects train semantics (batch statistics + running-stat
    momentum updates, exactly as :class:`repro.nn.layers.BatchNorm2d`);
    eval plans use batch statistics only when the layer is configured
    with ``use_batch_stats_in_eval`` (the ShadowTutor student always is)
    and otherwise fold the running statistics — re-read per call, so a
    state-dict load needs no recompile.
    """

    def __init__(self, module, in_slot, out_slot, in_shape, training: bool) -> None:
        n, c, h, w = in_shape
        if c != module.num_features:
            raise UntraceableError(
                f"batchnorm expects {module.num_features} channels, got {c}"
            )
        self.module = module
        self.in_slot, self.out_slot = in_slot, out_slot
        self.c = c
        self.n_elem = n * h * w
        self.out_shape = tuple(in_shape)
        self._training = training
        self._xhat = np.empty(self.out_shape, np.float32)
        self.out = np.empty(self.out_shape, np.float32)
        self._inv_std: Optional[np.ndarray] = None
        #: Batch statistics awaiting a running-stat commit (train plans
        #: defer the momentum update so a forward used only for the
        #: post-update metric leaves no trace, exactly like the seed
        #: loop's separate eval predict).
        self._pending_stats: Optional[tuple] = None
        if training:
            self._tmp = np.empty(self.out_shape, np.float32)
            self._tmp2 = np.empty(self.out_shape, np.float32)

    def forward(self, env: List[np.ndarray]) -> None:
        m = self.module
        x = env[self.in_slot]
        c = self.c
        if self._training or m.use_batch_stats_in_eval:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if self._training:
                self._pending_stats = (mean, var)
        else:
            mean = m.running_mean
            var = m.running_var
        mean_b = mean.reshape(1, c, 1, 1)
        var_b = var.reshape(1, c, 1, 1)
        inv_std = 1.0 / np.sqrt(var_b + m.eps)
        np.subtract(x, mean_b, out=self._xhat)
        self._xhat *= inv_std
        np.multiply(self._xhat, m.weight.data.reshape(1, c, 1, 1), out=self.out)
        self.out += m.bias.data.reshape(1, c, 1, 1)
        self._inv_std = inv_std
        env[self.out_slot] = self.out

    def commit_running_stats(self) -> None:
        """Apply the deferred momentum update (train plans call this once
        the step is confirmed; mirrors BatchNorm2d's train forward)."""
        if self._pending_stats is None:
            return
        m = self.module
        mean, var = self._pending_stats
        m.set_buffer(
            "running_mean", (1 - m.momentum) * m.running_mean + m.momentum * mean
        )
        m.set_buffer(
            "running_var", (1 - m.momentum) * m.running_var + m.momentum * var
        )
        self._pending_stats = None

    def backward(self, env, gbufs) -> None:
        # Into preallocated scratch throughout, mirroring the exact
        # evaluation order of BatchNorm2d.forward's closure:
        # gx = ((g_xhat - sum_g/n) - (x_hat*sum_gx)/n) * inv_std.
        m = self.module
        c = self.c
        g = gbufs[self.out_slot]
        tmp, tmp2 = self._tmp, self._tmp2
        if m.weight.requires_grad:
            np.multiply(g, self._xhat, out=tmp)
            _set_grad(m.weight, tmp.sum(axis=(0, 2, 3)))
        if m.bias.requires_grad:
            _set_grad(m.bias, g.sum(axis=(0, 2, 3)))
        gin = gbufs[self.in_slot]
        if gin is not None:
            np.multiply(g, m.weight.data.reshape(1, c, 1, 1), out=tmp)  # g_xhat
            # Full backward through the batch statistics (train plans
            # always use batch stats — mirrors BatchNorm2d.forward).
            sum_g = tmp.sum(axis=(0, 2, 3), keepdims=True)
            np.multiply(tmp, self._xhat, out=tmp2)
            sum_gx = tmp2.sum(axis=(0, 2, 3), keepdims=True)
            tmp -= sum_g / self.n_elem
            np.multiply(self._xhat, sum_gx, out=tmp2)
            tmp2 /= self.n_elem
            tmp -= tmp2
            tmp *= self._inv_std.reshape(1, c, 1, 1)
            gin += tmp


class ReluStep:
    """Standalone ReLU (the fusable ones are folded into conv/add)."""

    def __init__(self, in_slot, out_slot, in_shape, training: bool) -> None:
        self.in_slot, self.out_slot = in_slot, out_slot
        self.out_shape = tuple(in_shape)
        self.out = np.empty(self.out_shape, np.float32)
        self._mask = np.empty(self.out_shape, bool) if training else None
        self._tmp = np.empty(self.out_shape, np.float32) if training else None

    def forward(self, env) -> None:
        np.maximum(env[self.in_slot], 0.0, out=self.out)
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        gin = gbufs[self.in_slot]
        if gin is None:
            return
        np.greater(self.out, 0.0, out=self._mask)
        np.multiply(gbufs[self.out_slot], self._mask, out=self._tmp)
        gin += self._tmp


class AddStep:
    """Elementwise add (residual join), with optional fused ReLU."""

    def __init__(self, a_slot, b_slot, out_slot, in_shape, fuse_relu, training) -> None:
        self.a_slot, self.b_slot, self.out_slot = a_slot, b_slot, out_slot
        self.fuse_relu = fuse_relu
        self.out_shape = tuple(in_shape)
        n, c, h, w = in_shape
        # Residual adds sit between conv outputs (channel-major memory)
        # and the next block's batch-norm reduction; allocating the
        # buffer in the same memory order autograd's ufunc picks keeps
        # batched statistics bit-identical (trivial for n == 1).
        self.out = np.empty((c, n, h, w), np.float32).transpose(1, 0, 2, 3)
        self._mask = np.empty(self.out_shape, bool) if (training and fuse_relu) else None
        self._gpre = np.empty(self.out_shape, np.float32) if (training and fuse_relu) else None

    def forward(self, env) -> None:
        np.add(env[self.a_slot], env[self.b_slot], out=self.out)
        if self.fuse_relu:
            np.maximum(self.out, 0.0, out=self.out)
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        g = gbufs[self.out_slot]
        if self.fuse_relu:
            np.greater(self.out, 0.0, out=self._mask)
            np.multiply(g, self._mask, out=self._gpre)
            g = self._gpre
        for slot in (self.a_slot, self.b_slot):
            gin = gbufs[slot]
            if gin is not None:
                gin += g


class ConcatStep:
    """Channel concatenation into a preallocated buffer."""

    def __init__(self, in_slots, out_slot, in_shapes, training) -> None:
        axis_sizes = [s[1] for s in in_shapes]
        n, _, h, w = in_shapes[0]
        for s in in_shapes:
            if (s[0], s[2], s[3]) != (n, h, w):
                raise UntraceableError("concat inputs disagree on non-channel dims")
        self.in_slots = tuple(in_slots)
        self.out_slot = out_slot
        self.offsets = np.cumsum([0] + axis_sizes)
        self.out_shape = (n, int(sum(axis_sizes)), h, w)
        # Match np.concatenate's layout choice for channel-major inputs
        # (the conv/add outputs feeding the Figure-3b skips), so the
        # consuming batch-norm reduces memory in autograd's order and
        # batched outputs stay bit-identical (trivial for n == 1).
        ctot = int(sum(axis_sizes))
        self.out = np.empty((ctot, n, h, w), np.float32).transpose(1, 0, 2, 3)

    def forward(self, env) -> None:
        for slot, lo, hi in zip(self.in_slots, self.offsets[:-1], self.offsets[1:]):
            self.out[:, lo:hi] = env[slot]
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        g = gbufs[self.out_slot]
        for slot, lo, hi in zip(self.in_slots, self.offsets[:-1], self.offsets[1:]):
            gin = gbufs[slot]
            if gin is not None:
                gin += g[:, lo:hi]


class AvgPool2dStep:
    """Non-overlapping k x k average pooling through a reshaped view.

    Mirrors :meth:`repro.autograd.tensor.Tensor.avg_pool2d` exactly:
    forward is one ``mean`` reduction over the pooled axes into the
    preallocated output; backward divides the upstream gradient by
    ``k*k`` and broadcasts it back over each pooling window.
    """

    def __init__(self, in_slot, out_slot, in_shape, k: int, training: bool) -> None:
        n, c, h, w = in_shape
        if h % k or w % k:
            raise UntraceableError(
                f"avg_pool2d traced on spatial dims ({h},{w}) not divisible by {k}"
            )
        self.in_slot, self.out_slot = in_slot, out_slot
        self.k = k
        self._grid = (n, c, h // k, k, w // k, k)
        self.out_shape = (n, c, h // k, w // k)
        self.out = np.empty(self.out_shape, np.float32)
        self._gout = np.empty(self.out_shape, np.float32) if training else None
        self._gin = np.empty(tuple(in_shape), np.float32) if training else None

    def forward(self, env) -> None:
        env[self.in_slot].reshape(self._grid).mean(axis=(3, 5), out=self.out)
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        gin = gbufs[self.in_slot]
        if gin is None:
            return
        np.divide(gbufs[self.out_slot], self.k * self.k, out=self._gout)
        self._gin.reshape(self._grid)[...] = self._gout[:, :, :, None, :, None]
        gin += self._gin


class Upsample2xStep:
    """Nearest-neighbour 2x upsampling as strided copies.

    Forward fills the even rows (two column-strided copies) and then
    duplicates them into the odd rows; backward is
    :func:`repro.autograd.tensor.sum_2x2_windows`, the one definition
    of the window sum's float32 order that autograd uses too.
    """

    def __init__(self, in_slot, out_slot, in_shape, training) -> None:
        n, c, h, w = in_shape
        self.in_slot, self.out_slot = in_slot, out_slot
        self.out_shape = (n, c, 2 * h, 2 * w)
        self.out = np.empty(self.out_shape, np.float32)
        self._even, self._odd = self.out[:, :, 0::2], self.out[:, :, 1::2]
        self._gsum = np.empty(in_shape, np.float32) if training else None
        self._gtmp = np.empty(in_shape, np.float32) if training else None

    def forward(self, env) -> None:
        x = env[self.in_slot]
        self._even[..., 0::2] = x
        self._even[..., 1::2] = x
        self._odd[...] = self._even
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        gin = gbufs[self.in_slot]
        if gin is not None:
            gin += sum_2x2_windows(gbufs[self.out_slot], self._gsum, self._gtmp)


class SoftmaxStep:
    """Channel softmax for compiled inference heads (``soft_infer``).

    Mirrors :func:`repro.autograd.functional.softmax` — which is
    ``exp(log_softmax(x))`` with the max-shift trick — operation for
    operation, so compiled class probabilities are bit-identical to the
    autograd path.  Inference-only: the distillation losses differentiate
    through ``log_softmax`` on the autograd side, so a traced softmax in
    a training graph falls back rather than risking a silent gradient
    mismatch.
    """

    def __init__(self, in_slot, out_slot, in_shape, axis: int, training: bool) -> None:
        if training:
            raise UntraceableError("softmax compiles for inference plans only")
        if axis != 1:
            raise UntraceableError(
                f"only channel softmax (axis=1) is compilable, got axis={axis}"
            )
        self.in_slot, self.out_slot = in_slot, out_slot
        self.out_shape = tuple(in_shape)
        self.out = np.empty(self.out_shape, np.float32)
        self._shifted = np.empty(self.out_shape, np.float32)
        self._exp = np.empty(self.out_shape, np.float32)

    def forward(self, env) -> None:
        x = env[self.in_slot]
        np.subtract(x, x.max(axis=1, keepdims=True), out=self._shifted)
        np.exp(self._shifted, out=self._exp)
        denom = self._exp.sum(axis=1, keepdims=True)
        np.log(denom, out=denom)
        # log-softmax, then its exp — the autograd composition, not
        # exp/denom, which differs in the last bits.
        np.subtract(self._shifted, denom, out=self._shifted)
        np.exp(self._shifted, out=self.out)
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:  # pragma: no cover - unreachable
        raise UntraceableError("softmax has no compiled backward")
