"""Fused NumPy kernels executed by compiled plans.

Each kernel is a *step*: it reads input activations from the shared
``env`` slot table, writes its output into a buffer of its plan's
memory, and (when built for training) can push gradients backwards
through the same geometry.  All geometry work — strided tap views,
padded buffers, GEMM scratch — happens once at build time; executing a
step is pure array math with no per-call allocation on the main path,
in as few NumPy calls as its op allows: a conv's im2col is one copy of
every tap, a batch norm takes ``x - mean`` once for both its
statistics and its output.

Memory: a step allocates nothing itself.  Its constructor lists the
buffers it needs (``_buffers``) on the plan's :class:`Layout`, which
places every buffer of the plan in one allocation once the plan is
built and hands each step views of it (``_bind``).

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
``weight.data`` at execution time.  In-place optimizer updates and
rebinding loads (``load_state_dict`` / ``apply_state_dict``) are
therefore picked up automatically; no kernel caches packed weights.
The reference (``step.module``) is the only thing a kernel knows about
one model instance, which is what lets a plan be handed to another
instance of the same architecture (:mod:`repro.engine.plan_cache`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd.conv import _out_dim
from repro.autograd.tensor import sum_2x2_windows
from repro.nn.layers import batch_statistics


class UntraceableError(RuntimeError):
    """A traced graph contains an op or geometry the engine cannot compile."""


#: The role of a step's output activation (see :class:`Layout`).
OUT = "out"
#: Every buffer starts on a cache line.
_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class Layout:
    """One plan's memory, laid out once from the plan's own step order.

    Buffers are requested with :meth:`take` (a step lists its own with
    ``_buffers``, see :meth:`add`); :meth:`allocate` then places all of
    them in **one** zero-filled allocation, installs each view on its
    owner and calls the owner's ``_bind`` to derive the views built on
    them.  A dropped plan returns that allocation as a whole.

    A request's *role* says how long its bytes must keep their values:

    * ``None`` — private for the life of the plan: a padded image whose
      zero border is written once, a gradient installed on a
      ``Parameter``, and in train plans everything the adjoint reads.
    * :data:`OUT` — a step's output activation.  Private, unless
      :attr:`live` gives the step an interval ``(first, last)`` of step
      indexes over which it must hold its value (eval plans: from its
      producer to its last consumer, the whole plan for a plan output);
      then it shares bytes only with outputs whose intervals do not
      meet its own.  Closed intervals, so no step's output shares bytes
      with the inputs it reads.
    * any other name — scratch, dead between kernel calls: one buffer
      per role, sized to the largest request, every request a view of
      its start.  A kernel never uses one role twice in one call.
    """

    def __init__(self) -> None:
        #: ``(owner, key, shape, dtype, role)`` in request order.
        self.requests: list = []
        #: Step -> ``(first, last)`` for :data:`OUT` requests to pack;
        #: ``None`` keeps every output private.
        self.live: Optional[dict] = None
        #: The one allocation every buffer is a view of.
        self.memory: Optional[np.ndarray] = None

    def take(self, owner, key, shape, dtype=np.float32, role=None) -> None:
        """Request a C-contiguous ``shape`` buffer, to be installed as
        ``owner.<key>`` (or ``owner[key]`` for an integer key)."""
        self.requests.append((owner, key, tuple(shape), np.dtype(dtype), role))

    def add(self, step) -> None:
        """Request every buffer ``step._buffers()`` lists."""
        for key, shape, dtype, role in step._buffers():
            self.take(step, key, shape, dtype, role)

    def allocate(self) -> None:
        """Place every request, allocate once, install the views."""
        sizes = [
            _aligned(int(np.prod(shape)) * dtype.itemsize)
            for _, _, shape, dtype, _ in self.requests
        ]
        offsets = [0] * len(sizes)
        top = 0
        scratch: dict = {}
        packed = []
        for i, (*_, role) in enumerate(self.requests):
            if role == OUT and self.live is not None:
                packed.append(i)
            elif role is None or role == OUT:
                offsets[i], top = top, top + sizes[i]
            else:
                scratch.setdefault(role, []).append(i)
        for members in scratch.values():
            for i in members:
                offsets[i] = top
            top += max(sizes[i] for i in members)
        spans = [self.live[self.requests[i][0]] for i in packed]
        packed_at, packed_bytes = _pack([sizes[i] for i in packed], spans)
        for i, at in zip(packed, packed_at):
            offsets[i] = top + at
        top += packed_bytes
        memory = np.zeros(top + _ALIGN, np.uint8)
        start = -memory.ctypes.data % _ALIGN
        self.memory = memory
        for (owner, key, shape, dtype, _), off in zip(self.requests, offsets):
            lo = start + off
            view = memory[lo : lo + int(np.prod(shape)) * dtype.itemsize]
            view = view.view(dtype).reshape(shape)
            if isinstance(key, int):
                owner[key] = view
            else:
                setattr(owner, key, view)
        owners = {id(owner): owner for owner, *_ in self.requests}
        for owner in owners.values():
            bind = getattr(owner, "_bind", None)
            if bind is not None:
                bind()


def _pack(sizes: List[int], spans: List[tuple]) -> tuple:
    """Offsets for buffers live over closed ``spans`` such that two
    whose spans meet never share bytes, and the total extent: largest
    first, each at the lowest offset clear of the buffers already
    placed whose spans meet its own."""
    offsets = [0] * len(sizes)
    placed: list = []
    top = 0
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], spans[i])):
        first, last = spans[i]
        at = 0
        for lo, hi in sorted(
            (lo, hi) for lo, hi, lo_t, hi_t in placed if lo_t <= last and first <= hi_t
        ):
            if at + sizes[i] <= lo:
                break
            at = max(at, hi)
        placed.append((at, at + sizes[i], first, last))
        offsets[i] = at
        top = max(top, at + sizes[i])
    return offsets, top


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
    """conv2d [+ bias] [+ fused ReLU] via im2col and GEMM.

    im2col and col2im run over one strided view of every kernel *tap*
    of the padded scratch, built once from the geometry
    (:meth:`_tap_views`): im2col is one copy of it into the column
    matrix, col2im one float64 ``+=`` per tap out of it, because the
    taps' windows overlap.
    """

    def __init__(
        self,
        module,
        in_slot: int,
        out_slot: int,
        in_shape: Sequence[int],
        fuse_relu: bool,
        training: bool,
        layout: Layout,
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
        self._training = training
        # A flat-tap image is padded vertically only (see _tap_views);
        # any other is channel-major like the conv/add/concat buffers on
        # either side, so for n > 1 the interior fill and the tap copies
        # are layout-aligned rather than full transposes.
        self._pad_shape = (
            (c, (h + 2 * ph) * w + 2 * pw) if self.flat
            else (c, n, h + 2 * ph, w + 2 * pw)
        )
        self._cols: Optional[np.ndarray] = None
        self._saved_cols: Optional[np.ndarray] = None
        layout.add(self)

    def _buffers(self):
        n, nl, training = self.n, self.n * self.L, self._training
        yield "_out_mat", (self.oc, nl), np.float32, OUT
        if not (self.is_1x1 and n == 1):
            # Column scratch in im2col layout: axis order (c, kh, kw, n,
            # L) flattens to the same (C*kh*kw, N*L) matrix autograd
            # builds.  An eval plan reads it inside forward only; a
            # train plan keeps it for the weight gradient.
            yield "_cols", (self.K, nl), np.float32, None if training else "cols"
        if not self.is_1x1:
            yield "_xp", self._pad_shape, np.float32, None
        if not training:
            return
        if self.fuse_relu:
            yield "_mask", self.out_shape, bool, "mask"
            yield "_gpre", self.out_shape, np.float32, "gpre"
        yield "_gw", (self.oc, self.K), np.float32, None
        yield "_gw_t", (self.K, self.oc), np.float32, "gw_t"
        yield "_gcols", (self.K, nl), np.float32, "gcols"
        if n > 1:
            yield "_gmat", (self.oc, nl), np.float32, "gmat"
        if not self.is_1x1:
            # col2im accumulates in float64 and downcasts once, as
            # autograd's does (see :meth:`_scatter`).
            yield "_gxp", self._pad_shape, np.float64, "col2im"
            yield "_gx32", self.x_shape, np.float32, "gx32"

    def _bind(self) -> None:
        n = self.n
        # The NCHW output is a free view of the GEMM result; for n > 1 it
        # is the same transposed view autograd produces, so downstream
        # reductions (batch-norm statistics) iterate memory in the same
        # order and stay bit-identical to the define-by-run path.
        self.out = (
            self._out_mat.reshape(1, self.oc, self.oh, self.ow)
            if n == 1
            else self._out_mat.reshape(self.oc, n, self.oh, self.ow).transpose(1, 0, 2, 3)
        )
        if self.is_1x1:
            return
        self._xp_interior, self._windows = self._tap_views(self._xp)
        self._cols_grid = self._cols.reshape(self._windows.shape)
        self._wrapped = self._wrapped_cells(self._cols)
        if self._training:
            self._gxp_interior, windows = self._tap_views(self._gxp)
            grid = self._gcols.reshape(windows.shape)
            self._gtaps = [
                (windows[:, i, j], grid[:, i, j])
                for i in range(self.kh) for j in range(self.kw)
            ]
            self._gwrapped = self._wrapped_cells(self._gcols)

    def _tap_views(self, scratch: np.ndarray) -> tuple:
        """``(interior, windows)`` for one direction of the conv.

        ``scratch`` is a zeroed padded image (its zero border is never
        written), ``interior`` its ``(n, c, h, w)`` unpadded view, and
        ``windows`` one strided view of every kernel tap at once, laid
        out like the column matrix reshaped to ``windows.shape``: entry
        ``[:, i, j]`` is the cells of ``scratch`` tap ``(i, j)``
        touches, and im2col is one copy of ``windows`` into that grid.
        The taps overlap in ``scratch``, so col2im cannot be one add:
        it adds the grid into ``windows[:, i, j]`` one tap at a time,
        in autograd's col2im order (kh, then kw).

        *Slice taps* (any geometry): the image is padded on all four
        sides and ``windows`` is ``(c, kh, kw, n, oh, ow)``, tap
        ``(i, j)`` the strided slice starting at row ``i``, column
        ``j``.

        *Flat taps* (``self.flat``): the image is padded vertically
        only, so its row pitch is ``w`` — the column matrix's — and
        output cell ``y*w + x`` of tap ``(i, j)`` sits at flat offset
        ``(y*w + x) + i*w + j``.  ``windows`` is then ``(c, kh, kw,
        L)``, each tap one contiguous ``(c, L)`` run of the scratch
        (``pw`` cells of slack at either end keep the corner taps in
        bounds), several times cheaper to move than ``oh`` short rows.
        A run crosses the row ends where the padded image has its zero
        columns; the cells that wrapped into a neighbouring row are
        zeroed in the column matrix (:meth:`_wrapped_cells`).
        """
        n, c, h, w = self.x_shape
        kh, kw, ph, pw, s = self.kh, self.kw, self.ph, self.pw, self.stride
        item = scratch.itemsize
        if self.flat:
            lo = pw + ph * w
            interior = scratch[:, lo : lo + h * w].reshape(1, c, h, w)
            shape = (c, kh, kw, self.L)
            strides = (scratch.strides[0], w * item, item, item)
        else:
            sc, sn, sh, sw = scratch.strides
            interior = scratch.transpose(1, 0, 2, 3)[:, :, ph : ph + h, pw : pw + w]
            shape = (c, kh, kw, n, self.oh, self.ow)
            strides = (sc, sh, sw, sn, s * sh, s * sw)
        # A strided view of the scratch itself (NumPy checks it stays in
        # bounds), so like every other view its base is the plan's memory.
        windows = np.ndarray(shape, scratch.dtype, buffer=scratch, strides=strides)
        return interior, windows

    def _wrapped_cells(self, cols: np.ndarray) -> list:
        """Views of ``cols`` (a column matrix) holding the flat taps'
        wrapped cells: the ``|j - pw|`` cells per row of tap ``(i, j)``
        that ran into a neighbouring row, one view per column offset
        ``j != pw`` covering every ``i`` and channel — two for a 3-wide
        kernel.  They are padding, so they are zeroed after the copy
        when gathering, and before the adds when scattering (autograd's
        col2im crops them).  Adding that ``+0.0`` is the identity — a
        float64 sum that starts at ``+0.0`` can never hold ``-0.0`` —
        and no other value, tap order or rounding step differs from the
        slice taps.  Slice taps wrap nothing."""
        if not self.flat:
            return []
        w, pw = self.w, self.pw
        rows = cols.reshape(self.c, self.kh, self.kw, self.oh, w)
        cells = []
        for j in range(self.kw):
            dx = j - pw
            if dx:
                cells.append(
                    rows[:, :, j, :, :-dx] if dx < 0
                    else rows[:, :, j, :, max(w - dx, 0) :]
                )
        return cells

    # ------------------------------------------------------------------
    def _gather(self, x: np.ndarray) -> np.ndarray:
        """Fill the column matrix (layout identical to autograd im2col):
        one copy into the padded image, one of every tap, and one
        zeroing per wrapping column offset."""
        if self.is_1x1:
            if self.n == 1:
                return x.reshape(self.c, self.L)
            np.copyto(
                self._cols.reshape(self.c, self.n, self.h, self.w),
                x.transpose(1, 0, 2, 3),
            )
            return self._cols
        self._xp_interior[...] = x
        np.copyto(self._cols_grid, self._windows)
        for cells in self._wrapped:
            cells.fill(0.0)
        return self._cols

    def _scatter(self) -> np.ndarray:
        """col2im of ``_gcols``: one float64 ``+=`` per tap into the
        zeroed scratch, in autograd's col2im tap order, then one
        downcast — bit-identical to the define-by-run input gradient
        (and to the seed's bincount)."""
        self._gxp.fill(0.0)
        for cells in self._gwrapped:
            cells.fill(0.0)
        for window, col in self._gtaps:
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
            # cols . grad^T, then one transposed copy: BLAS runs this
            # orientation faster, and every entry is the same dot
            # product in the same order as grad . cols^T (pinned by
            # tests/test_engine.py::TestWeightGradientOrientation).
            np.dot(self._saved_cols, grad_mat.T, out=self._gw_t)
            np.copyto(self._gw, self._gw_t.T)
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
    """BatchNorm2d as per-channel scale/shift over the batch statistics,
    in train and eval plans alike (the layer has no other mode)."""

    def __init__(
        self, module, in_slot, out_slot, in_shape, training: bool,
        layout: Layout,
    ) -> None:
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
        self._inv_std: Optional[np.ndarray] = None
        layout.add(self)

    def _buffers(self):
        shape, training = self.out_shape, self._training
        yield "out", shape, np.float32, OUT
        # x-hat: read by a train plan's backward, by an eval plan's
        # forward only.
        yield "_xhat", shape, np.float32, None if training else "xhat"
        if training:
            yield "_tmp", shape, np.float32, "bn_tmp"
            yield "_tmp2", shape, np.float32, "bn_tmp2"

    def _bind(self) -> None:
        # The square of batch_statistics goes into the output buffer,
        # which is written only after the statistics are taken, in the
        # memory order of x: C order (a plan input, a batch-norm, relu
        # or upsample output; any x at n == 1) or the channel-major
        # order of a conv (n > 1), add or concat output.  Indexed by
        # x.flags.c_contiguous.
        n, c, h, w = self.out_shape
        self._squares = (
            self.out.reshape(c, n, h, w).transpose(1, 0, 2, 3), self.out
        )

    def forward(self, env: List[np.ndarray]) -> None:
        m = self.module
        x = env[self.in_slot]
        c = self.c
        _, var = batch_statistics(
            x, self._xhat, self._squares[x.flags.c_contiguous]
        )
        inv_std = 1.0 / np.sqrt(var + m.eps)
        self._xhat *= inv_std
        np.multiply(self._xhat, m.weight.data.reshape(1, c, 1, 1), out=self.out)
        self.out += m.bias.data.reshape(1, c, 1, 1)
        self._inv_std = inv_std
        env[self.out_slot] = self.out

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
            sum_g = tmp.sum(axis=(0, 2, 3), keepdims=True)
            np.multiply(tmp, self._xhat, out=tmp2)
            sum_gx = tmp2.sum(axis=(0, 2, 3), keepdims=True)
            tmp -= sum_g / self.n_elem
            np.multiply(self._xhat, sum_gx, out=tmp2)
            tmp2 /= self.n_elem
            tmp -= tmp2
            tmp *= self._inv_std.reshape(1, c, 1, 1)
            gin += tmp


class FrozenBatchNormStep:
    """FrozenBatchNorm2d as one multiply-add per element, in
    ``FrozenBatchNorm2d.forward``'s order: ``(x * s) * weight + bias``.
    Eval plans only — the layer has no backward."""

    def __init__(self, module, in_slot, out_slot, in_shape, layout: Layout) -> None:
        self.module = module
        self.in_slot, self.out_slot = in_slot, out_slot
        self.c = in_shape[1]
        self.out_shape = tuple(in_shape)
        self._scale = module.scale
        layout.add(self)

    def _buffers(self):
        yield "out", self.out_shape, np.float32, OUT

    def forward(self, env: List[np.ndarray]) -> None:
        m = self.module
        c = self.c
        np.multiply(env[self.in_slot], self._scale, out=self.out)
        self.out *= m.weight.data.reshape(1, c, 1, 1)
        self.out += m.bias.data.reshape(1, c, 1, 1)
        env[self.out_slot] = self.out


class ReluStep:
    """Standalone ReLU (the fusable ones are folded into conv/add)."""

    def __init__(
        self, in_slot, out_slot, in_shape, training: bool,
        layout: Layout,
    ) -> None:
        self.in_slot, self.out_slot = in_slot, out_slot
        self.out_shape = tuple(in_shape)
        self._training = training
        layout.add(self)

    def _buffers(self):
        yield "out", self.out_shape, np.float32, OUT
        if self._training:
            yield "_mask", self.out_shape, bool, "mask"
            yield "_tmp", self.out_shape, np.float32, "gpre"

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

    def __init__(
        self, a_slot, b_slot, out_slot, in_shape, fuse_relu, training,
        layout: Layout,
    ) -> None:
        self.a_slot, self.b_slot, self.out_slot = a_slot, b_slot, out_slot
        self.fuse_relu = fuse_relu
        self.out_shape = tuple(in_shape)
        self._training = training
        layout.add(self)

    def _buffers(self):
        n, c, h, w = self.out_shape
        # Residual adds sit between conv outputs (channel-major memory)
        # and the next block's batch-norm reduction; laying the buffer
        # out in the same memory order autograd's ufunc picks keeps
        # batched statistics bit-identical (trivial for n == 1).
        yield "_out_cnhw", (c, n, h, w), np.float32, OUT
        if self._training and self.fuse_relu:
            yield "_mask", self.out_shape, bool, "mask"
            yield "_gpre", self.out_shape, np.float32, "gpre"

    def _bind(self) -> None:
        self.out = self._out_cnhw.transpose(1, 0, 2, 3)

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

    def __init__(
        self, in_slots, out_slot, in_shapes, training,
        layout: Layout,
    ) -> None:
        axis_sizes = [s[1] for s in in_shapes]
        n, _, h, w = in_shapes[0]
        for s in in_shapes:
            if (s[0], s[2], s[3]) != (n, h, w):
                raise UntraceableError("concat inputs disagree on non-channel dims")
        self.in_slots = tuple(in_slots)
        self.out_slot = out_slot
        self.offsets = np.cumsum([0] + axis_sizes).tolist()
        self.out_shape = (n, int(sum(axis_sizes)), h, w)
        layout.add(self)

    def _buffers(self):
        n, c, h, w = self.out_shape
        # Match np.concatenate's layout choice for channel-major inputs
        # (the conv/add outputs feeding the Figure-3b skips), so the
        # consuming batch-norm reduces memory in autograd's order and
        # batched outputs stay bit-identical (trivial for n == 1).
        yield "_out_cnhw", (c, n, h, w), np.float32, OUT

    def _bind(self) -> None:
        self.out = self._out_cnhw.transpose(1, 0, 2, 3)

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


class Upsample2xStep:
    """Nearest-neighbour 2x upsampling as strided copies.

    Forward fills the even rows (two column-strided copies) and then
    duplicates them into the odd rows; backward is
    :func:`repro.autograd.tensor.sum_2x2_windows`, the one definition
    of the window sum's float32 order that autograd uses too.
    """

    def __init__(
        self, in_slot, out_slot, in_shape, training,
        layout: Layout,
    ) -> None:
        n, c, h, w = in_shape
        self.in_slot, self.out_slot = in_slot, out_slot
        self.in_shape = tuple(in_shape)
        self.out_shape = (n, c, 2 * h, 2 * w)
        self._training = training
        layout.add(self)

    def _buffers(self):
        yield "out", self.out_shape, np.float32, OUT
        if self._training:
            yield "_gsum", self.in_shape, np.float32, "gsum"
            yield "_gtmp", self.in_shape, np.float32, "gtmp"

    def _bind(self) -> None:
        self._even, self._odd = self.out[:, :, 0::2], self.out[:, :, 1::2]

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

