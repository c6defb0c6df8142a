"""Fused NumPy kernels executed by compiled plans.

Each kernel is a *step*: it reads input activations from the shared
``env`` slot table, writes its output into a buffer of its plan's
memory, and (when built for training) can push gradients backwards
through the same geometry.  All geometry work — strided tap views,
padded buffers, GEMM scratch — happens once at build time; executing a
step is pure array math with no per-call allocation on the main path,
in as few NumPy calls as its op allows: a conv's column gather is one
copy of every tap, a batch norm takes ``x - mean`` once for both its
statistics and its output.

Memory: a step allocates nothing itself.  Its constructor lists the
buffers it needs (``_buffers``) on the plan's :class:`Layout`, which
places every buffer of the plan in one allocation once the plan is
built and hands each step views of it (``_bind``).

Numeric contract: an op with substantive arithmetic is written once,
over plain arrays with caller-supplied buffers, and autograd's closure
and the step both call it — conv (:mod:`repro.autograd.conv`), batch
norm (:mod:`repro.nn.layers`), the upsample's window sum
(:mod:`repro.autograd.tensor`) and the loss
(:mod:`repro.autograd.functional`).  ReLU, add, concat and the
upsample's forward are one NumPy call each on either side.  A step
keeps only what is its own: slots, its :class:`Layout` requests, the
fused ReLU and the layouts of its buffers, which are autograd's (a
reduction follows the memory order of the array it reduces).  So plan
*forward* outputs are byte-identical to the define-by-run forward, and
argmax predictions cannot drift between the two paths.  Backward is
bit-identical too: each ``backward`` accumulates into its gradient
buffers in its closure's order, and the *cross*-kernel order — which
decides how tensors with three or more gradient consumers (the
Figure-3b skips under full distillation) sum their float32
contributions — is scheduled by :mod:`repro.engine.adjoint` from a
simulation of autograd's traversal, not by reversed lowering order.

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

from repro.autograd.conv import ConvGeometry, ConvTaps, conv_forward, conv_vjp
from repro.autograd.tensor import sum_2x2_windows
from repro.nn.layers import batch_norm_forward, batch_norm_vjp


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


class ConvStep(ConvGeometry):
    """conv2d [+ bias] [+ fused ReLU]: :func:`repro.autograd.conv.conv_forward`
    and :func:`~repro.autograd.conv.conv_vjp` on views of the plan's
    memory, with the tap views (:class:`~repro.autograd.conv.ConvTaps`)
    built once from the geometry."""

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
        if module.in_channels != in_shape[1]:
            raise UntraceableError(
                f"conv expects {module.in_channels} channels, traced input has {in_shape[1]}"
            )
        super().__init__(tuple(in_shape), module.kernel_size, module.padding, module.stride)
        self.module = module
        self.in_slot, self.out_slot = in_slot, out_slot
        self.fuse_relu = fuse_relu
        self.oc = module.out_channels
        self.out_shape = (self.n, self.oc, self.oh, self.ow)
        self._training = training
        self._cols: Optional[np.ndarray] = None
        self._xtaps = self._gtaps = None
        self._gx32: Optional[np.ndarray] = None
        layout.add(self)

    def _buffers(self):
        n, nl, training = self.n, self.n * self.L, self._training
        yield "_out_mat", (self.oc, nl), np.float32, OUT
        if not (self.is_1x1 and n == 1):
            # An eval plan reads the columns inside forward only; a
            # train plan keeps them for the weight gradient.
            yield "_cols", (self.K, nl), np.float32, None if training else "cols"
        if not self.is_1x1:
            yield "_xp", self.pad_shape, np.float32, None
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
            yield "_gxp", self.pad_shape, np.float64, "scatter"
        if not (self.is_1x1 and n == 1):
            yield "_gx32", self.x_shape, np.float32, "gx32"

    def _bind(self) -> None:
        # The output is the same NCHW view of the GEMM result autograd's
        # is, so downstream reductions (batch-norm statistics) iterate
        # memory in the same order and stay bit-identical to it.
        self.out = self.nchw(self._out_mat)
        if not self.is_1x1:
            self._xtaps = ConvTaps(self, self._xp, self._cols)
            if self._training:
                self._gtaps = ConvTaps(self, self._gxp, self._gcols)

    def forward(self, env: List[np.ndarray]) -> None:
        bias = self.module.bias
        self._saved_cols = conv_forward(
            self, env[self.in_slot], self.module.weight.data.reshape(self.oc, self.K),
            None if bias is None else bias.data, self._cols, self._xtaps, self._out_mat,
        )
        if self.fuse_relu:
            np.maximum(self._out_mat, 0.0, out=self._out_mat)
        env[self.out_slot] = self.out

    def backward(self, env: List[np.ndarray], gbufs: List[Optional[np.ndarray]]) -> None:
        g = gbufs[self.out_slot]
        if self.fuse_relu:
            np.greater(self.out, 0.0, out=self._mask)
            np.multiply(g, self._mask, out=self._gpre)
            g = self._gpre
        if self.n == 1:
            grad_mat = g.reshape(self.oc, self.L)
        else:
            grad_mat = self._gmat
            np.copyto(self.nchw(grad_mat), g)
        weight, bias = self.module.weight, self.module.bias
        gin = gbufs[self.in_slot]
        g_w, g_b, g_x = conv_vjp(
            self, g, grad_mat, self._saved_cols, weight.data.reshape(self.oc, self.K),
            (weight.requires_grad, bias is not None and bias.requires_grad,
             gin is not None),
            self._gw_t, self._gw, self._gcols, self._gtaps, self._gx32,
        )
        if g_w is not None:
            _set_grad(weight, g_w.reshape(weight.data.shape))
        if g_b is not None:
            _set_grad(bias, g_b)
        if g_x is not None:
            # The scatter's downcast comes before this float32 add, as
            # in autograd's accumulation.
            gin += g_x


class BatchNormStep:
    """BatchNorm2d as :func:`repro.nn.layers.batch_norm_forward` and
    :func:`~repro.nn.layers.batch_norm_vjp` on views of the plan's
    memory, in train and eval plans alike (the layer has no other
    mode)."""

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
        self._inv_std = batch_norm_forward(
            x, m.weight.data, m.bias.data, m.eps, self._xhat,
            self._squares[x.flags.c_contiguous], self.out,
        )
        env[self.out_slot] = self.out

    def backward(self, env, gbufs) -> None:
        m = self.module
        gin = gbufs[self.in_slot]
        g_w, g_b, g_x = batch_norm_vjp(
            gbufs[self.out_slot], self._xhat, self._inv_std, m.weight.data,
            (m.weight.requires_grad, m.bias.requires_grad, gin is not None),
            self._tmp, self._tmp2,
        )
        if g_w is not None:
            _set_grad(m.weight, g_w)
        if g_b is not None:
            _set_grad(m.bias, g_b)
        if g_x is not None:
            gin += g_x


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

