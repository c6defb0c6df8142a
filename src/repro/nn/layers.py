"""Common layers: Conv2d, BatchNorm2d, ReLU and the Sequential container."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.conv import conv2d
from repro.autograd.tensor import Tensor
from repro.nn.init import kaiming_normal
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """2-D convolution layer.

    ``kernel_size`` may be an int or an ``(kh, kw)`` pair — the student
    blocks of ShadowTutor (Figure 3a) use 3x3, 3x1, 1x3 and 1x1 kernels.
    Padding defaults to "same" for stride 1 (odd kernels).
    """

    #: Recorded as a primitive by the engine's plan capture (the whole
    #: layer lowers to one fused gather+GEMM kernel).
    _engine_leaf = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        stride: int = 1,
        padding: Union[str, int, Tuple[int, int]] = "same",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        kh, kw = kernel_size
        if padding == "same":
            padding = (kh // 2, kw // 2)
        elif isinstance(padding, int):
            padding = (padding, padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding: Tuple[int, int] = padding
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            kaiming_normal(rng, (out_channels, in_channels, kh, kw))
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        if self.bias is None:
            object.__setattr__(self, "bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride})"
        )


def batch_statistics(
    x: np.ndarray, diff: np.ndarray, square: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(mean, var)`` of an NCHW ``x`` over ``(N, H, W)``,
    each ``(1, C, 1, 1)``, with ``diff`` left holding ``x - mean``.

    The reductions and divides are those of ``x.mean(axis=(0, 2, 3))``
    and ``x.var(axis=(0, 2, 3))`` (NumPy's ``_mean`` / ``_var``): one
    float32 ``add.reduce`` of ``x``, a true divide by the ``intp``
    count, the square of ``x - mean``, a second reduce and divide —
    but the sum is taken once, not twice, and ``x - mean`` is computed
    once and kept.  ``diff`` may have any layout.  ``square`` is
    scratch and must have *x's* memory order: the pairwise sum follows
    the memory order of the array it reduces, and ``x.var`` squares
    into a temporary laid out like ``x``.
    """
    count = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
    mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    np.subtract(x, mean, out=diff)
    np.square(diff, out=square)
    var = np.add.reduce(square, axis=(0, 2, 3), keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean, var


def batch_norm_forward(x, weight, bias, eps: float, xhat, square, out) -> np.ndarray:
    """Batch-normalise an NCHW ``x`` into ``out`` (``x_hat * weight +
    bias``, ``x_hat = (x - mean) * inv_std`` over the
    :func:`batch_statistics` of ``x``), leaving ``x_hat`` in ``xhat``.
    Returns ``inv_std``, ``(1, C, 1, 1)``.  ``square`` is the statistics'
    scratch, in x's memory order; it may be ``out``."""
    c = x.shape[1]
    _, var = batch_statistics(x, xhat, square)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, weight.reshape(1, c, 1, 1), out=out)
    out += bias.reshape(1, c, 1, 1)
    return inv_std


def batch_norm_vjp(grad, xhat, inv_std, weight, wants, tmp, tmp2) -> tuple:
    """``(g_weight, g_bias, g_x)`` of :func:`batch_norm_forward` at the
    out gradient ``grad``, ``None`` where ``wants`` (weight, bias, input)
    is false.  ``g_x`` is ``tmp``, evaluated as ``((g_xhat - sum_g/n) -
    (x_hat*sum_gx)/n) * inv_std`` with ``g_xhat = grad * weight``.  The
    channel sums over products follow the memory order of the scratch
    ``tmp`` / ``tmp2``, the bias sum that of ``grad``."""
    want_w, want_b, want_x = wants
    g_w = g_b = g_x = None
    if want_w:
        np.multiply(grad, xhat, out=tmp)
        g_w = tmp.sum(axis=(0, 2, 3))
    if want_b:
        g_b = grad.sum(axis=(0, 2, 3))
    if want_x:
        n, c, h, w = grad.shape
        np.multiply(grad, weight.reshape(1, c, 1, 1), out=tmp)  # g_xhat
        sum_g = tmp.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(tmp, xhat, out=tmp2)
        sum_gx = tmp2.sum(axis=(0, 2, 3), keepdims=True)
        tmp -= sum_g / (n * h * w)
        np.multiply(xhat, sum_gx, out=tmp2)
        tmp2 /= n * h * w
        tmp -= tmp2
        tmp *= inv_std
        g_x = tmp
    return g_w, g_b, g_x


class BatchNorm2d(Module):
    """Batch normalisation over NCHW tensors, always with the statistics
    of the batch it is given.

    There are no running statistics and no eval mode.  The ShadowTutor
    student normalises each frame with its own statistics at inference
    too: with online per-scene distillation, running statistics from
    pre-training would lag the adapted feature distribution through the
    stacked BN layers, while one frame (thousands of pixels) gives
    stable estimates that match the just-distilled weights — the
    standard practice in test-time-adaptation systems.
    """

    #: Recorded as a primitive by the engine's plan capture (the whole
    #: layer lowers to one per-channel scale/shift kernel).
    _engine_leaf = True

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        c = self.num_features
        if x.data.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x.data.shape[1]}")
        # x-hat and the output are laid out like x, as ``x.data - mean``
        # and ``x_hat * weight + bias`` would be; the output is also
        # the statistics' square scratch.
        x_hat, out = np.empty_like(x.data), np.empty_like(x.data)
        inv_std = batch_norm_forward(
            x.data, self.weight.data, self.bias.data, self.eps, x_hat, out, out
        )
        weight, bias = self.weight, self.bias

        def backward(grad: np.ndarray) -> None:
            g_w, g_b, g_x = batch_norm_vjp(
                grad, x_hat, inv_std, weight.data,
                (weight.requires_grad, bias.requires_grad, x.requires_grad),
                np.empty(grad.shape, np.float32), np.empty(grad.shape, np.float32),
            )
            if g_w is not None:
                weight._accumulate(g_w)
            if g_b is not None:
                bias._accumulate(g_b)
            if g_x is not None:
                x._accumulate(g_x)

        return Tensor._make(out, (x, weight, bias), backward)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm2d({self.num_features})"


class FrozenBatchNorm2d(Module):
    """Batch normalisation frozen at its initial statistics (mean 0,
    variance 1): the fixed per-channel affine ``(x * s) * weight + bias``
    with ``s = float32(1 / sqrt(1 + eps))``.

    The neural teacher's normalisation.  The teacher is never trained,
    so its statistics never leave their initial values and the layer
    needs neither statistics nor a backward; ``s`` is computed in the
    order a batch norm evaluates ``1 / sqrt(var + eps)`` at ``var = 1``,
    so outputs are bitwise those of such a batch norm.
    """

    #: Recorded as a primitive by the engine's plan capture (the whole
    #: layer lowers to one eval-only multiply-add kernel).
    _engine_leaf = True

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))

    @property
    def scale(self) -> np.float32:
        """``s``: the reciprocal standard deviation at variance 1."""
        return np.float32(1.0) / np.sqrt(np.float32(1.0) + np.float32(self.eps))

    def forward(self, x: Tensor) -> Tensor:
        c = self.num_features
        if x.data.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x.data.shape[1]}")
        w = self.weight.data.reshape(1, c, 1, 1)
        b = self.bias.data.reshape(1, c, 1, 1)
        return Tensor(x.data * self.scale * w + b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrozenBatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order = []
        for i, mod in enumerate(modules):
            setattr(self, f"m{i}", mod)
            self._order.append(f"m{i}")

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, idx: int) -> Module:
        return getattr(self, self._order[idx])
