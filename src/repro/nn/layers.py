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
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat_data = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
        out_data = x_hat_data * self.weight.data.reshape(1, c, 1, 1) + self.bias.data.reshape(1, c, 1, 1)

        weight, bias = self.weight, self.bias
        n_elem = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate((grad * x_hat_data).sum(axis=(0, 2, 3)))
            if bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                g_xhat = grad * weight.data.reshape(1, c, 1, 1)
                sum_g = g_xhat.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (g_xhat * x_hat_data).sum(axis=(0, 2, 3), keepdims=True)
                gx = (
                    g_xhat - sum_g / n_elem - x_hat_data * sum_gx / n_elem
                ) * inv_std.reshape(1, c, 1, 1)
                x._accumulate(gx)

        return Tensor._make(out_data, (x, weight, bias), backward)

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
