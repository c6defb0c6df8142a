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
    """Batch normalisation over NCHW tensors.

    In training mode the batch statistics are used and running stats
    updated; in eval mode the running statistics are used by default.

    ``use_batch_stats_in_eval`` switches eval mode to *current-frame*
    statistics instead (running stats are still tracked but unused).
    The ShadowTutor student enables this: with online per-scene
    distillation, stale running statistics from pre-training lag the
    adapted feature distribution through the stacked BN layers, so
    inference-time batch statistics (one frame = thousands of pixels,
    so the estimates are stable) keep deployment behaviour consistent
    with the just-distilled weights — the standard practice in
    test-time-adaptation systems.
    """

    #: Recorded as a primitive by the engine's plan capture (the whole
    #: layer lowers to one per-channel scale/shift kernel).
    _engine_leaf = True

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        use_batch_stats_in_eval: bool = False,
    ) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.use_batch_stats_in_eval = use_batch_stats_in_eval
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        c = self.num_features
        if x.data.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x.data.shape[1]}")
        use_batch = self.training or self.use_batch_stats_in_eval
        if use_batch:
            mean = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            if self.training:
                self.set_buffer(
                    "running_mean",
                    (1 - self.momentum) * self.running_mean + self.momentum * mean,
                )
                self.set_buffer(
                    "running_var",
                    (1 - self.momentum) * self.running_var + self.momentum * var,
                )
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat_data = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
        out_data = x_hat_data * self.weight.data.reshape(1, c, 1, 1) + self.bias.data.reshape(1, c, 1, 1)

        weight, bias = self.weight, self.bias
        through_stats = use_batch  # backprop through batch statistics
        n_elem = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate((grad * x_hat_data).sum(axis=(0, 2, 3)))
            if bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                g_xhat = grad * weight.data.reshape(1, c, 1, 1)
                if through_stats:
                    # Full BN backward through batch statistics.
                    sum_g = g_xhat.sum(axis=(0, 2, 3), keepdims=True)
                    sum_gx = (g_xhat * x_hat_data).sum(axis=(0, 2, 3), keepdims=True)
                    gx = (
                        g_xhat - sum_g / n_elem - x_hat_data * sum_gx / n_elem
                    ) * inv_std.reshape(1, c, 1, 1)
                else:
                    gx = g_xhat * inv_std.reshape(1, c, 1, 1)
                x._accumulate(gx)

        return Tensor._make(out_data, (x, weight, bias), backward)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm2d({self.num_features})"


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
