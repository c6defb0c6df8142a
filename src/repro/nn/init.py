"""Weight initialisation: He (Kaiming) normal for the ReLU networks."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # linear: (out, in)
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 4:  # conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """He initialisation for ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)

