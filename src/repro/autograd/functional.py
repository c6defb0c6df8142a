"""Functional ops: log-softmax and the segmentation loss.

These are the numerically sensitive pieces — log-softmax uses the usual
max-shift trick, and the weighted cross-entropy mirrors the LVS loss
weighting described in ShadowTutor section 5.2 (pixels near and within
non-background objects are up-weighted by a factor of 5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor


def log_softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(denom)
    softmax = exp / denom

    def backward(grad: np.ndarray) -> None:
        # d/dx log_softmax = grad - softmax * sum(grad, axis)
        x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(
    logits: Tensor,
    target: np.ndarray,
    weight_map: Optional[np.ndarray] = None,
) -> Tensor:
    """Pixel-wise cross-entropy for dense prediction.

    Parameters
    ----------
    logits:
        ``(N, C, H, W)`` raw scores.
    target:
        ``(N, H, W)`` integer class indices.
    weight_map:
        Optional ``(N, H, W)`` per-pixel loss weights.  ShadowTutor
        adopts the LVS scheme: weight 5 on/near non-background objects,
        1 elsewhere; pass the map built by
        :func:`repro.segmentation.losses.lvs_weight_map`.
    """
    n, c, h, w = logits.data.shape
    target = np.asarray(target)
    if target.shape != (n, h, w):
        raise ValueError(f"target shape {target.shape} != {(n, h, w)}")
    logp = log_softmax(logits, axis=1)

    flat = logp.reshape(n, c, h * w)
    idx = target.reshape(n, h * w)
    gathered_data = np.take_along_axis(flat.data, idx[:, None, :], axis=1)[:, 0, :]

    if weight_map is None:
        weights = np.ones((n, h * w), dtype=np.float32)
    else:
        weights = np.asarray(weight_map, dtype=np.float32).reshape(n, h * w)
    norm = float(weights.sum())
    out_data = np.asarray(-(gathered_data * weights).sum() / norm, dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        # Scatter -w/norm into the gathered positions of logp's grad.
        g = np.zeros_like(flat.data)
        np.put_along_axis(
            g, idx[:, None, :], (-weights / norm)[:, None, :], axis=1
        )
        flat._accumulate(g * grad)

    return Tensor._make(out_data, (flat,), backward)

