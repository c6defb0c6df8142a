"""Functional ops: log-softmax and the segmentation loss.

These are the numerically sensitive pieces — log-softmax uses the usual
max-shift trick, and the weighted cross-entropy mirrors the LVS loss
weighting described in ShadowTutor section 5.2 (pixels near and within
non-background objects are up-weighted by a factor of 5).

The loss is written once, over plain arrays with caller-supplied
buffers: :func:`cross_entropy_forward` and :func:`cross_entropy_vjp`.
Autograd's :func:`cross_entropy` runs them on transient arrays; the
compiled train step (:mod:`repro.engine.training`) on views of its
plan's memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor


def _log_softmax_into(x, axis: int, shifted, exp, softmax) -> np.ndarray:
    """Numerically stable log-softmax of ``x`` along ``axis``, into
    ``shifted`` (returned); ``softmax`` is left holding the softmax."""
    np.subtract(x, x.max(axis=axis, keepdims=True), out=shifted)
    np.exp(shifted, out=exp)
    denom = exp.sum(axis=axis, keepdims=True)
    np.divide(exp, denom, out=softmax)
    shifted -= np.log(denom)
    return shifted


def _log_softmax_vjp(grad, softmax, axis: int, out) -> np.ndarray:
    """d/dx log_softmax: ``grad - softmax * sum(grad, axis)``, into ``out``."""
    np.multiply(softmax, grad.sum(axis=axis, keepdims=True), out=out)
    np.subtract(grad, out, out=out)
    return out


def log_softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted, exp, softmax = (np.empty_like(x.data) for _ in range(3))
    out_data = _log_softmax_into(x.data, axis, shifted, exp, softmax)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(_log_softmax_vjp(grad, softmax, axis, np.empty_like(grad)))

    return Tensor._make(out_data, (x,), backward)


def cross_entropy_forward(logits, target, weight_map, shifted, exp, softmax) -> tuple:
    """The weighted mean of ``-log_softmax(logits)`` at ``target``, and
    what :func:`cross_entropy_vjp` reads: ``(loss, saved)``, ``loss`` a
    float32 0-d array.  ``shifted`` / ``exp`` / ``softmax`` are scratch
    shaped like ``logits``; ``softmax`` keeps the softmax."""
    n, c, h, w = logits.shape
    target = np.asarray(target)
    if target.shape != (n, h, w):
        raise ValueError(f"target shape {target.shape} != {(n, h, w)}")
    logp = _log_softmax_into(logits, 1, shifted, exp, softmax)
    idx = target.reshape(n, h * w)
    gathered = np.take_along_axis(logp.reshape(n, c, h * w), idx[:, None, :], axis=1)[:, 0, :]
    if weight_map is None:
        weights = np.ones((n, h * w), dtype=np.float32)
    else:
        weights = np.asarray(weight_map, dtype=np.float32).reshape(n, h * w)
    norm = float(weights.sum())
    loss = np.asarray(-(gathered * weights).sum() / norm, dtype=np.float32)
    return loss, (idx, weights, norm)


def cross_entropy_vjp(grad, softmax, saved: tuple, g, out) -> np.ndarray:
    """d loss / d logits of :func:`cross_entropy_forward` at the loss
    gradient ``grad``, into ``out``: ``-weights / norm * grad`` put at
    the target positions of ``g`` (C-contiguous scratch shaped like the
    logits, zeroed here), pulled back through log-softmax."""
    idx, weights, norm = saved
    g.fill(0.0)
    n, c = g.shape[:2]
    np.put_along_axis(
        g.reshape(n, c, -1), idx[:, None, :], (-weights / norm * grad)[:, None, :], axis=1
    )
    return _log_softmax_vjp(g, softmax, 1, out)


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
    x = logits.data
    softmax = np.empty_like(x)
    loss, saved = cross_entropy_forward(
        x, target, weight_map, np.empty_like(x), np.empty_like(x), softmax
    )

    def backward(grad: np.ndarray) -> None:
        g, out = np.empty(x.shape, np.float32), np.empty(x.shape, np.float32)
        logits._accumulate(cross_entropy_vjp(grad, softmax, saved, g, out))

    return Tensor._make(loss, (logits,), backward)
