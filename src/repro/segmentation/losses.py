"""Segmentation losses with the LVS class-imbalance weighting.

The LVS videos are mostly background, so vanilla cross-entropy biases a
small student toward all-background predictions.  ShadowTutor adopts the
LVS remedy directly (section 5.2): scale the loss of pixels *near and
within* non-background objects by a factor of 5.  "Near" is realised as
a square dilation of the non-background mask by ``NEAR_RADIUS`` pixels
(:func:`~repro.segmentation.boundary.dilate_square`: a few shifted
boolean ORs, no Python pixel loops).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.segmentation.boundary import dilate_square

#: Loss up-weighting factor for object pixels (LVS / paper section 5.2).
OBJECT_WEIGHT: float = 5.0

#: Radius (in pixels) of the "near object" dilation band.
NEAR_RADIUS: int = 2


def lvs_weight_map(
    label: np.ndarray,
    object_weight: float = OBJECT_WEIGHT,
    near_radius: int = NEAR_RADIUS,
) -> np.ndarray:
    """Per-pixel loss weights: ``object_weight`` on/near objects, 1 elsewhere.

    ``label`` is ``(N, H, W)`` or ``(H, W)`` of class indices.
    """
    label = np.asarray(label)
    squeeze = label.ndim == 2
    if squeeze:
        label = label[None]
    weights = np.ones(label.shape, dtype=np.float32)
    for i in range(label.shape[0]):
        mask = label[i] > 0
        if near_radius > 0 and mask.any():
            mask = dilate_square(mask, near_radius)
        weights[i][mask] = object_weight
    return weights[0] if squeeze else weights


def weighted_cross_entropy(
    logits: Tensor,
    label: np.ndarray,
    weight_map: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy with the LVS weighting applied by default."""
    label = np.asarray(label)
    if label.ndim == 2:
        label = label[None]
    if weight_map is None:
        weight_map = lvs_weight_map(label)
    return F.cross_entropy(logits, label, weight_map)
