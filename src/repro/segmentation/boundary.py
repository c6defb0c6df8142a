"""Boundary-quality metrics for segmentation.

Mean IoU (the paper's metric) is region-based and insensitive to edge
jitter on large objects.  Splitting the pixel errors into a band around
the true class boundaries and the interior shows *where* the
online-distilled student loses accuracy (almost entirely at object
boundaries, consistent with the oracle-teacher setup); the run
inspector example prints that split.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def boundary_mask(label: np.ndarray) -> np.ndarray:
    """Pixels on a class boundary (4-neighbour label change)."""
    label = np.asarray(label)
    if label.ndim != 2:
        raise ValueError("label must be 2-D")
    boundary = np.zeros(label.shape, dtype=bool)
    boundary[:-1, :] |= label[:-1, :] != label[1:, :]
    boundary[1:, :] |= label[:-1, :] != label[1:, :]
    boundary[:, :-1] |= label[:, :-1] != label[:, 1:]
    boundary[:, 1:] |= label[:, :-1] != label[:, 1:]
    return boundary


def dilate_square(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilate a 2-D boolean mask by a ``2*radius + 1`` square, zero border.

    Separable: ``radius`` shifts along rows, then along columns.  This
    is ``radius`` iterations of an 8-connected 3x3 dilation.
    """
    rows = mask.copy()
    for d in range(1, radius + 1):
        rows[d:, :] |= mask[:-d, :]
        rows[:-d, :] |= mask[d:, :]
    out = rows.copy()
    for d in range(1, radius + 1):
        out[:, d:] |= rows[:, :-d]
        out[:, :-d] |= rows[:, d:]
    return out


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0 or not mask.any():
        return mask
    return dilate_square(mask, radius)


def error_decomposition(
    pred: np.ndarray,
    label: np.ndarray,
    band: int = 2,
) -> Dict[str, float]:
    """Split pixel errors into boundary-band vs interior errors.

    Returns fractions of all pixels: ``boundary_error`` (wrong pixels
    within ``band`` of a true boundary) and ``interior_error`` (wrong
    pixels elsewhere).  For a well-distilled student, interior error
    should be near zero — the residual lives at the edges.
    """
    pred = np.asarray(pred)
    label = np.asarray(label)
    wrong = pred != label
    zone = _dilate(boundary_mask(label), band)
    total = wrong.size
    return {
        "boundary_error": float((wrong & zone).sum() / total),
        "interior_error": float((wrong & ~zone).sum() / total),
        "boundary_fraction": float(zone.sum() / total),
    }
