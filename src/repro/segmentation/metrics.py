"""Segmentation metrics: IoU per class and mean IoU (paper Eq. 1).

Following the paper, the mean is taken over the classes *present in the
ground-truth label* ("The IoU is computed for each class in the ground
truth label and averaged"), so frames containing only background score on
background alone rather than being diluted by absent classes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.segmentation.classes import NUM_CLASSES


def confusion_matrix(
    pred: np.ndarray, label: np.ndarray, num_classes: int = NUM_CLASSES
) -> np.ndarray:
    """Dense confusion matrix ``M[i, j]`` = #pixels with label i predicted j."""
    pred = np.asarray(pred).ravel()
    label = np.asarray(label).ravel()
    if pred.shape != label.shape:
        raise ValueError(f"pred {pred.shape} vs label {label.shape}")
    mask = (label >= 0) & (label < num_classes)
    if not mask.all():
        pred, label = pred[mask], label[mask]
    idx = label.astype(np.int64) * num_classes
    idx += pred.astype(np.int64, copy=False)
    return np.bincount(idx, minlength=num_classes**2).reshape(num_classes, num_classes)


def _present_ious(
    pred: np.ndarray, label: np.ndarray, num_classes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(classes, ious)`` of the classes present in ``label`` (Eq. 1).

    A present class has at least one labelled pixel, so its union is
    never empty: every IoU is one int64 / int64 division.
    """
    cm = confusion_matrix(pred, label, num_classes)
    inter = cm.diagonal()
    rows = cm.sum(axis=1)
    union = rows + cm.sum(axis=0) - inter
    present = np.flatnonzero(rows > 0)
    return present, inter[present] / union[present]


def iou_per_class(
    pred: np.ndarray,
    label: np.ndarray,
    num_classes: int = NUM_CLASSES,
) -> Dict[int, float]:
    """IoU for every class present in ``label`` (Eq. 1)."""
    classes, ious = _present_ious(pred, label, num_classes)
    return dict(zip(classes.tolist(), ious.tolist()))


def mean_iou(
    pred: np.ndarray,
    label: np.ndarray,
    num_classes: int = NUM_CLASSES,
) -> float:
    """Mean IoU over classes present in the label; in [0, 1]."""
    _, ious = _present_ious(pred, label, num_classes)
    if not ious.size:
        return 1.0
    return float(ious.mean())


def pixel_accuracy(pred: np.ndarray, label: np.ndarray) -> float:
    """Fraction of correctly classified pixels."""
    pred = np.asarray(pred)
    label = np.asarray(label)
    return float((pred == label).mean())


class RunningMeanIoU:
    """Streaming mIoU averaged per frame, as the paper's Table 6 does
    ("The mIoU of every frame ... is averaged")."""

    def __init__(self, num_classes: int = NUM_CLASSES) -> None:
        self.num_classes = num_classes
        self.total = 0.0
        self.count = 0

    def update(self, pred: np.ndarray, label: np.ndarray) -> float:
        """Add one frame; returns that frame's mIoU."""
        value = mean_iou(pred, label, self.num_classes)
        self.total += value
        self.count += 1
        return value

    @property
    def value(self) -> float:
        return self.total / self.count if self.count else 0.0
