"""Semantic-segmentation task utilities.

ShadowTutor evaluates on HD video semantic segmentation over the LVS
dataset's 8 actively-moving object classes plus background (section 5.2).
This package defines the class palette, the mean-IoU metric of Eq. 1,
and the LVS-style boundary-weighted cross-entropy loss.
"""

from repro.segmentation.classes import LVS_CLASSES, NUM_CLASSES, BACKGROUND
from repro.segmentation.metrics import confusion_matrix, mean_iou
from repro.segmentation.losses import lvs_weight_map, weighted_cross_entropy

__all__ = [
    "LVS_CLASSES",
    "NUM_CLASSES",
    "BACKGROUND",
    "mean_iou",
    "confusion_matrix",
    "lvs_weight_map",
    "weighted_cross_entropy",
]
