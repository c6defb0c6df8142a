"""Class palette for the LVS-style segmentation task.

The LVS dataset (Mullapudi et al. 2019) labels 8 actively-moving object
classes; index 0 is background, matching the 9-channel student output in
the paper's Figure 3b.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: Class index 0 is background.
BACKGROUND: int = 0

#: The 8 LVS object classes, in a fixed order (indices 1..8).
LVS_CLASSES: List[str] = [
    "background",
    "person",
    "bicycle",
    "automobile",
    "bird",
    "dog",
    "horse",
    "elephant",
    "giraffe",
]

#: Total number of classes including background (student out channels).
NUM_CLASSES: int = len(LVS_CLASSES)

#: name -> index lookup.
CLASS_INDEX: Dict[str, int] = {name: i for i, name in enumerate(LVS_CLASSES)}


#: The one class-map dtype: every label, pseudo-label and prediction is
#: one byte per pixel (a class map never needs more than 256 classes).
CLASS_MAP_DTYPE = np.uint8


def class_map(logits: np.ndarray) -> np.ndarray:
    """``(1, C, H, W)`` logits -> the ``(H, W)`` argmax class map, uint8.

    Raises ``ValueError`` for more than 256 channels, so a class index
    can never wrap silently.
    """
    if logits.shape[1] > 256:
        raise ValueError(f"{logits.shape[1]} classes do not fit a uint8 class map")
    return logits[0].argmax(axis=0).astype(CLASS_MAP_DTYPE)
