"""Class palette for the LVS-style segmentation task.

The LVS dataset (Mullapudi et al. 2019) labels 8 actively-moving object
classes; index 0 is background, matching the 9-channel student output in
the paper's Figure 3b.
"""

from __future__ import annotations

from typing import Dict, List

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

