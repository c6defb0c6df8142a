"""Distillation configuration: the paper's algorithmic parameters."""

from __future__ import annotations

import dataclasses
import enum


class DistillMode(str, enum.Enum):
    """Partial (freeze front through SB4) vs full distillation."""

    PARTIAL = "partial"
    FULL = "full"


@dataclasses.dataclass(frozen=True)
class DistillConfig:
    """Parameters of Algorithms 1 and 2.

    Defaults follow the paper's choices for HD video semantic
    segmentation (section 5.3): THRESHOLD = 0.8 (from Cityscapes
    state-of-the-art mIoU 0.845), MIN_STRIDE = 8, MAX_STRIDE = 64 (for
    25-30 FPS video), MAX_UPDATES = 8 (largest value keeping the
    theoretical FPS gap within 2), Adam with lr 0.01 (section 5.2).
    """

    threshold: float = 0.8
    max_updates: int = 8
    min_stride: int = 8
    max_stride: int = 64
    mode: DistillMode = DistillMode.PARTIAL
    lr: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if self.max_updates < 0:
            raise ValueError("max_updates must be >= 0")
        if not 1 <= self.min_stride <= self.max_stride:
            raise ValueError("need 1 <= min_stride <= max_stride")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
