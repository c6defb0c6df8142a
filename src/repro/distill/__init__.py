"""Online knowledge distillation (paper Algorithm 1 and section 4.2)."""

from repro.distill.config import DistillConfig, DistillMode
from repro.distill.trainer import StudentTrainer, TrainResult

__all__ = [
    "DistillConfig",
    "DistillMode",
    "StudentTrainer",
    "TrainResult",
]
