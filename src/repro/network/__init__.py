"""Network modelling: message sizes and the bandwidth/latency link model."""

from repro.network.messages import (
    MessageSizes,
    hd_frame_bytes,
    student_payload_bytes,
)
from repro.network.model import NetworkModel
from repro.network.dynamic import DynamicNetworkModel, step_drop

__all__ = [
    "DynamicNetworkModel",
    "step_drop",
    "MessageSizes",
    "hd_frame_bytes",
    "student_payload_bytes",
    "NetworkModel",
]
