"""Naive offloading baseline: ship every frame to the server.

The client sends each frame, the teacher segments it, and the
prediction comes back — a strictly sequential per-frame round trip (no
pipelining; the paper's naive baseline "has no mechanism to mitigate
the increase in network latency", section 6.4).  Accuracy against the
teacher is perfect by construction (Table 6's 100%).

Each frame also pays :data:`T_PREP`, the client-side capture/encode
overhead the paper's measured naive throughput implies (2.09 FPS at
80 Mbps vs ~0.396 s of pure transfer+inference per frame).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.models.teacher import Teacher
from repro.network.messages import MessageSizes
from repro.network.model import NetworkModel
from repro.runtime.clock import T_TI, SimClock
from repro.runtime.stats import FrameRecord, RunStats
from repro.segmentation.metrics import mean_iou

#: Client-side per-frame preprocessing overhead (seconds), calibrated so
#: naive offloading reproduces the paper's measured 2.09 FPS at 80 Mbps.
T_PREP = 0.082


class NaiveOffloadClient:
    """Per-frame offloading loop."""

    def __init__(
        self,
        teacher: Teacher,
        network: Optional[NetworkModel] = None,
        sizes: Optional[MessageSizes] = None,
    ) -> None:
        self.teacher = teacher
        self.network = network or NetworkModel()
        self.sizes = sizes or MessageSizes.paper()
        self.clock = SimClock()

    def run(
        self,
        frames: Iterable[Tuple[np.ndarray, np.ndarray]],
        label: str = "naive",
    ) -> RunStats:
        stats = RunStats(label=label)
        up = self.sizes.frame_to_server
        down = self.sizes.teacher_prediction
        for index, (frame, gt_label) in enumerate(frames):
            pred = self.teacher.infer(frame, gt_label)
            t = self.clock.now + T_PREP
            t += self.network.transfer_time(up, t)
            t += T_TI
            t += self.network.transfer_time(down, t)
            self.clock.advance_to(t)
            stats.total_up_bytes += up
            stats.total_down_bytes += down
            stats.frames.append(
                FrameRecord(
                    index=index,
                    is_key=True,  # every frame crosses the network
                    miou=mean_iou(pred, gt_label),
                    sim_time=self.clock.now,
                    stride=1.0,
                )
            )
        stats.total_time_s = self.clock.now
        return stats
