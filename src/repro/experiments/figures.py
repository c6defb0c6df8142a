"""Figure 4: throughput vs network bandwidth.

Sweeps the link bandwidth over the paper's grid {8, 12, 20, 40, 60, 80,
90} Mbps for the five named videos plus the naive baseline, and overlays
the analytic throughput bounds (Eqs. 14 and 15) that form the grey
envelope in the paper's plot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analytic.bounds import throughput_lower_bound, throughput_upper_bound
from repro.analytic.planner import paper_params
from repro.distill.config import DistillConfig, DistillMode
from repro.experiments.configs import ExperimentScale, PAPER_REFERENCE, default_scale
from repro.network.model import constant_link
from repro.runtime.session import SessionConfig, run_naive, run_shadowtutor
from repro.video.dataset import make_named_video


@dataclasses.dataclass
class BandwidthSweepResult:
    """Throughput series per video over the bandwidth grid."""

    bandwidths_mbps: List[float]
    #: video name -> list of FPS values aligned with ``bandwidths_mbps``
    series: Dict[str, List[float]]
    #: analytic (lower, upper) FPS bounds per bandwidth
    bounds: List[tuple]
    #: measured key-frame percentage per video (for the legend ordering)
    keyframe_pct: Dict[str, float]
    paper: Dict


def figure4_bandwidth_sweep(
    scale: Optional[ExperimentScale] = None,
    bandwidths: Optional[Sequence[float]] = None,
    videos: Optional[Sequence[str]] = None,
) -> BandwidthSweepResult:
    """Reproduce Figure 4 (plus the bound envelope)."""
    scale = scale or default_scale()
    bandwidths = list(
        bandwidths or PAPER_REFERENCE["figure4"]["bandwidths_mbps"]
    )
    videos = list(videos or PAPER_REFERENCE["figure4"]["videos"])

    series: Dict[str, List[float]] = {name: [] for name in videos}
    series["naive"] = []
    keyframe_pct: Dict[str, float] = {}
    bounds = []

    for bw in bandwidths:
        network = constant_link(bw)
        for name in videos:
            video = make_named_video(
                name, height=scale.frame_height, width=scale.frame_width
            )
            config = SessionConfig(
                distill=DistillConfig(mode=DistillMode.PARTIAL),
                student_width=scale.student_width,
                pretrain_steps=scale.pretrain_steps,
            )
            config.network = network
            stats = run_shadowtutor(video, scale.num_frames, config, label=name)
            series[name].append(stats.throughput_fps)
            if bw == bandwidths[-1]:
                keyframe_pct[name] = 100 * stats.key_frame_ratio
        naive_video = make_named_video(
            videos[0], height=scale.frame_height, width=scale.frame_width
        )
        naive_config = SessionConfig()
        naive_config.network = network
        naive = run_naive(naive_video, scale.num_frames, naive_config)
        series["naive"].append(naive.throughput_fps)

        p = paper_params(network=network)
        bounds.append((throughput_lower_bound(p), throughput_upper_bound(p)))

    return BandwidthSweepResult(
        bandwidths_mbps=[float(b) for b in bandwidths],
        series=series,
        bounds=bounds,
        keyframe_pct=keyframe_pct,
        paper=PAPER_REFERENCE["figure4"],
    )
