"""Runners for Tables 2-7 of the paper's evaluation.

Every runner executes real system runs (NumPy training, simulated
timing) over the 7 LVS-style categories and returns both measured and
paper-reference values.  Runs are deterministic and shared through
:mod:`repro.experiments.runner`, so overlapping tables (2, 3, 5) reuse
each other's work.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.distill.config import DistillMode
from repro.experiments.configs import ExperimentScale, PAPER_REFERENCE, default_scale
from repro.experiments.runner import category_run
from repro.network.messages import MessageSizes
from repro.runtime.clock import t_sd
from repro.video.dataset import LVS_CATEGORIES


@dataclasses.dataclass
class TableResult:
    """Measured rows plus the paper's reference for one table."""

    name: str
    rows: Dict[str, Dict[str, float]]
    paper: Dict
    notes: str = ""

    def averages(self) -> Dict[str, float]:
        """Column-wise average over rows."""
        keys = next(iter(self.rows.values())).keys()
        return {
            k: float(np.mean([r[k] for r in self.rows.values()])) for k in keys
        }


# ----------------------------------------------------------------------
# Table 2: distillation step latency and mean number of steps
# ----------------------------------------------------------------------
def table2_distillation(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 2: per-step latency (modelled, ms) and measured mean #steps."""
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for scheme in ("partial", "full"):
        steps_all: List[float] = []
        for spec in LVS_CATEGORIES:
            stats = category_run(spec, scale, scheme)
            if stats.mean_distill_steps > 0:
                steps_all.append(stats.mean_distill_steps)
        rows[scheme] = {
            "step_latency_ms": 1000 * t_sd(scheme == "partial"),
            "mean_steps": float(np.mean(steps_all)) if steps_all else 0.0,
        }
    return TableResult(
        name="table2",
        rows=rows,
        paper=PAPER_REFERENCE["table2"],
        notes="step latency is the modelled t_sd; mean steps measured from runs",
    )


# ----------------------------------------------------------------------
# Table 3: throughput (FPS) and execution time
# ----------------------------------------------------------------------
def table3_throughput(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 3: FPS for partial / full / naive per category."""
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for spec in LVS_CATEGORIES:
        partial = category_run(spec, scale, "partial")
        full = category_run(spec, scale, "full")
        naive = category_run(spec, scale, "naive")
        rows[spec.key] = {
            "partial_fps": partial.throughput_fps,
            "full_fps": full.throughput_fps,
            "naive_fps": naive.throughput_fps,
            "partial_time_s": partial.total_time_s,
            "full_time_s": full.total_time_s,
            "naive_time_s": naive.total_time_s,
        }
    return TableResult(name="table3", rows=rows, paper=PAPER_REFERENCE["table3"])


# ----------------------------------------------------------------------
# Table 4: data transmitted per key frame
# ----------------------------------------------------------------------
def table4_data_per_keyframe(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 4: MB per key frame for partial / full / naive."""
    del scale  # sizes are configuration, not workload-dependent
    sizes = MessageSizes.paper()
    mb = 1_000_000
    rows = {
        "partial": {
            "to_server_mb": sizes.frame_to_server / mb,
            "to_client_mb": sizes.student_diff_partial / mb,
            "total_mb": sizes.keyframe_total(partial=True) / mb,
        },
        "full": {
            "to_server_mb": sizes.frame_to_server / mb,
            "to_client_mb": sizes.student_full / mb,
            "total_mb": sizes.keyframe_total(partial=False) / mb,
        },
        "naive": {
            "to_server_mb": sizes.frame_to_server / mb,
            "to_client_mb": sizes.teacher_prediction / mb,
            "total_mb": sizes.naive_total() / mb,
        },
    }
    return TableResult(name="table4", rows=rows, paper=PAPER_REFERENCE["table4"])


# ----------------------------------------------------------------------
# Table 5: key-frame ratio and network traffic
# ----------------------------------------------------------------------
def table5_traffic(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 5: key-frame ratio (%) and network traffic (Mbps)."""
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for spec in LVS_CATEGORIES:
        partial = category_run(spec, scale, "partial")
        full = category_run(spec, scale, "full")
        naive = category_run(spec, scale, "naive")
        rows[spec.key] = {
            "partial_kf_pct": 100 * partial.key_frame_ratio,
            "full_kf_pct": 100 * full.key_frame_ratio,
            "partial_traffic_mbps": partial.network_traffic_mbps,
            "naive_traffic_mbps": naive.network_traffic_mbps,
        }
    return TableResult(name="table5", rows=rows, paper=PAPER_REFERENCE["table5"])


# ----------------------------------------------------------------------
# Table 6: accuracy (mIoU)
# ----------------------------------------------------------------------
def table6_accuracy(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 6: mIoU of Wild / P-1 / P-8 / F-1 / naive per category."""
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for spec in LVS_CATEGORIES:
        wild = category_run(spec, scale, "wild")
        p1 = category_run(spec, scale, "partial", forced_delay=1)
        p8 = category_run(spec, scale, "partial", forced_delay=8)
        f1 = category_run(spec, scale, "full", forced_delay=1)
        naive = category_run(spec, scale, "naive")
        rows[spec.key] = {
            "wild_miou_pct": 100 * wild.mean_miou,
            "p1_miou_pct": 100 * p1.mean_miou,
            "p8_miou_pct": 100 * p8.mean_miou,
            "f1_miou_pct": 100 * f1.mean_miou,
            "naive_miou_pct": 100 * naive.mean_miou,
        }
    return TableResult(name="table6", rows=rows, paper=PAPER_REFERENCE["table6"])


# ----------------------------------------------------------------------
# Table 7: 7-FPS resampled videos (real-time feasibility, section 6.5)
# ----------------------------------------------------------------------
def table7_low_fps(scale: Optional[ExperimentScale] = None) -> TableResult:
    """Table 7: mIoU and key-frame ratio at 7 FPS."""
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for spec in LVS_CATEGORIES:
        p1 = category_run(spec, scale, "partial", forced_delay=1, fps=7.0)
        p8 = category_run(spec, scale, "partial", forced_delay=8, fps=7.0)
        rows[spec.key] = {
            "p1_miou_pct": 100 * p1.mean_miou,
            "p8_miou_pct": 100 * p8.mean_miou,
            "kf_pct": 100 * p1.key_frame_ratio,
        }
    return TableResult(name="table7", rows=rows, paper=PAPER_REFERENCE["table7"])
