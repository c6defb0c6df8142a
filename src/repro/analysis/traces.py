"""Derived views over run traces."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.stats import RunStats


def stride_timeline(stats: RunStats) -> Tuple[np.ndarray, np.ndarray]:
    """(frame indices, stride in effect) — how Algorithm 2 breathed."""
    idx = np.array([f.index for f in stats.frames])
    strides = np.array([f.stride for f in stats.frames])
    return idx, strides


def keyframe_intervals(stats: RunStats) -> np.ndarray:
    """Gaps (in frames) between consecutive key frames."""
    indices = [k.index for k in stats.key_frames]
    return np.diff(indices) if len(indices) > 1 else np.array([], dtype=int)


def delay_histogram(stats: RunStats) -> Dict[int, int]:
    """How many frames each student update waited before application."""
    out: Dict[int, int] = {}
    for f in stats.frames:
        if f.update_delay is not None:
            out[f.update_delay] = out.get(f.update_delay, 0) + 1
    return dict(sorted(out.items()))


def summarize_run(stats: RunStats) -> str:
    """Human-readable multi-line summary of one run."""
    s = stats.summary()
    intervals = keyframe_intervals(stats)
    delays = delay_histogram(stats)
    lines = [
        f"run: {stats.label or '(unnamed)'}",
        f"  frames           : {s['frames']:.0f} "
        f"({s['key_frames']:.0f} key, {s['key_frame_ratio_pct']:.2f}%)",
        f"  throughput       : {s['throughput_fps']:.2f} FPS "
        f"({s['exec_time_s']:.1f} s simulated)",
        f"  mean mIoU        : {s['mean_miou_pct']:.1f}%",
        f"  network traffic  : {s['traffic_mbps']:.2f} Mbps "
        f"({s['mb_per_keyframe_total']:.3f} MB/key frame)",
        f"  distill steps    : {s['mean_distill_steps']:.2f} mean/key frame",
    ]
    if intervals.size:
        lines.append(
            f"  key-frame gaps   : min={intervals.min()} "
            f"mean={intervals.mean():.1f} max={intervals.max()}"
        )
    if delays:
        histo = ", ".join(f"{d}f x{n}" for d, n in delays.items())
        lines.append(f"  update delays    : {histo}")
    return "\n".join(lines)
