"""Shared run executor with caching.

Tables 2, 3 and 5 all need the same (category x scheme) system runs;
Table 6 adds forced-delay variants and Table 7 the 7-FPS resampling.
Runs are deterministic, so a process-wide cache keyed by the full run
configuration lets the whole benchmark suite execute each distinct run
exactly once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.distill.config import DistillConfig, DistillMode
from repro.experiments.configs import ExperimentScale
from repro.network.model import constant_link
from repro.runtime.session import (
    SessionConfig,
    run_naive,
    run_shadowtutor,
    run_wild,
)
from repro.runtime.stats import RunStats
from repro.video.dataset import CategorySpec, make_category_video, resample_fps

_RUN_CACHE: Dict[Tuple, RunStats] = {}


def clear_cache() -> None:
    """Drop all cached runs (for tests that must re-execute)."""
    _RUN_CACHE.clear()


def cache_size() -> int:
    return len(_RUN_CACHE)


def category_run(
    spec: CategorySpec,
    scale: ExperimentScale,
    scheme: str,
    forced_delay: Optional[int] = None,
    bandwidth_mbps: Optional[float] = None,
    fps: Optional[float] = None,
) -> RunStats:
    """Run (or fetch from cache) one system run.

    ``scheme`` is one of ``partial``, ``full``, ``naive``, ``wild``.
    ``fps`` resamples the stream (section 6.5) when given.
    """
    if scheme not in ("partial", "full", "naive", "wild"):
        raise ValueError(f"unknown scheme {scheme!r}")
    key = (
        spec.key, scale, scheme, forced_delay, bandwidth_mbps, fps,
    )
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]

    video = make_category_video(
        spec, height=scale.frame_height, width=scale.frame_width
    )
    if fps is not None:
        video = resample_fps(video, fps)

    config = SessionConfig(
        student_width=scale.student_width,
        pretrain_steps=scale.pretrain_steps,
        forced_delay_frames=forced_delay,
    )
    if scheme == "full":
        config.distill = DistillConfig(mode=DistillMode.FULL)
    if bandwidth_mbps is not None:
        config.network = constant_link(bandwidth_mbps)

    if scheme == "naive":
        stats = run_naive(video, scale.num_frames, config)
    elif scheme == "wild":
        stats = run_wild(video, scale.num_frames, config)
    else:
        stats = run_shadowtutor(video, scale.num_frames, config,
                                label=f"{spec.key}-{scheme}")
    _RUN_CACHE[key] = stats
    return stats
