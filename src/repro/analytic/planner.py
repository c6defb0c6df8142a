"""Section 5.3: choosing algorithm parameters from the bounds.

The paper fixes THRESHOLD=0.8 (Cityscapes SOTA 0.845), MIN_STRIDE=8 and
MAX_STRIDE=64 (from 25-30 FPS), then picks MAX_UPDATES as the largest
value whose throughput lower bound stays within 2 FPS of the upper
bound (equivalently, above 5 FPS given the 6.99 FPS maximum).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.analytic.bounds import (
    SystemParams,
    throughput_lower_bound,
    throughput_upper_bound,
)
from repro.network.messages import MessageSizes
from repro.network.model import NetworkModel
from repro.runtime.clock import T_SI, T_TI, t_sd


def paper_params(
    max_updates: int = 8,
    partial: bool = True,
    network: Optional[NetworkModel] = None,
    min_stride: int = 8,
    max_stride: int = 64,
) -> SystemParams:
    """Build :class:`SystemParams` from the experiment configuration.

    With the defaults this reproduces section 5.3's numbers: t_si=0.143,
    t_sd=0.013, t_ti=0.044, t_net≈0.303 (3.032 MB at 80 Mbps) and hence
    a 6.99 FPS throughput upper bound.
    """
    network = network or NetworkModel()
    sizes = MessageSizes.paper()
    s_net = sizes.keyframe_total(partial)
    t_net = network.round_trip_time(
        sizes.frame_to_server,
        sizes.student_diff_partial if partial else sizes.student_full,
    )
    return SystemParams(
        t_si=T_SI,
        t_sd=t_sd(partial),
        t_ti=T_TI,
        t_net=t_net,
        s_net_bytes=s_net,
        min_stride=min_stride,
        max_stride=max_stride,
        max_updates=max_updates,
    )


def choose_max_updates(
    max_fps_gap: float = 2.0,
    search_limit: int = 64,
    **kwargs,
) -> int:
    """Largest MAX_UPDATES keeping the theoretical FPS gap within bound.

    Mirrors section 5.3: with the paper's measurements this returns 8.
    Extra keyword arguments are forwarded to :func:`paper_params`.
    """
    chosen = 0
    for candidate in range(0, search_limit + 1):
        p = paper_params(max_updates=candidate, **kwargs)
        gap = throughput_upper_bound(p) - throughput_lower_bound(p)
        if gap <= max_fps_gap:
            chosen = candidate
        else:
            break
    if chosen == 0:
        raise ValueError("no MAX_UPDATES satisfies the FPS-gap constraint")
    return chosen
