"""Equations 2-15: traffic and throughput bounds.

These close-form bounds let a deployer estimate bandwidth requirements
and achievable FPS *before* running the system — the paper uses them to
pick MAX_UPDATES (section 5.3) and overlays them as the grey envelope in
Figure 4.  Only algorithm parameters, latency measurements and the
per-key-frame data size appear.

Notation (paper Table 1): ``t_si`` student inference, ``t_sd`` one
distillation step, ``t_ti`` teacher inference, ``t_net`` network
latency of one key-frame round trip, ``s_net`` bytes moved per key
frame.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple


@dataclasses.dataclass(frozen=True)
class SystemParams:
    """All quantities entering the section 4.4 formulae."""

    t_si: float
    t_sd: float
    t_ti: float
    t_net: float
    s_net_bytes: int
    min_stride: int
    max_stride: int
    max_updates: int

    def __post_init__(self) -> None:
        if self.min_stride < 1 or self.max_stride < self.min_stride:
            raise ValueError("need 1 <= min_stride <= max_stride")
        for name in ("t_si", "t_sd", "t_ti", "t_net"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def s_net_mbit(self) -> float:
        return self.s_net_bytes * 8 / 1e6


def tc_bounds(p: SystemParams) -> Tuple[float, float]:
    """Eq. 2: bounds on t_c, the execution time of the MIN_STRIDE frames
    after a key frame.

    Lower bound: client overlaps inference with network+teacher work
    perfectly.  Upper bound: no concurrency at all.
    """
    lo = max(p.min_stride * p.t_si, p.t_net + p.t_ti)
    hi = p.min_stride * p.t_si + p.t_net + p.t_ti
    return lo, hi


def total_time(p: SystemParams, n: int, k: int, d: int, tc: float) -> float:
    """Eq. 3: total execution time for ``n`` frames with ``k`` key
    frames, ``d`` distillation steps and per-key-frame window time
    ``tc``."""
    if k * p.min_stride > n:
        raise ValueError("more key-frame windows than frames")
    return (n - k * p.min_stride) * p.t_si + d * p.t_sd + k * tc


def traffic_lower_bound(p: SystemParams) -> float:
    """Eq. 8: minimum network traffic in Mbps.

    Key frames least frequent (one per MAX_STRIDE frames), maximal
    distillation work, and a fully serial client: Eq. 3 over one
    MAX_STRIDE window at Eq. 2's upper t_c.
    """
    _, tc_hi = tc_bounds(p)
    return p.s_net_mbit / total_time(p, p.max_stride, 1, p.max_updates, tc_hi)


def traffic_upper_bound(p: SystemParams) -> float:
    """Eq. 12: maximum network traffic in Mbps.

    Key frames most frequent (every MIN_STRIDE), zero distillation steps
    (the student already beats THRESHOLD, Alg. 1 line 4), and a fully
    concurrent client: one key frame per Eq. 2's lower t_c.
    """
    tc_lo, _ = tc_bounds(p)
    return p.s_net_mbit / tc_lo


def throughput_lower_bound(p: SystemParams) -> float:
    """Eq. 14: minimum throughput in FPS — Eq. 3 over one MIN_STRIDE
    window with maximal distillation work at Eq. 2's upper t_c."""
    _, tc_hi = tc_bounds(p)
    return p.min_stride / total_time(p, p.min_stride, 1, p.max_updates, tc_hi)


def throughput_upper_bound(p: SystemParams) -> float:
    """Eq. 15: maximum throughput in FPS — Eq. 3 over one MAX_STRIDE
    window with no distillation step at Eq. 2's lower t_c."""
    tc_lo, _ = tc_bounds(p)
    return p.max_stride / total_time(p, p.max_stride, 1, 0, tc_lo)
