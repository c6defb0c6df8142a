"""The simulated client-server link: one bandwidth schedule over time.

Transfer time of a payload is ``base_latency + bytes * 8 / bandwidth``,
the standard first-order model of a rate-limited link.  The paper's
testbed limits both uplink and downlink to 80 Mbps (section 5.1); at
that setting one key-frame round trip of 3.032 MB takes ~0.303 s plus
propagation — reproducing the paper's measured t_net = 0.303 s.

"Fluctuations often happen during network communications between the
cloud data center and the client" (section 6.4): the same link with a
rate that changes within a run.  So the rate is a piecewise-constant
schedule in simulated time; a steady link is its one-segment case
(:func:`constant_link`), a congestion event a step (:func:`step_drop`),
and a mobile recording a seeded random walk (:func:`generate_trace`,
with bundled LTE- and Wi-Fi-style instances).  The client's
asynchronous inference should ride through short dips without losing
throughput, which `examples/autonomous_driving.py` and the robustness
benchmark exercise.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: One-way propagation + protocol latency (seconds).  The paper's Wi-Fi
#: testbed is LAN-class, so this is small.
BASE_LATENCY_S = 0.002


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """A symmetric rate-limited link with a piecewise-constant rate.

    ``schedule`` is a sorted sequence of ``(start_time_s,
    bandwidth_mbps)`` segments, stored as a tuple; the first segment
    must start at 0 and the last one lasts forever.  A transfer is
    integrated across segment boundaries.  The default is the paper's
    testbed: a steady 80 Mbps.  Frozen, so a link shared between runs
    (a bundled trace) cannot be changed under one of them.
    """

    schedule: Sequence[Tuple[float, float]] = ((0.0, 80.0),)
    base_latency_s: float = BASE_LATENCY_S

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "schedule", tuple((t, bw) for t, bw in self.schedule)
        )
        if not self.schedule:
            raise ValueError("schedule must not be empty")
        times = [t for t, _ in self.schedule]
        if times[0] != 0.0:
            raise ValueError("schedule must start at t=0")
        if any(b >= a for a, b in zip(times[1:], times)):
            raise ValueError("schedule times must be strictly increasing")
        if any(bw <= 0 for _, bw in self.schedule):
            raise ValueError("bandwidths must be positive")
        if self.base_latency_s < 0:
            raise ValueError("latency must be non-negative")

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth (Mbps) in effect at simulated time ``t``."""
        current = self.schedule[0][1]
        for start, bw in self.schedule:
            if t >= start:
                current = bw
            else:
                break
        return current

    def transfer_time(self, nbytes: int, now: float = 0.0) -> float:
        """Seconds to move ``nbytes`` one way, starting at ``now``.

        Integrates the remaining bits across bandwidth segments, so a
        transfer spanning a bandwidth drop takes proportionally longer
        for the bits sent after the drop.
        """
        remaining_bits = nbytes * 8.0
        t = now
        elapsed = self.base_latency_s
        boundaries = [s for s, _ in self.schedule]
        while remaining_bits > 0:
            bw = self.bandwidth_at(t) * 1e6  # bits/s
            # Time until the next segment boundary after t, if any.
            future = [b for b in boundaries if b > t]
            if future:
                window = future[0] - t
                sendable = bw * window
                if sendable >= remaining_bits:
                    elapsed += remaining_bits / bw
                    remaining_bits = 0.0
                else:
                    elapsed += window
                    remaining_bits -= sendable
                    t = future[0]
            else:
                elapsed += remaining_bits / bw
                remaining_bits = 0.0
        return elapsed

    def round_trip_time(self, up_bytes: int, down_bytes: int, now: float = 0.0) -> float:
        """Up transfer followed by a down transfer, starting at ``now``."""
        up = self.transfer_time(up_bytes, now)
        down = self.transfer_time(down_bytes, now + up)
        return up + down


def constant_link(bandwidth_mbps: float) -> NetworkModel:
    """A link whose rate never changes: the static sweep of Figure 4."""
    return NetworkModel([(0.0, bandwidth_mbps)])


def step_drop(
    before_mbps: float,
    after_mbps: float,
    drop_at_s: float,
    recover_at_s: float | None = None,
) -> NetworkModel:
    """Bandwidth drops at ``drop_at_s`` (and optionally recovers), the
    canonical congestion event."""
    schedule: List[Tuple[float, float]] = [(0.0, before_mbps), (drop_at_s, after_mbps)]
    if recover_at_s is not None:
        if recover_at_s <= drop_at_s:
            raise ValueError("recovery must come after the drop")
        schedule.append((recover_at_s, before_mbps))
    return NetworkModel(schedule)


def generate_trace(
    duration_s: float = 120.0,
    step_s: float = 2.0,
    mean_mbps: float = 40.0,
    sigma: float = 0.25,
    floor_mbps: float = 2.0,
    ceil_mbps: float = 200.0,
    dip_probability: float = 0.0,
    dip_mbps: float = 4.0,
    seed: int = 0,
) -> NetworkModel:
    """A link whose rate follows a log-space random walk.

    Cellular bandwidth recordings are well modelled by a multiplicative
    random walk (rate changes are proportional, not additive) with
    occasional deep dips (handover, congestion); ``dip_probability``
    controls the latter.  One segment per ``step_s``; seeded, so a
    named trace is reproducible.
    """
    rng = np.random.default_rng(seed)
    samples = []
    level = float(mean_mbps)
    t = 0.0
    while t < duration_s:
        if dip_probability and rng.random() < dip_probability:
            bw = dip_mbps * float(rng.uniform(0.5, 1.5))
        else:
            level *= float(np.exp(rng.normal(0.0, sigma)))
            # Mean-revert so long traces hover around mean_mbps.
            level += 0.1 * (mean_mbps - level)
            bw = level
        samples.append((round(t, 3), round(min(max(bw, floor_mbps), ceil_mbps), 3)))
        t += step_s
    return NetworkModel(samples)


def lte_trace() -> NetworkModel:
    """LTE-style link: volatile, dips under 10 Mbps, mean ~40 Mbps."""
    return generate_trace(
        duration_s=120.0, step_s=2.0,
        mean_mbps=40.0, sigma=0.35, floor_mbps=3.0, ceil_mbps=120.0,
        dip_probability=0.08, dip_mbps=6.0, seed=7,
    )


def wifi_trace() -> NetworkModel:
    """Wi-Fi-style link: steady near the testbed's 80 Mbps cap with
    occasional contention dips."""
    return generate_trace(
        duration_s=120.0, step_s=4.0,
        mean_mbps=80.0, sigma=0.10, floor_mbps=20.0, ceil_mbps=90.0,
        dip_probability=0.05, dip_mbps=25.0, seed=3,
    )


#: Bundled scenarios: deterministic instances of the generator, one row
#: each of the robustness benchmark's table.
BUNDLED_TRACES: Dict[str, NetworkModel] = {
    "lte-drive": lte_trace(),
    "wifi-cafe": wifi_trace(),
}
