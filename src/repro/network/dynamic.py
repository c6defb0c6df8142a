"""Time-varying bandwidth (paper section 6.4's motivation).

"Fluctuations often happen during network communications between the
cloud data center and the client" — the static sweep of Figure 4 varies
bandwidth *between* runs; :class:`DynamicNetworkModel` varies it
*within* a run, via a piecewise-constant schedule in simulated time.
The client's asynchronous inference should ride through short dips
without losing throughput, which `examples/autonomous_driving.py` and
the robustness tests exercise.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple


@dataclasses.dataclass
class DynamicNetworkModel:
    """Piecewise-constant bandwidth schedule over simulated time.

    ``schedule`` is a sorted list of ``(start_time_s, bandwidth_mbps)``
    segments; the first segment must start at 0.  The model exposes the
    same ``transfer_time(nbytes, now)`` interface as
    :class:`~repro.network.model.NetworkModel`, and integrates a
    transfer across segment boundaries.
    """

    schedule: Sequence[Tuple[float, float]]
    base_latency_s: float = 0.002

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValueError("schedule must not be empty")
        times = [t for t, _ in self.schedule]
        if times[0] != 0.0:
            raise ValueError("schedule must start at t=0")
        if any(b >= a for a, b in zip(times[1:], times)):
            raise ValueError("schedule times must be strictly increasing")
        if any(bw <= 0 for _, bw in self.schedule):
            raise ValueError("bandwidths must be positive")

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
        """Duration of a transfer started at ``now``.

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


def step_drop(
    before_mbps: float,
    after_mbps: float,
    drop_at_s: float,
    recover_at_s: float | None = None,
    base_latency_s: float = 0.002,
) -> DynamicNetworkModel:
    """Convenience: bandwidth drops at ``drop_at_s`` (and optionally
    recovers), the canonical congestion event."""
    schedule: List[Tuple[float, float]] = [(0.0, before_mbps), (drop_at_s, after_mbps)]
    if recover_at_s is not None:
        if recover_at_s <= drop_at_s:
            raise ValueError("recovery must come after the drop")
        schedule.append((recover_at_s, before_mbps))
    return DynamicNetworkModel(schedule, base_latency_s)
