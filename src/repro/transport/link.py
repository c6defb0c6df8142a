"""Trace-driven link scenarios: recorded bandwidth for the simulated link.

The paper evaluates over a rate-limited mobile link (80 Mbps Wi-Fi in
the testbed, LTE in the motivating deployment).  Our simulator already
supports time-varying bandwidth (:class:`repro.network.dynamic.
DynamicNetworkModel`); this module makes *scenarios* first-class:

* :class:`LinkTrace` — a named sequence of ``(time_s, bandwidth_mbps)``
  samples, with bundled LTE- and Wi-Fi-style traces plus a seeded
  generator (log-space random walk with dropout dips, the standard
  shape of cellular bandwidth recordings);
* :meth:`LinkTrace.to_network_model` — compiles a trace into a
  ``DynamicNetworkModel`` schedule, so a *simulated* run consumes the
  scenario through the usual ``Client(network=...)`` path (Figure 4 and
  the link-trace table);
* :class:`LinkTracePair` — separate uplink and downlink traces,
  compiled into a direction-aware :class:`AsymmetricNetworkModel`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.network.dynamic import DynamicNetworkModel
from repro.network.model import directed_transfer_time


@dataclasses.dataclass(frozen=True)
class LinkTrace:
    """A recorded (or generated) bandwidth trace for one link.

    ``samples`` is a piecewise-constant schedule: ``(t_s, mbps)`` pairs
    with strictly increasing times starting at 0 — the format
    :class:`~repro.network.dynamic.DynamicNetworkModel` consumes
    directly.
    """

    name: str
    samples: Tuple[Tuple[float, float], ...]
    base_latency_s: float = 0.002

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a trace needs at least one sample")
        times = [t for t, _ in self.samples]
        if times[0] != 0.0 or any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("samples must start at 0 with increasing times")
        if any(bw <= 0 for _, bw in self.samples):
            raise ValueError("bandwidths must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples[-1][0]

    @property
    def mean_mbps(self) -> float:
        return float(np.mean([bw for _, bw in self.samples]))

    @property
    def min_mbps(self) -> float:
        return float(min(bw for _, bw in self.samples))

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth in effect at trace time ``t`` (clamped to the end)."""
        current = self.samples[0][1]
        for start, bw in self.samples:
            if t >= start:
                current = bw
            else:
                break
        return current

    def to_network_model(self) -> DynamicNetworkModel:
        """Compile the trace into a simulated-clock bandwidth schedule."""
        return DynamicNetworkModel(list(self.samples), self.base_latency_s)


def generate_trace(
    name: str,
    duration_s: float = 120.0,
    step_s: float = 2.0,
    mean_mbps: float = 40.0,
    sigma: float = 0.25,
    floor_mbps: float = 2.0,
    ceil_mbps: float = 200.0,
    dip_probability: float = 0.0,
    dip_mbps: float = 4.0,
    seed: int = 0,
) -> LinkTrace:
    """Generate a bandwidth trace as a log-space random walk.

    Cellular bandwidth recordings are well modelled by a multiplicative
    random walk (rate changes are proportional, not additive) with
    occasional deep dips (handover, congestion); ``dip_probability``
    controls the latter.  Seeded, so a named trace is reproducible.
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
    return LinkTrace(name, tuple(samples))


def lte_trace(seed: int = 7, duration_s: float = 120.0) -> LinkTrace:
    """LTE-style trace: volatile, dips under 10 Mbps, mean ~40 Mbps."""
    return generate_trace(
        "lte-drive", duration_s=duration_s, step_s=2.0,
        mean_mbps=40.0, sigma=0.35, floor_mbps=3.0, ceil_mbps=120.0,
        dip_probability=0.08, dip_mbps=6.0, seed=seed,
    )


def wifi_trace(seed: int = 3, duration_s: float = 120.0) -> LinkTrace:
    """Wi-Fi-style trace: steady near the testbed's 80 Mbps cap with
    occasional contention dips."""
    return generate_trace(
        "wifi-cafe", duration_s=duration_s, step_s=4.0,
        mean_mbps=80.0, sigma=0.10, floor_mbps=20.0, ceil_mbps=90.0,
        dip_probability=0.05, dip_mbps=25.0, seed=seed,
    )


#: Bundled scenarios: deterministic instances of the generator that the
#: examples, experiments and tests share by name.
BUNDLED_TRACES: Dict[str, LinkTrace] = {
    "lte-drive": lte_trace(),
    "wifi-cafe": wifi_trace(),
}


def bundled_trace(name: str) -> LinkTrace:
    """Fetch a bundled trace by name (helpful error on a typo)."""
    try:
        return BUNDLED_TRACES[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; bundled: {sorted(BUNDLED_TRACES)}"
        ) from None


# ----------------------------------------------------------------------
# Per-direction asymmetric links
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AsymmetricNetworkModel:
    """Direction-aware link: distinct up/down bandwidth models.

    Wraps two ``transfer_time``-capable models (static
    :class:`~repro.network.model.NetworkModel` or time-varying
    :class:`~repro.network.dynamic.DynamicNetworkModel`).  Consumers
    that know their direction (the client's key-frame uplink vs its
    update downlink) select a side through :meth:`for_direction`;
    direction-oblivious consumers get the uplink, the conservative
    choice on cellular links (key frames are the big payload and the
    slow direction).
    """

    up: object
    down: object

    def for_direction(self, direction: str):
        """The model carrying transfers in ``direction`` (up/down)."""
        if direction == "up":
            return self.up
        if direction == "down":
            return self.down
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")

    def transfer_time(self, nbytes: int, now: float = 0.0) -> float:
        return directed_transfer_time(self.up, nbytes, now)

    def round_trip_time(self, up_bytes: int, down_bytes: int, now: float = 0.0) -> float:
        up = directed_transfer_time(self.up, up_bytes, now)
        return up + directed_transfer_time(self.down, down_bytes, now + up)


@dataclasses.dataclass(frozen=True)
class LinkTracePair:
    """Asymmetric scenario: separate uplink and downlink traces.

    Mobile links are asymmetric — LTE uplink (where the key frames go)
    runs far below the downlink carrying the small weight updates.  The
    pair compiles into an :class:`AsymmetricNetworkModel` for simulated
    runs, exactly like the symmetric :class:`LinkTrace`.
    """

    name: str
    up: LinkTrace
    down: LinkTrace

    def to_network_model(self) -> AsymmetricNetworkModel:
        """Compile both directions into one direction-aware model."""
        return AsymmetricNetworkModel(
            up=self.up.to_network_model(), down=self.down.to_network_model()
        )

    def swapped(self) -> "LinkTracePair":
        """The mirror scenario (diagnostics: which direction binds?)."""
        return LinkTracePair(f"{self.name}-swapped", up=self.down, down=self.up)


def lte_updown_pair(seed: int = 7, duration_s: float = 120.0) -> LinkTracePair:
    """LTE-style asymmetric pair: ~12 Mbps volatile uplink (key frames)
    against the ~40 Mbps downlink (weight updates)."""
    up = generate_trace(
        "lte-drive-up", duration_s=duration_s, step_s=2.0,
        mean_mbps=12.0, sigma=0.35, floor_mbps=1.5, ceil_mbps=40.0,
        dip_probability=0.08, dip_mbps=2.0, seed=seed + 1,
    )
    return LinkTracePair("lte-updown", up=up, down=lte_trace(seed, duration_s))


#: Bundled asymmetric scenarios, by name like ``BUNDLED_TRACES``.
BUNDLED_TRACE_PAIRS: Dict[str, "LinkTracePair"] = {
    "lte-updown": lte_updown_pair(),
}


def bundled_trace_pair(name: str) -> "LinkTracePair":
    """Fetch a bundled asymmetric pair by name (helpful error on typo)."""
    try:
        return BUNDLED_TRACE_PAIRS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace pair {name!r}; bundled: {sorted(BUNDLED_TRACE_PAIRS)}"
        ) from None
