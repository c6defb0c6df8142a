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
  scenario through the usual ``Client(network=...)`` path (the bundled
  traces are rows of ``benchmarks/test_robustness_fluctuation.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.network.dynamic import DynamicNetworkModel


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
    _model: DynamicNetworkModel = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The schedule's rules live in DynamicNetworkModel, which raises
        # ValueError on a trace that breaks them.
        object.__setattr__(self, "_model", self.to_network_model())

    @property
    def duration_s(self) -> float:
        return self.samples[-1][0]

    @property
    def mean_mbps(self) -> float:
        return float(np.mean([bw for _, bw in self.samples]))

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth in effect at trace time ``t`` (clamped to the end)."""
        return self._model.bandwidth_at(t)

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


#: Bundled scenarios: deterministic instances of the generator, one row
#: each of the robustness benchmark's table.
BUNDLED_TRACES: Dict[str, LinkTrace] = {
    "lte-drive": lte_trace(),
    "wifi-cafe": wifi_trace(),
}

