"""Simulated time and the paper's component latencies.

The reproduction separates *what* the system computes (real NumPy
training and inference, which determine metrics, stride dynamics and
distill step counts) from *how long* each component takes: the paper's
measured latencies (Table 1 / section 5.3), which are constants here.
``SimClock`` is advanced by the client loop using them; message
delivery times come from the simulated link,
:class:`~repro.network.model.NetworkModel`.
"""

from __future__ import annotations

#: Student inference on the mobile device (Jetson Nano at 720p), seconds.
T_SI = 0.143
#: One partial / full distillation step on the server (Table 2), seconds.
T_SD_PARTIAL = 0.013
T_SD_FULL = 0.018
#: Teacher inference on the server, seconds.
T_TI = 0.044


def t_sd(partial: bool) -> float:
    """One distillation step's latency in the given mode."""
    return T_SD_PARTIAL if partial else T_SD_FULL


def serve_time(steps: int, partial: bool) -> float:
    """Simulated server-side time of one key frame: teacher inference
    plus the distillation steps actually taken."""
    return T_TI + steps * t_sd(partial)


class SimClock:
    """A monotonically advancing simulated clock, starting at 0."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds."""
        if dt < 0:
            raise ValueError("cannot advance by negative time")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if in the past)."""
        if t > self._now:
            self._now = t
        return self._now
