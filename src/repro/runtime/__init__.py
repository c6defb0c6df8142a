"""System runtime: the discrete-event ShadowTutor execution.

* :class:`~repro.runtime.clock.SimClock` — simulated time.
* :class:`~repro.runtime.server.Server` — Algorithm 3 (teacher
  inference + student training per key frame).
* :class:`~repro.runtime.client.Client` — Algorithm 4 (on-device
  inference, async key-frame protocol, stride scheduling).
* :class:`~repro.runtime.naive.NaiveOffloadClient` — the naive
  offloading baseline (every frame to the server).
* :func:`~repro.runtime.session.run_shadowtutor` /
  :func:`~repro.runtime.session.run_naive` — orchestration producing
  :class:`~repro.runtime.stats.RunStats`.
"""

from repro.runtime.clock import SimClock
from repro.runtime.stats import RunStats, FrameRecord
from repro.runtime.server import Server
from repro.runtime.client import Client
from repro.runtime.naive import NaiveOffloadClient
from repro.runtime.session import SessionConfig, run_shadowtutor, run_naive

__all__ = [
    "SimClock",
    "RunStats",
    "FrameRecord",
    "Server",
    "Client",
    "NaiveOffloadClient",
    "SessionConfig",
    "run_shadowtutor",
    "run_naive",
]
