"""Overload control for the multiplexing server runtime (ISSUE 6).

PR 5 gave :class:`~repro.serving.runtime.ServerRuntime` a front door
(ADMIT/REJECT) whose only defense against hostile or bursty
traffic was the ``max_sessions`` cliff.  This module supplies the
graduated alternative — three pure, deterministic pieces the runtime
composes, each testable without a server process:

:class:`TokenBucket`
    A virtual-time admission limiter.  Time is the runtime's *tick
    clock* — one tick per message served — so refill is a deterministic
    function of work actually done, never of wall-clock races.  When
    the bucket is empty the admission is refused with a typed
    ``retry_after`` hint (ticks until a token exists), which rides the
    REJECT body back to the client.

:class:`LoadTracker`
    A per-sweep queue-depth estimator.  Each poll sweep the runtime
    reports how many connections had a message waiting; the tracker
    keeps an exponential moving average and maps it to a graduated
    *load level* ``0..max_level``.  The level is monotone in observed
    load: a pointwise-heavier trace can never yield a lower level.

level → degradation maps (:func:`serve_budget`, :func:`metric_floor`)
    How a level becomes behavior.  Under load the runtime serves key
    frames with a capped distillation budget (cheaper serves) and
    floors the metric it reports, which the client's Algorithm-2 stride
    policy converts into *longer strides* — fewer key frames, load
    shed at the source.  At ``metric_floor`` the piecewise-linear
    ``next_stride`` ratio is exactly ``1 + level/max_level``: level 0
    is bit-identical to no control at all, full level doubles strides
    per key frame until ``max_stride``.

:class:`OverloadConfig` bundles the knobs; everything defaults to
*off* so the existing bit-identity harness is untouched unless a storm
bench opts in.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional

__all__ = [
    "TokenBucket",
    "LoadTracker",
    "OverloadConfig",
    "OverloadController",
    "serve_budget",
    "metric_floor",
]


class TokenBucket:
    """Deterministic token-bucket limiter over a virtual tick clock.

    ``rate`` tokens accrue per tick up to ``capacity``; every admitted
    request spends one token.  :meth:`try_take` is a pure function of
    the (monotone) tick trace it is fed, so identical traces give
    identical admit/refuse decisions — the property tests rely on it.
    Tokens can never go negative: a refusal spends nothing.
    """

    def __init__(self, rate: float, capacity: float,
                 initial: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if capacity < 1:
            raise ValueError(f"bucket capacity must be >= 1, got {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.tokens = self.capacity if initial is None else float(initial)
        if not 0 <= self.tokens <= self.capacity:
            raise ValueError(
                f"initial tokens {self.tokens} outside [0, {self.capacity}]"
            )
        self._last_tick = 0

    def _refill(self, now: int) -> None:
        if now < self._last_tick:
            raise ValueError(
                f"tick clock ran backwards: {now} < {self._last_tick}"
            )
        self.tokens = min(
            self.capacity, self.tokens + self.rate * (now - self._last_tick)
        )
        self._last_tick = now

    def try_take(self, now: int) -> Optional[int]:
        """Spend one token at tick ``now``.

        Returns ``None`` on success, or the ``retry_after`` hint — the
        number of ticks after which a whole token will have accrued —
        on refusal.  The hint is always >= 1.
        """
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return max(1, math.ceil((1.0 - self.tokens) / self.rate))


class LoadTracker:
    """Per-sweep queue-depth estimator with graduated load levels.

    Feed :meth:`observe` the number of connections that had work
    pending at the top of each poll sweep, and call :meth:`reset` when
    a sweep found nothing anywhere and the loop goes to sleep (a
    sleeping loop has no run of empty sweeps to decay with).  ``ewma``
    smooths the trace; the level is ``floor(ewma / high_water)``
    clamped to ``max_level`` — both are monotone non-decreasing in a
    pointwise-heavier trace, which is the property the stride
    escalation proof needs.
    """

    def __init__(self, high_water: float, alpha: float = 0.05,
                 max_level: int = 4) -> None:
        if high_water <= 0:
            raise ValueError(f"high_water must be positive, got {high_water}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        self.high_water = float(high_water)
        self.alpha = float(alpha)
        self.max_level = int(max_level)
        self.ewma = 0.0
        self.sweeps = 0
        self.peak_level = 0

    def observe(self, pending: int) -> int:
        """Record one sweep's pending-connection count; returns the
        (possibly new) load level."""
        if pending < 0:
            raise ValueError(f"pending count cannot be negative: {pending}")
        self.ewma += self.alpha * (pending - self.ewma)
        self.sweeps += 1
        level = self.level
        if level > self.peak_level:
            self.peak_level = level
        return level

    def reset(self) -> None:
        """Nothing is pending anywhere: the load is gone, not decaying."""
        self.ewma = 0.0

    @property
    def level(self) -> int:
        """Current load level, ``0`` (idle) .. ``max_level`` (storm)."""
        return min(self.max_level, int(self.ewma / self.high_water))


def serve_budget(max_updates: int, level: int) -> int:
    """Distillation-step cap for one key-frame serve at ``level``.

    Halves per level, never below one step: the degraded serve is
    cheaper but still *a* serve — clients keep making progress, just
    with coarser updates.  Level 0 returns ``max_updates`` unchanged.
    """
    if level <= 0:
        return max_updates
    return max(1, max_updates >> level)


def metric_floor(threshold: float, level: int, max_level: int) -> float:
    """Reported-metric floor that stretches client strides at ``level``.

    Algorithm 2's stride ratio at a metric ``m >= threshold`` is
    ``(m - 2*threshold + 1) / (1 - threshold)``; flooring the reported
    metric at ``threshold + (1 - threshold) * level / max_level`` makes
    that ratio exactly ``1 + level/max_level`` — a graduated push
    toward longer strides, monotone in load, saturating at "double the
    stride every key frame" when the level is maxed.  Level 0 floors
    at 0.0 (no effect on any real metric).
    """
    if level <= 0:
        return 0.0
    level = min(level, max_level)
    return threshold + (1.0 - threshold) * (level / max_level)


@dataclasses.dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the runtime's overload-control layer.

    Everything defaults to *off* (``None`` / ``False``): a runtime
    built without an explicit config has no overload layer at all,
    which is what keeps the RunStats bit-identity harness
    green.  Storm benches construct one with the controls they are
    exercising.
    """

    #: Admission tokens accrued per served-message tick; ``None``
    #: disables the bucket entirely (admission limited only by
    #: ``max_sessions``).
    admission_rate: Optional[float] = None
    #: Bucket capacity — the burst of admissions an idle server will
    #: accept before the rate limit bites.
    admission_burst: float = 4.0
    #: EWMA pending-depth marking one load level; levels are
    #: ``floor(ewma / high_water)``.
    high_water: float = 2.0
    #: EWMA smoothing factor for the load tracker.
    ewma_alpha: float = 0.05
    #: Number of graduated degradation levels.
    max_level: int = 4
    #: Load-adaptive striding + cheaper serves.  Breaks bit-identity
    #: *only when the tracker leaves level 0*, and only while it is on.
    degrade: bool = False
    #: Per-connection in-sweep receive budget (seconds).  A connection
    #: that cannot complete one frame inside the budget (slow-loris
    #: drip) is torn down instead of stalling the sweep.  ``None``
    #: keeps the transport's own (generous) timeout.
    recv_budget_s: Optional[float] = None
    #: Idle-session reaper deadline (seconds of wall-clock silence on
    #: an open session before typed teardown).  ``None`` disables.
    reap_idle_s: Optional[float] = None
    #: ``retry_after`` hint stamped on capacity REJECTs, in ticks.
    capacity_retry_after: int = 64

    def __post_init__(self) -> None:
        if self.admission_rate is not None and self.admission_rate <= 0:
            raise ValueError("admission_rate must be positive or None")
        if self.capacity_retry_after < 1:
            raise ValueError("capacity_retry_after must be >= 1")
        if self.recv_budget_s is not None and self.recv_budget_s <= 0:
            raise ValueError("recv_budget_s must be positive or None")
        if self.reap_idle_s is not None and self.reap_idle_s <= 0:
            raise ValueError("reap_idle_s must be positive or None")


class OverloadController:
    """The runtime's composition of bucket + tracker + degradation maps.

    Owns the virtual tick clock: the runtime calls :meth:`served` once
    per message it handles and :meth:`observe_sweep` once per poll
    sweep.  Decision methods are thin, deterministic reads of that
    state.
    """

    #: Seconds-per-tick assumed before any measurement exists (and the
    #: conversion used by runtimes with no controller at all): the
    #: nominal cost of one small-frame serve on the bench box.
    FALLBACK_TICK_S = 0.005
    #: EWMA smoothing for the measured seconds-per-tick.
    TICK_EWMA_ALPHA = 0.1
    #: Inter-serve gaps longer than this are idle time, not serve cost —
    #: clamp so one quiet stretch cannot poison the calibration.
    TICK_CLAMP_S = 1.0

    def __init__(
        self,
        config: OverloadConfig,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self.config = config
        self.tick = 0
        self.bucket = (
            None if config.admission_rate is None
            else TokenBucket(config.admission_rate, config.admission_burst)
        )
        self.tracker = LoadTracker(
            config.high_water, config.ewma_alpha, config.max_level
        )
        self.refusals = {"overloaded": 0, "capacity": 0}
        self._clock = clock
        self._last_served_at: Optional[float] = None
        #: Measured seconds-per-tick EWMA; ``None`` until two serves
        #: have been observed.
        self.tick_s: Optional[float] = None
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        #: controller *writes* admission/level telemetry into — never
        #: reads: every decision stays a pure function of the tick
        #: trace, so recorded and unrecorded controllers are
        #: byte-identical in behaviour.
        self._metrics = metrics
        self._last_level = 0

    # -- clock -----------------------------------------------------------
    def served(self) -> None:
        """Advance the tick clock: one message was handled.

        Also calibrates the tick against wall clock: the EWMA of the
        gap between consecutive serves is what converts tick-denominated
        ``retry_after`` hints into the milliseconds clients actually
        sleep (the hints are *produced* in virtual ticks — see
        :class:`TokenBucket` — but *consumed* as wall-clock backoff).
        """
        now = self._clock()
        last = self._last_served_at
        self._last_served_at = now
        self.tick += 1
        if last is None:
            return
        dt = min(now - last, self.TICK_CLAMP_S)
        if dt < 0:
            return
        if self.tick_s is None:
            self.tick_s = dt
        else:
            self.tick_s += self.TICK_EWMA_ALPHA * (dt - self.tick_s)

    def ticks_to_ms(self, ticks: int) -> int:
        """Convert a tick-denominated hint to wall-clock milliseconds.

        Uses the measured seconds-per-tick when available, else the
        nominal fallback.  Always >= 1 ms so a REJECT can never carry a
        zero hint (the wire flag means "I have a hint").
        """
        tick_s = self.tick_s if self.tick_s is not None else self.FALLBACK_TICK_S
        return max(1, round(ticks * tick_s * 1000))

    def observe_sweep(self, pending: int) -> None:
        level = self.tracker.observe(pending)
        if level != self._last_level:
            m = self._metrics
            if m is not None:
                m.counter(
                    "overload.level_up" if level > self._last_level
                    else "overload.level_down"
                ).inc()
                m.gauge("overload.level").set(float(level))
                m.gauge("overload.peak_level").maximum(float(level))
            self._last_level = level

    # -- admission -------------------------------------------------------
    def admit(self) -> Optional[int]:
        """Spend an admission token.  ``None`` admits; otherwise the
        ``retry_after`` hint for an ``overloaded`` REJECT."""
        if self.bucket is None:
            return None
        hint = self.bucket.try_take(self.tick)
        m = self._metrics
        if hint is not None:
            self.refusals["overloaded"] += 1
            if m is not None:
                m.counter("overload.reject.overloaded").inc()
        elif m is not None:
            m.counter("overload.admit").inc()
        if m is not None:
            # Bucket occupancy after the decision — how close to the
            # rate limit the admission stream is running.
            m.gauge("overload.tokens").set(self.bucket.tokens)
        return hint

    def capacity_hint(self) -> int:
        """``retry_after`` hint for a ``capacity`` REJECT."""
        self.refusals["capacity"] += 1
        if self._metrics is not None:
            self._metrics.counter("overload.reject.capacity").inc()
        return self.config.capacity_retry_after

    # -- graduated degradation ------------------------------------------
    @property
    def level(self) -> int:
        return self.tracker.level

    def degraded_budget(self, max_updates: int) -> Optional[int]:
        """Step cap for one serve, or ``None`` for a pristine serve."""
        if not self.config.degrade:
            return None
        level = self.level
        if level <= 0:
            return None
        return serve_budget(max_updates, level)

    def degraded_metric(self, metric: float, threshold: float) -> float:
        """Reported metric after the load-adaptive stride floor."""
        if not self.config.degrade:
            return metric
        floor = metric_floor(threshold, self.level, self.config.max_level)
        return max(metric, floor)
