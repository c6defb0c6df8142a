"""Overload control for the multiplexing server runtime.

:class:`~repro.serving.runtime.ServerRuntime`'s front door
(ADMIT/REJECT) would otherwise defend itself against hostile or bursty
traffic with nothing but the ``max_sessions`` cliff.  This module
supplies the admission half of the alternative; the runtime composes
it with two per-connection controls that :class:`OverloadConfig` also
carries (a receive budget against slow-loris peers and an idle-session
reaper).  Every control sheds load by refusing an admission or tearing
a connection down — none changes what an admitted session computes, so
``RunStats`` are bit-identical under every configuration.

:class:`TokenBucket`
    A virtual-time admission limiter.  Time is the runtime's *tick
    clock* — one tick per message served — so refill is a deterministic
    function of work actually done, never of wall-clock races.  When
    the bucket is empty the admission is refused with a typed
    ``retry_after`` hint (ticks until a token exists), which rides the
    REJECT body back to the client.

:class:`OverloadController`
    The runtime's owner of the tick clock and the bucket: it converts
    tick-denominated hints into the milliseconds clients sleep and
    answers the ``capacity`` REJECT's hint.

:class:`OverloadConfig` bundles the knobs; every runtime owns a
controller, and everything defaults to *off*.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional

__all__ = [
    "TokenBucket",
    "OverloadConfig",
    "OverloadController",
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


@dataclasses.dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the runtime's overload-control layer.

    Every control defaults to *off* (``None``), and a runtime built
    without an explicit config runs this default: its controller keeps
    the tick clock but refuses no admission, sets no receive budget and
    reaps nothing.  Storm benches construct one with the controls they
    are exercising.
    """

    #: Admission tokens accrued per served-message tick; ``None``
    #: disables the bucket entirely (admission limited only by
    #: ``max_sessions``).
    admission_rate: Optional[float] = None
    #: Bucket capacity — the burst of admissions an idle server will
    #: accept before the rate limit bites.
    admission_burst: float = 4.0
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
    """The runtime's admission bucket over its virtual tick clock.

    The runtime calls :meth:`served` once per message it handles.
    Decision methods are thin, deterministic reads of that state.
    """

    #: Seconds-per-tick assumed before any measurement exists: the
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
        self.refusals = {"overloaded": 0, "capacity": 0}
        self._clock = clock
        self._last_served_at: Optional[float] = None
        #: Measured seconds-per-tick EWMA; ``None`` until two serves
        #: have been observed.
        self.tick_s: Optional[float] = None
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        #: controller *writes* admission telemetry into — never
        #: reads: every decision stays a pure function of the tick
        #: trace, so recorded and unrecorded controllers are
        #: byte-identical in behaviour.
        self._metrics = metrics

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
