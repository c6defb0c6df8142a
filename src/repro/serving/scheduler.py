"""Cooperative event-driven scheduling on a shared virtual tick clock.

The pool's concurrency model follows the event-driven, non-threaded
design of real-time multimedia interpreters: there is one thread, one
monotonically increasing virtual *tick* counter, and a priority queue
of (tick, session) events.  A session due at tick t processes exactly
one frame and re-arms itself at ``t + tick_interval`` — sessions with
``tick_interval > 1`` model clients feeding frames at a lower rate, and
``start_tick > 0`` models clients joining late.

Determinism is a feature, not an accident: events at the same tick are
always served in ascending session order, so the interleaving trace of
a pool run is a pure function of its specs.  The scheduler-determinism
tests assert exactly that.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple


class TickScheduler:
    """Priority queue of ``(tick, session_index)`` events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int]] = []
        self.ticks_served = 0

    def arm(self, tick: int, session_index: int) -> None:
        """Schedule a session to run at ``tick``."""
        heapq.heappush(self._heap, (tick, session_index))

    def __bool__(self) -> bool:
        return bool(self._heap)

    def next_due(self) -> Tuple[int, List[int]]:
        """Pop every session due at the earliest tick, in session order.

        All sessions sharing the pool's earliest tick form one
        *cohort*: they advance together, which is what lets one
        predictor call see their duplicate frames side by side.
        """
        if not self._heap:
            raise IndexError("no events scheduled")
        tick = self._heap[0][0]
        due: List[int] = []
        while self._heap and self._heap[0][0] == tick:
            due.append(heapq.heappop(self._heap)[1])
        self.ticks_served += 1
        return tick, due
