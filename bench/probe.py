"""Span probe: times calls into the program's public callables from outside.

``Probe.wrap(owner, attr, name)`` replaces ``owner.attr`` with a wrapper
that records one span per call — ``[name, start, end, parent, request]``
— in memory; ``Probe.restore()`` puts every original back.  ``parent``
is the index of the span that was open when the call began (``-1`` at
the top), so a layer's self time is its duration minus its children's.
``request`` identifies the key frame a span belongs to, ``(session,
key-frame ordinal)``: a probe given a ``request=`` function computes it
from the call's arguments, every other span inherits its parent's.

The program under test is single-threaded by construction (see
bench/README.md), so one stack is enough.
"""

from __future__ import annotations

import time
import types
from typing import Any, Callable, List, Optional

NAME, START, END, PARENT, REQUEST = range(5)


class Probe:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``after(span_index, args, result)`` runs once the span is closed
        (outside the timed interval) — how a run keeps the key frames it
        sent and the replies it got.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def probed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if request is not None:
                req = request(*args, **kwargs)
            else:
                req = spans[parent][REQUEST] if parent >= 0 else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, req]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        probed.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, probed)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def per_span_cost(calls: int = 20000) -> float:
    """Measured cost of one probed call over an unprobed one, seconds."""

    target = types.SimpleNamespace(noop=lambda: None)

    def loop() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            target.noop()
        return time.perf_counter() - t0

    bare = loop()
    with Probe() as probe:
        probe.wrap(target, "noop", "noop")
        probed = loop()
    return max(0.0, probed - bare) / calls
