"""A dependency-free metrics registry for the serving stack (ISSUE 8).

Four instrument kinds, all plain Python over plain numbers, so a
registry can live in any process — the multiplexing server, each
standalone client, the bench driver — and their snapshots merge into
one cross-process view after the fact:

:class:`Counter`
    A monotone event count (``inc``).  Merge: sum.
:class:`Gauge`
    A level — last-set value with a ``maximum`` convenience for
    high-water marks.  Merge: max (deterministic regardless of which
    process's snapshot arrives first; gauges from different processes
    measure the same kind of level, and the merged table answers "how
    high did it get anywhere").
:class:`Histogram`
    Fixed log-scale buckets shared by *every* histogram in *every*
    process: bucket ``i`` covers ``(2**(e-1), 2**e]`` for exponents
    ``BUCKET_EXP_MIN .. BUCKET_EXP_MAX`` (sub-microsecond to
    kiloseconds when observing seconds), so merging is an elementwise
    sum with no bucket-boundary negotiation.  Merge: counts add,
    min/max combine.
:class:`Series`
    A bounded append-only timeline of ``(t, value)`` pairs — the
    per-session stride/metric/degradation histories ROADMAP item 5
    (quality-aware shedding) needs recorded before it can be built.
    Merge: concatenation, deterministically sorted.

Everything here *observes*; nothing is read back into the computation.
That is the subsystem's load-bearing invariant: the RunStats
bit-identity harnesses stay green with telemetry armed because no
decision anywhere depends on a recorded value.

Snapshots are plain JSON-able dicts (:meth:`MetricsRegistry.snapshot`),
merged by :func:`merge_snapshots` — a pure function of the snapshot
*multiset* (input order never changes the result), which is what lets
``scripts/obs_report.py`` fold one server + N client artifacts into a
single table reproducibly.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BUCKET_EXP_MIN",
    "BUCKET_EXP_MAX",
    "NUM_BUCKETS",
    "bucket_index",
    "bucket_bounds",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "merge_snapshots",
    "format_snapshot_table",
]

#: Histogram bucket exponents: bucket ``i`` is ``(2**(e-1), 2**e]`` for
#: ``e = BUCKET_EXP_MIN + i``; the first bucket also absorbs everything
#: at or below ``2**(BUCKET_EXP_MIN-1)`` (including zero and negatives)
#: and the last everything above ``2**BUCKET_EXP_MAX``.  With seconds
#: as the unit the range spans ~0.5 µs to ~4096 s, which covers every
#: duration the serving stack can produce.
BUCKET_EXP_MIN = -21
BUCKET_EXP_MAX = 12
NUM_BUCKETS = BUCKET_EXP_MAX - BUCKET_EXP_MIN + 1


def bucket_index(value: float) -> int:
    """Deterministic log2 bucket of ``value``; clamped to the range."""
    if value <= 0.0 or value != value:  # zero, negative, NaN
        return 0
    # frexp: value = m * 2**e with 0.5 <= m < 1, so 2**(e-1) < value <= 2**e
    # except at exact powers of two where m == 0.5 lands in the lower
    # bucket's exclusive bound — frexp(1.0) == (0.5, 1) gives e == 1 and
    # 1.0 is the *upper* edge of bucket e=0... frexp(1.0) is (0.5, 1),
    # meaning value == 2**(e-1); fold it down one bucket.
    m, e = math.frexp(value)
    if m == 0.5:
        e -= 1
    return min(max(e - BUCKET_EXP_MIN, 0), NUM_BUCKETS - 1)


def bucket_bounds() -> List[float]:
    """Upper edge of every bucket (the last is ``inf``)."""
    edges = [2.0 ** e for e in range(BUCKET_EXP_MIN, BUCKET_EXP_MAX)]
    edges.append(float("inf"))
    return edges


class Counter:
    """Monotone event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-set level with a high-water-mark helper."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def maximum(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (high-water)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed log2-bucket histogram (see module docstring)."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class Series:
    """Bounded append-only timeline of ``(t, value)`` pairs.

    ``value`` must be JSON-able (numbers or small lists of numbers);
    ``t`` defaults to the monotonic clock so entries from different
    processes on one machine sit on a common axis.  Bounded so a
    long-running server cannot grow without limit — the *newest*
    ``capacity`` entries are kept.
    """

    __slots__ = ("entries",)

    def __init__(self, capacity: int = 4096) -> None:
        self.entries: deque = deque(maxlen=capacity)

    def append(self, value: Any, t: Optional[float] = None) -> None:
        self.entries.append((time.monotonic() if t is None else t, value))


class MetricsRegistry:
    """One process's named instruments, snapshot-able as plain JSON.

    Instruments are get-or-create by flat name (dots delimit informal
    namespaces: ``serve.key_frames``, ``shm.wait_s``).  A name belongs to
    exactly one kind for the registry's lifetime; reusing it across
    kinds raises, loudly, because a silent re-kind would corrupt merges.
    """

    def __init__(self, source: str = "proc",
                 series_capacity: int = 4096) -> None:
        self.source = source
        self.series_capacity = series_capacity
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, Series] = {}

    # ------------------------------------------------------------------
    def _claim(self, name: str, table: Dict[str, Any]) -> None:
        for other in (self._counters, self._gauges,
                      self._histograms, self._series):
            if other is not table and name in other:
                raise ValueError(
                    f"metric name {name!r} is already a different "
                    "instrument kind"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name, self._counters)
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name, self._gauges)
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(name, self._histograms)
            instrument = self._histograms[name] = Histogram()
        return instrument

    def series(self, name: str) -> Series:
        instrument = self._series.get(name)
        if instrument is None:
            self._claim(name, self._series)
            instrument = self._series[name] = Series(self.series_capacity)
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view of every instrument (sorted names)."""
        return {
            "source": self.source,
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: [[t, value] for t, value in s.entries]
                for name, s in sorted(self._series.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._series.clear()


# ----------------------------------------------------------------------
# Cross-process aggregation
# ----------------------------------------------------------------------
def _entry_key(entry: Sequence) -> tuple:
    """Total order over merged series entries (ties broken by content)."""
    return (entry[0], str(entry[1]), json.dumps(entry[2], sort_keys=True,
                                                default=str))


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-process snapshots into one deterministic view.

    Counters sum; gauges take the max; histograms sum bucket-wise and
    combine min/max; series concatenate as ``[t, source, value]``
    triples sorted on ``(t, source, value)``.  The result is a pure
    function of the snapshot *multiset* — shuffling the input list
    never changes a byte of the output — so reports regenerate
    identically from the same artifacts.
    """
    snapshots = sorted(snapshots, key=lambda s: str(s.get("source", "")))
    merged: Dict[str, Any] = {
        "source": "+".join(str(s.get("source", "?")) for s in snapshots),
        "counters": {},
        "gauges": {},
        "histograms": {},
        "series": {},
    }
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            prev = merged["gauges"].get(name)
            merged["gauges"][name] = value if prev is None else max(prev, value)
        for name, hist in snap.get("histograms", {}).items():
            out = merged["histograms"].get(name)
            if out is None:
                out = merged["histograms"][name] = {
                    "counts": [0] * len(hist["counts"]),
                    "count": 0, "total": 0.0, "min": None, "max": None,
                }
            if len(hist["counts"]) != len(out["counts"]):
                raise ValueError(
                    f"histogram {name!r} bucket count mismatch across "
                    "snapshots (different telemetry versions?)"
                )
            out["counts"] = [
                a + b for a, b in zip(out["counts"], hist["counts"])
            ]
            out["count"] += hist["count"]
            out["total"] += hist["total"]
            for bound, pick in (("min", min), ("max", max)):
                if hist[bound] is not None:
                    out[bound] = (
                        hist[bound] if out[bound] is None
                        else pick(out[bound], hist[bound])
                    )
        source = str(snap.get("source", "?"))
        for name, entries in snap.get("series", {}).items():
            out = merged["series"].setdefault(name, [])
            out.extend([t, source, value] for t, value in entries)
    for name, entries in merged["series"].items():
        entries.sort(key=_entry_key)
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    merged["series"] = dict(sorted(merged["series"].items()))
    return merged


def format_snapshot_table(snapshot: Dict[str, Any],
                          title: str = "metrics") -> str:
    """Render one (possibly merged) snapshot as an aligned text table."""
    rows: List[tuple] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((name, "counter", f"{value}"))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append((name, "gauge", f"{value:g}"))
    for name, hist in snapshot.get("histograms", {}).items():
        if hist["count"]:
            mean = hist["total"] / hist["count"]
            detail = (
                f"n={hist['count']} mean={mean:.6g} "
                f"min={hist['min']:.6g} max={hist['max']:.6g}"
            )
        else:
            detail = "n=0"
        rows.append((name, "histogram", detail))
    for name, entries in snapshot.get("series", {}).items():
        rows.append((name, "series", f"{len(entries)} entries"))
    rows.sort()
    header = f"{title} [{snapshot.get('source', '?')}]"
    if not rows:
        return f"{header}\n  (empty)"
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    lines = [header] + [
        f"  {name:<{name_w}}  {kind:<{kind_w}}  {detail}"
        for name, kind, detail in rows
    ]
    return "\n".join(lines)
