"""Unit tests for the telemetry subsystem (ISSUE 8).

The obs package is the one part of the stack that is *allowed* to be
nondeterministic in what it records (wall-clock durations) but must be
deterministic in how it aggregates: bucket placement is a pure function
of the value, and merging is a pure function of the snapshot multiset.
These tests pin both down, plus the arming switchboard and the bounded
trace ring.
"""

import json
import math
import random

import pytest

from repro import obs
from repro.obs.metrics import (
    BUCKET_EXP_MAX,
    BUCKET_EXP_MIN,
    NUM_BUCKETS,
    MetricsRegistry,
    bucket_index,
    format_snapshot_table,
    merge_snapshots,
)
from repro.obs.trace import SpanRecorder, merge_traces, write_trace


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends disarmed — arming is process-global."""
    obs.disarm()
    yield
    obs.disarm()


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
def test_bucket_index_is_deterministic_log2():
    # Bucket i covers (2**(e-1), 2**e]: exact powers of two are the
    # *upper* edge of their bucket (the frexp m == 0.5 fold-down).
    assert bucket_index(1.0) == bucket_index(0.75)
    assert bucket_index(1.0) + 1 == bucket_index(1.5)
    assert bucket_index(2.0) == bucket_index(1.5)
    # Non-positive and NaN all land in bucket 0, never raise.
    assert bucket_index(0.0) == 0
    assert bucket_index(-5.0) == 0
    assert bucket_index(float("nan")) == 0
    # Clamped at both ends.
    assert bucket_index(1e-12) == 0
    assert bucket_index(1e12) == NUM_BUCKETS - 1
    # Every finite positive value maps inside the table.
    for exp in range(-30, 30):
        assert 0 <= bucket_index(2.0 ** exp) < NUM_BUCKETS
    # Bucket i's upper edge is 2**(BUCKET_EXP_MIN + i): the edge and a
    # value just below it (above the previous edge) both index bucket i.
    for i, exp in enumerate(range(BUCKET_EXP_MIN, BUCKET_EXP_MAX)):
        assert bucket_index(2.0 ** exp) == i
        assert bucket_index(2.0 ** exp * 0.9) == i
    assert BUCKET_EXP_MAX - BUCKET_EXP_MIN + 1 == NUM_BUCKETS


# ----------------------------------------------------------------------
# Registry + merge
# ----------------------------------------------------------------------
def _populated_registry(source, scale):
    reg = MetricsRegistry(source=source)
    reg.counter("events").inc(3 * scale)
    reg.gauge("depth").set(2.0 * scale)
    for v in (0.001 * scale, 0.01, 1.5):
        reg.histogram("lat_s").observe(v)
    reg.series("timeline").append([scale, 0.5], t=float(scale))
    return reg


def test_registry_name_kinds_are_exclusive():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")
    # Same-kind reuse returns the same instrument.
    assert reg.counter("x") is reg.counter("x")


def test_snapshot_is_json_able_and_clear_resets():
    reg = _populated_registry("a", 1)
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    assert snap["counters"]["events"] == 3
    assert snap["histograms"]["lat_s"]["count"] == 3
    assert math.isclose(snap["histograms"]["lat_s"]["max"], 1.5)
    reg.clear()
    empty = reg.snapshot()
    assert empty["counters"] == {} and empty["series"] == {}


def test_merge_is_order_independent_and_sums():
    snaps = [_populated_registry(f"p{i}", i + 1).snapshot() for i in range(4)]
    merged = merge_snapshots(snaps)
    assert merged["counters"]["events"] == sum(3 * (i + 1) for i in range(4))
    assert merged["gauges"]["depth"] == 8.0  # max across processes
    assert merged["histograms"]["lat_s"]["count"] == 12
    assert len(merged["series"]["timeline"]) == 4
    # Pure function of the multiset: shuffling input changes nothing.
    for seed in range(3):
        shuffled = list(snaps)
        random.Random(seed).shuffle(shuffled)
        assert json.dumps(merge_snapshots(shuffled), sort_keys=True) == \
            json.dumps(merged, sort_keys=True)


def test_merge_rejects_bucket_count_mismatch():
    a = _populated_registry("a", 1).snapshot()
    b = _populated_registry("b", 1).snapshot()
    b["histograms"]["lat_s"]["counts"] = [0] * (NUM_BUCKETS + 1)
    with pytest.raises(ValueError):
        merge_snapshots([a, b])


def test_format_snapshot_table_renders_all_kinds():
    text = format_snapshot_table(_populated_registry("a", 1).snapshot())
    for needle in ("events", "depth", "lat_s", "timeline", "counter",
                   "gauge", "histogram", "series"):
        assert needle in text


def test_series_is_bounded():
    reg = MetricsRegistry(series_capacity=8)
    s = reg.series("t")
    for i in range(100):
        s.append(i, t=float(i))
    entries = reg.snapshot()["series"]["t"]
    assert len(entries) == 8
    assert entries[0][1] == 92  # newest entries kept


# ----------------------------------------------------------------------
# Trace ring
# ----------------------------------------------------------------------
def test_trace_ring_is_bounded_and_counts_drops():
    rec = SpanRecorder(capacity=4)
    for i in range(10):
        with rec.span("work", i=i):
            pass
    assert len(list(rec.events)) == 4
    assert rec.recorded == 10
    assert rec.dropped == 6


def test_chrome_events_schema(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", session="s0"):
        rec.instant("mark", level=2)
    events = rec.chrome_events(pid=7, tid=1)
    assert len(events) == 2
    for event in events:
        for key in ("ph", "name", "ts", "pid", "tid"):
            assert key in event
        assert event["pid"] == 7
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert spans[0]["name"] == "outer" and "dur" in spans[0]
    assert spans[0]["args"] == {"session": "s0"}
    assert instants[0]["s"] == "p"
    # write_trace emits the Chrome trace-event JSON envelope.
    path = tmp_path / "trace.json"
    write_trace(str(path), merge_traces([events]))
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["traceEvents"][0]["name"] in ("outer", "mark")


def test_merge_traces_sorts_by_timestamp():
    a = [{"ph": "X", "name": "b", "ts": 5.0, "pid": 1, "tid": 0}]
    b = [{"ph": "X", "name": "a", "ts": 1.0, "pid": 2, "tid": 0}]
    merged = merge_traces([a, b])
    assert [e["ts"] for e in merged] == [1.0, 5.0]


# ----------------------------------------------------------------------
# Arming switchboard
# ----------------------------------------------------------------------
def test_disarmed_calls_are_harmless_and_unexported(tmp_path):
    assert not obs.enabled()
    obs.counter("never").inc()          # void registry, no error
    with obs.span("never"):
        pass
    assert obs.snapshot() is None
    assert obs.trace_events() == []
    assert obs.export_artifacts(str(tmp_path)) is None
    assert list(tmp_path.iterdir()) == []


def test_arm_and_export_roundtrip(tmp_path):
    obs.arm(metrics=True, trace=True, source="t0")
    assert obs.enabled() and not obs.engine_timing()
    obs.counter("hits").inc(2)
    with obs.span("phase"):
        pass
    path = obs.export_artifacts(str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["source"] == "t0"
    assert artifact["snapshot"]["counters"]["hits"] == 2
    assert artifact["trace"][0]["name"] == "phase"
    assert artifact["trace_dropped"] == 0
    obs.disarm()
    assert not obs.enabled() and obs.snapshot() is None


@pytest.mark.parametrize("raw,expect", [
    ("", (False, False, False)),
    ("0", (False, False, False)),
    ("1", (True, True, False)),
    ("metrics", (True, False, False)),
    ("metrics,trace", (True, True, False)),
    ("metrics, trace, engine", (True, True, True)),
    ("engine", (False, False, True)),
])
def test_arm_from_env_parsing(monkeypatch, raw, expect):
    metrics, trace, engine = expect
    monkeypatch.setenv(obs.ENV_FEATURES, raw)
    armed = obs.arm_from_env(source="t")
    assert armed == any(expect)
    assert obs.engine_timing() == engine
    if metrics:
        assert obs.snapshot() is not None
    else:
        assert obs.snapshot() is None
    if trace:
        with obs.span("x"):
            pass
        assert obs.trace_events()
    else:
        with obs.span("x"):
            pass
        assert obs.trace_events() == []

