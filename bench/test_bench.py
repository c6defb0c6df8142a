"""Fast self-test of the benchmark itself (``--scale tiny`` of every workload).

Runs each workload once, traced, in this process — a traced raw block
holds everything an untraced one does, and one process pays each
pre-training once — then checks the benchmark's own contract: every
registered metric is emitted once with its unit and direction, spans
nest, the layer sum does not over-explain the round trip, counts repeat
exactly for a repeated seed and for another play order, inputs change
with the seed, and a damaged reply is caught and fails the run.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

Named on the command line only: ``bench/conftest.py`` keeps the file out
of a bare ``pytest`` from the root, so the repo's tier-1 gate (``-x``)
never trips on a wall-clock assertion of the benchmark's own.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR)]

import report  # noqa: E402
from device import measure  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Metrics that are pure functions of inputs and arithmetic.
EXACT_LAYER = [
    name for name, unit, _ in report.PER_LAYER
    if unit in ("count", "bytes", "frames") or name in (
        "striding.key_frame_pct", "transport.framing_overhead_pct")
]


def _tiny(name: str, seed: int = 0) -> dict:
    return measure(WORKLOADS[name].tiny(), seed, True, time.perf_counter())


@pytest.fixture(scope="module")
def traced_runs():
    return {name: _tiny(name) for name in WORKLOADS}


def test_benchmark_json_matches_the_registry():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == report.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert "setup_s" in names and len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_metric_is_emitted_once_and_runs_are_correct(traced_runs):
    for name, raw in traced_runs.items():
        attempted, failed = report.failed_ops(raw)
        assert failed == 0, (name, raw["checks"], raw["errors"])
        workload = WORKLOADS[name].tiny()
        assert raw["checks"]["reference"]["sessions"] == workload.viewers
        assert attempted == (
            workload.viewers * (workload.warmup_frames + workload.frames)
            + len(raw["key_frames"]) + workload.viewers * (workload.clips + 1)
        )
        line = report.result_line(raw)
        assert line["correct"] and list(line["metrics"]) == [
            n for n, _, _ in report.PER_LAYER
        ]
        assert list(report.end_to_end(raw)) == [n for n, *_ in report.END_TO_END]
        assert all(v != 0 for v in report.end_to_end(raw).values()), name


def test_spans_nest_and_share_a_request(traced_runs):
    for raw in traced_runs.values():
        for spans, roots in (
            (raw["phase_a_spans"], {"serving.key_frame_rtt"}),
            (raw["phase_b"]["spans"], {"runtime.serve"}),
        ):
            assert any(s[0] in roots for s in spans)
            for name, start, end, parent, request in spans:
                assert start <= end
                if name in roots:
                    assert request is not None
                if parent >= 0:
                    _, p_start, p_end, _, p_request = spans[parent]
                    assert p_start <= start and end <= p_end
                    if name not in roots:
                        assert request == p_request
        # one replayed serve per key frame sent, same (session, ordinal)
        sent = [(k["session"], k["ordinal"]) for k in raw["key_frames"]]
        served = [s[4] for s in raw["phase_b"]["spans"] if s[0] == "runtime.serve"]
        assert sent == served


def test_layers_reconcile_with_the_round_trip(traced_runs):
    for name, raw in traced_runs.items():
        layers = report.per_layer(raw)
        assert 0 <= layers["bench.reconcile_err_pct"] < 10, name
        # replay trains once per memo miss; every reply reports its steps
        trained = layers["engine.train_steps"]
        reported = sum(k["steps"] for k in raw["key_frames"])
        assert trained * (4 if name == "fanout-broadcast" else 1) == reported, name
    solo = report.per_layer(traced_runs["steady-people"])
    shared = report.per_layer(traced_runs["fanout-broadcast"])
    distinct = report.per_layer(traced_runs["fanout-distinct"])
    assert solo["serving.shared_hits"] == distinct["serving.shared_hits"] == 0
    assert shared["serving.shared_hits"] == 3 * shared["serving.shared_misses"] > 0
    assert shared["serving.pool_dedup_frames"] > 0 == distinct["serving.pool_dedup_frames"]


def test_counts_repeat_exactly_and_the_seed_changes_the_input(traced_runs):
    workload = WORKLOADS["fanout-broadcast"].tiny()
    other_seed = next(s for s in range(1, 64) if workload.playlist(s) != workload.playlist(0))
    first = traced_runs["fanout-broadcast"]
    again, reordered = _tiny("fanout-broadcast"), _tiny("fanout-broadcast", other_seed)
    a = report.per_layer(first)
    for run in (again, reordered):
        b = report.per_layer(run)
        assert {n: a[n] for n in EXACT_LAYER} == {n: b[n] for n in EXACT_LAYER}
        for metric in report.EXACT:
            assert report.end_to_end(first)[metric] == report.end_to_end(run)[metric]
    # same seed: the same sessions in the same order; another seed:
    # the same sessions in another order, so other input bytes
    digests = [[s["stats_digest"] for s in run["sessions"]] for run in (first, again, reordered)]
    assert digests[0] == digests[1] != digests[2]
    assert sorted(digests[0]) == sorted(digests[2])
    assert first["stream_digest"] == again["stream_digest"] != reordered["stream_digest"]


def test_a_corrupted_reply_fails_the_run():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "steady-people",
         "--scale", "tiny", "--trace", "1", "--inject", "corrupt-reply"],
        capture_output=True, text=True, timeout=120,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0 and not line["correct"] and line["failed"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
