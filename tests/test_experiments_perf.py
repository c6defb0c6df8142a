"""The perf measurement core (``repro.experiments.perf``).

Fake legs and an injected CPU clock — no process is spawned — pin what
every record relies on: alternation order, every sample kept, the
median / IQR / per-pair arithmetic, the bit-identity verdict, the floor
decision, the atomic trajectory append and the one generic formatter.
Two tests do spawn processes: the CLI run end to end, and a storm
scenario that fails mid-run, which must not leak its server.
"""

import itertools
import json
import multiprocessing
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import perf
from tests.helpers import no_shm_leak

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fake_legs(walls, signatures=None, calls=None):
    """Legs that replay ``walls[leg]`` one sample per run, log their
    call order, and return ``signatures[leg]`` (a list, one per run)."""
    cursors = {leg: itertools.count() for leg in walls}

    def make(leg):
        def run():
            run_index = next(cursors[leg])
            if calls is not None:
                calls.append(leg)
            signature = signatures[leg][run_index] if signatures else "same"
            return walls[leg][run_index], signature, {"frames": 100}
        return run

    return {leg: make(leg) for leg in walls}


def _ticking_clock(step=0.5):
    ticks = itertools.count()
    return lambda: step * next(ticks)


def _compare(walls, **kwargs):
    repeats = len(next(iter(walls.values())))
    return perf.compare("fake", {"n": 1}, _fake_legs(walls, **kwargs),
                        repeats, cpu_clock=_ticking_clock())


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_legs_alternate_and_every_sample_is_kept():
    calls = []
    record = _compare({"a": [4.0, 6.0, 5.0], "b": [2.0, 2.0, 1.0]}, calls=calls)
    assert calls == ["a", "b", "a", "b", "a", "b"]
    assert record["legs"]["a"]["samples_s"] == [4.0, 6.0, 5.0]
    assert record["legs"]["b"]["samples_s"] == [2.0, 2.0, 1.0]
    # One clock read before and one after each leg, 0.5 apart.
    assert record["legs"]["a"]["cpu_s"] == [0.5, 0.5, 0.5]
    assert record["legs"]["b"]["cpu_s"] == [0.5, 0.5, 0.5]


def test_median_iqr_and_per_pair_ratio_arithmetic():
    record = _compare({"a": [4.0, 6.0, 5.0], "b": [2.0, 2.0, 1.0]})
    a, b = record["legs"]["a"], record["legs"]["b"]
    assert (a["median_s"], a["iqr_s"]) == (5.0, 1.0)
    assert (b["median_s"], b["iqr_s"]) == (2.0, 0.5)
    assert a["frames_per_s"] == 20.0 and b["frames_per_s"] == 50.0
    # The headline is the median of the per-pair ratios (2, 3, 5), not
    # the ratio of the medians (2.5).
    assert record["ratio"] == {
        "of": ["a", "b"], "per_pair": [2.0, 3.0, 5.0], "median": 3.0, "iqr": 1.5,
    }


def test_every_record_has_the_same_top_level_keys():
    record = _compare({"a": [1.0] * 3, "b": [1.0] * 3})
    assert list(record) == [
        "name", "pr", "git_rev", "timestamp", "fingerprint", "protocol",
        "legs", "ratio", "bit_identical", "checks",
    ]
    assert record["name"] == "fake" and record["protocol"] == {"n": 1}
    assert record["checks"] == {}


def test_bit_identity_is_checked_on_every_alternation():
    walls = {"a": [1.0] * 3, "b": [1.0] * 3}
    same = {"a": ["s"] * 3, "b": ["s"] * 3}
    assert _compare(walls, signatures=same)["bit_identical"] is True
    # Only the last alternation's candidate leg differs.
    drift = {"a": ["s"] * 3, "b": ["s", "s", "t"]}
    assert _compare(walls, signatures=drift)["bit_identical"] is False
    # Nothing to compare is not the same as identical.
    none = {"a": [None] * 3, "b": [None] * 3}
    assert _compare(walls, signatures=none)["bit_identical"] is None


def test_fewer_than_three_alternations_is_refused():
    with pytest.raises(ValueError, match=">= 3 samples"):
        perf.compare("fake", {}, _fake_legs({"a": [1.0] * 2, "b": [1.0] * 2}), 2)


def test_schedule_orders_phases_and_a_single_sample_pairs_with_all():
    calls = []
    walls = {"idle": [1.0, 2.0, 3.0], "storm": [4.0], "recovery": [2.0, 2.0, 2.0]}
    record = perf.compare(
        "fake", {}, _fake_legs(walls, calls=calls),
        schedule=["idle"] * 3 + ["storm"] + ["recovery"] * 3,
        cpu_clock=_ticking_clock(),
    )
    assert calls == ["idle"] * 3 + ["storm"] + ["recovery"] * 3
    assert record["ratio"]["of"] == ["idle", "storm"]
    assert record["ratio"]["per_pair"] == [0.25, 0.5, 0.75]
    assert perf.ratio_of(record["legs"], "idle", "recovery")["per_pair"] == [
        0.5, 1.0, 1.5,
    ]


def test_ops_give_a_leg_its_absolute_latency():
    legs = {
        "a": lambda: (0.5, None, {"ops": 10}),
        "b": lambda: (0.25, None, {"ops": 0}),
    }
    record = perf.compare("fake", {}, legs, cpu_clock=_ticking_clock())
    assert record["legs"]["a"]["ms_per_op"] == 50.0
    assert "ms_per_op" not in record["legs"]["b"]


# ----------------------------------------------------------------------
# floor_holds
# ----------------------------------------------------------------------
def test_floor_holds_on_both_sides_of_a_floor():
    record = _compare({"a": [4.0, 6.0, 5.0], "b": [2.0, 2.0, 1.0]})
    assert perf.floor_holds(record, {"ratio": 3.0})
    assert not perf.floor_holds(record, {"ratio": 3.001})
    # Further ratios live in checks and are floored by name; all must hold.
    record["checks"]["other_ratio"] = perf.ratio_of(record["legs"], "b", "a")
    assert perf.floor_holds(record, {"ratio": 3.0, "other_ratio": 0.3})
    assert not perf.floor_holds(record, {"ratio": 3.0, "other_ratio": 0.5})


# ----------------------------------------------------------------------
# append_record
# ----------------------------------------------------------------------
def _stamp(name, pr, rev, value):
    return {"name": name, "pr": pr, "git_rev": rev, "value": value}


def test_append_replaces_on_name_pr_rev_and_appends_otherwise(tmp_path):
    path = tmp_path / "perf.json"
    perf.append_record(_stamp("x", "PR1", "abc", 1), path)
    perf.append_record(_stamp("y", "PR1", "abc", 2), path)
    perf.append_record(_stamp("x", "PR2", "abc", 3), path)
    perf.append_record(_stamp("x", "PR1", "abc", 4), path)  # a re-run
    records = json.loads(path.read_text())
    assert [(r["name"], r["pr"], r["value"]) for r in records] == [
        ("x", "PR1", 4), ("y", "PR1", 2), ("x", "PR2", 3),
    ]


def test_interrupted_append_leaves_the_old_trajectory_intact(tmp_path):
    path = tmp_path / "perf.json"
    perf.append_record(_stamp("x", "PR1", "abc", 1), path)
    before = path.read_bytes()
    # json.dump streams: the serialiser raises after the head of the
    # file has already been written out.
    poisoned = _stamp("y", "PR1", "abc", object())
    with pytest.raises(TypeError):
        perf.append_record(poisoned, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_hash_is_the_bench_recipe():
    """A BENCH_PERF record must be matchable to a bench/baselines.json
    segment: same six machine fields, same digest."""
    baselines = json.loads((REPO_ROOT / "bench" / "baselines.json").read_text())
    for key, segment in baselines.items():
        assert perf.fingerprint_hash(segment["fingerprint"]) == key
    assert "61878314ba90" in baselines
    fingerprint = perf.machine_fingerprint()
    assert "openblas_num_threads" in fingerprint
    assert fingerprint["fingerprint_hash"] == perf.fingerprint_hash(fingerprint)


# ----------------------------------------------------------------------
# format_record
# ----------------------------------------------------------------------
def _assert_renders(record):
    text = perf.format_record(record)
    assert text.startswith(record["name"])
    for leg in record["legs"]:
        assert f"\n  {leg} " in text
    for key in ("ratio", *record["checks"]):
        assert f"\n  {key}: " in text
    assert record["fingerprint"]["fingerprint_hash"] in text
    return text


def test_format_renders_ratios_verdicts_and_leg_facts_generically():
    record = _compare({"a": [4.0, 6.0, 5.0], "b": [0.002, 0.002, 0.001]})
    record["legs"]["b"]["counters"] = {"hits": 3}
    record["checks"].update(
        other_ratio=perf.ratio_of(record["legs"], "b", "a"),
        verdict="below resolution", wedged=False,
    )
    text = _assert_renders(record)
    assert "median 5.00 s (IQR 1.00 s)" in text
    assert "median 2.00 ms" in text and "20.00 f/s" in text
    assert "{'counters': {'hits': 3}}" in text
    assert "verdict: below resolution" in text and "wedged: False" in text
    assert "(a vs b) median 3000.0" in text


def test_committed_trajectory_is_uniform_and_renderable():
    """Every record any scenario wrote to BENCH_PERF.json has the one
    shape — so the one formatter renders it with no per-name branch —
    with >= 3 wall and CPU samples per alternated leg, absolute medians
    beside the ratio, and a matchable fingerprint."""
    records = json.loads(perf.DEFAULT_RESULTS_PATH.read_text())
    names = {record["name"] for record in records}
    # Every floored scenario is on the trajectory (the other storms
    # are registered but carry no floor).
    expected = {
        name for name in perf.SCENARIOS
        if name not in ("storm-churn-storm", "storm-scene-cut-burst")
    }
    assert expected <= names
    top_level = list(_compare({"a": [1.0] * 3, "b": [1.0] * 3}))
    for record in records:
        assert list(record) == top_level, record["name"]
        _assert_renders(record)
        for name, leg in record["legs"].items():
            assert len(leg["samples_s"]) == len(leg["cpu_s"])
            assert len(leg["samples_s"]) >= 3 or name == "storm"
            assert leg["median_s"] > 0 and leg["iqr_s"] >= 0
        assert {"per_pair", "median", "iqr", "of"} <= set(record["ratio"])
        fingerprint = record["fingerprint"]
        assert "openblas_num_threads" in fingerprint
        assert fingerprint["fingerprint_hash"] == perf.fingerprint_hash(fingerprint)


def test_cli_writes_one_record_where_it_is_told(tmp_path):
    """``scripts/bench_perf.py`` end to end on its cheapest scenario (a
    few seconds), into a fresh file: exit 0 and one record, named for
    the scenario."""
    output = tmp_path / "perf.json"
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_perf.py"),
         "plan-cache", "--output", str(output)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert [r["name"] for r in json.loads(output.read_text())] == ["plan-cache"]


# ----------------------------------------------------------------------
# A failed storm bench must not leak its server (spawns processes)
# ----------------------------------------------------------------------
@pytest.mark.storm
def test_storm_whose_probe_raises_leaves_no_server_behind(monkeypatch):
    real_run, real_start = perf.run_churn_processes, perf.start_server
    probe_waves = itertools.count()

    def failing(handle, jobs, **kwargs):
        # The warm-up wave runs; the first idle pass raises, with most
        # connection slots never dialled — so the server is alive and
        # waiting, and only the scenario closing its handle reaps it.
        if next(probe_waves) == 1:
            raise RuntimeError("probe failed")
        return real_run(handle, jobs, **kwargs)

    def start_impatient(*args, **kwargs):
        # Let the abandoned server give up after 2 s instead of 120, so
        # close() joins it promptly rather than at its join timeout.
        return real_start(*args, **{**kwargs, "idle_timeout_s": 2.0})

    monkeypatch.setattr(perf, "run_churn_processes", failing)
    monkeypatch.setattr(perf, "start_server", start_impatient)
    with no_shm_leak(), pytest.raises(RuntimeError, match="probe failed"):
        perf.storm("slow-loris", probe_frames=8)
    assert multiprocessing.active_children() == []
