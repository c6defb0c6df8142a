"""Benchmark: telemetry overhead must stay near zero (ISSUE 8).

The observability acceptance floor: the serve-many deployment with the
full telemetry stack armed (metrics registry + span tracing + per-plan-
step engine timing, in the server and every client process) must keep
>= 0.9x the throughput of the same deployment disarmed — and stay
bit-identical across the two legs, because telemetry records wall-clock
but never feeds computation.  Five alternating pairs, so the ratio is a
median and the cost is stated as a CPU-seconds delta with its spread
(or "below resolution").  Regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py obs-overhead
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # Correctness first: armed sessions must be observably the same
    # sessions — telemetry observes, never alters.
    assert record["bit_identical"]
    armed = record["legs"]["armed"]
    assert armed["server_exit_reason"] == "quiesced"
    # The armed leg must actually have measured something: a populated
    # server snapshot and a non-empty trace, else 1.0x is vacuous —
    # and the disarmed leg nothing.
    assert armed["telemetry_counters"] >= 1
    assert armed["trace_events"] >= 1
    assert record["legs"]["disarmed"]["trace_events"] == 0
    assert record["checks"]["cpu_overhead"]


@pytest.mark.benchmark(group="perf_obs")
def test_armed_telemetry_keeps_throughput(run_perf):
    run_perf("obs-overhead", {"ratio": 0.9}, _check)
