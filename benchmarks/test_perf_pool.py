"""Benchmark: multi-session serving pool on the fan-out scenario.

The ISSUE-2 acceptance floor: serving 16 sessions of one stream through
the cooperative pool (deduplicated identical frames, memoised
distillation) must be >= 2x frames/sec over the same 16
sessions run sequentially, with every session's ``RunStats``
bit-identical to its sequential twin.  Regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py pool-fanout
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # Pooling must never change results: every session's stats are
    # bit-identical to its own sequential run, on every alternation.
    assert record["bit_identical"]
    # Amortisation really happened: training ran once per distinct key
    # frame, duplicate frames were served from one predict.
    counters = record["legs"]["pooled"]["counters"]
    assert counters["distill_hits"] > 0
    assert counters["deduped_frames"] > 0


@pytest.mark.benchmark(group="perf_pool")
def test_pool_throughput(scale, run_perf):
    # Measured ~6-9x quiet; wall-clock measurements are load-sensitive,
    # so keep heavy parallel jobs off this run.
    run_perf(
        "pool-fanout", {"ratio": 2.0}, _check,
        num_sessions=16,
        num_frames=64,
        width=scale.student_width,
        pretrain_steps=scale.pretrain_steps,
    )
