"""Benchmark: multi-session serving pool on the fan-out scenario.

The ISSUE-2 acceptance floor: serving 16 sessions of one stream through
the cooperative pool (deduplicated identical frames, memoised
distillation) must be >= 2x frames/sec over the same 16
sessions run sequentially, with every session's ``RunStats``
bit-identical to its sequential twin.  The measured record is appended
to ``BENCH_PERF.json``; regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py --pool 16
"""

import pytest

from repro.experiments.perf import (
    append_record,
    format_pool_record,
    measure_pool_throughput,
)

pytestmark = pytest.mark.perf


@pytest.mark.benchmark(group="perf_pool")
def test_pool_throughput(scale, results_sink):
    record = measure_pool_throughput(
        num_sessions=16,
        num_frames=64,
        width=scale.student_width,
        pretrain_steps=scale.pretrain_steps,
    )
    text = format_pool_record(record)
    print(text)
    results_sink(text)

    # Pooling must never change results: every session's stats are
    # bit-identical to its own sequential run.
    assert record["pool_bit_identical"]
    # Amortisation really happened: training ran once per distinct key
    # frame, duplicate frames were served from one predict.
    counters = record["pool"]["counters"]
    assert counters["distill_hits"] > 0
    assert counters["deduped_frames"] > 0
    # The acceptance floor (ISSUE 2): >= 2x frames/sec pooled vs
    # sequential.  Measured ~6x quiet; wall-clock measurements are
    # load-sensitive, so keep heavy parallel jobs off this run.
    assert record["speedup"] >= 2.0
    # Append only after the floor holds, so a failing run cannot
    # pollute the committed perf trajectory.
    append_record(record)
