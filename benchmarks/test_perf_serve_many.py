"""Benchmark: one server process x N client processes vs in-process.

ONE :class:`~repro.serving.runtime.ServerRuntime` process serving N = 4
concurrent client processes (every session ADMITted over the wire)
against the same four sessions run in one process back to back, on the
broadcast frame workload — five alternating legs each, per-session
``RunStats`` bit-identical across both, every alternation.

What the server process buys here is the shared memo (48 of 64
distillations spared); what it costs is five processes to spawn and
schedule on this box's 2 cores, each with its own BLAS threads.  The
two roughly cancel: the ratio of median walls measured 0.82 / 0.85 /
0.91x (neural teacher, 13.7–15.3 f/s multiplexed against 16.1–18.0 f/s
in-process) and 0.93 / 1.01 / 1.06x (oracle teacher) over six
standalone records, a leg's own samples spreading about ±15 %.  So the
floor is "serving out of process costs little", pinned below that
spread — multiplexed >= 0.6x of in-process — not a speedup.  (With
``OPENBLAS_NUM_THREADS=1`` the same multiplexed leg runs ~3x faster
than in-process: the memo's saving is real, the thread oversubscription
is what spends it.)  Regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py --serve-many 4
    PYTHONPATH=src python scripts/bench_perf.py --serve-many 4 --churn
"""

import pytest

from repro.experiments.perf import (
    append_record,
    format_serve_many_record,
    measure_serve_many_churn,
    measure_serve_many_throughput,
)

pytestmark = pytest.mark.perf

#: Below the 0.82–1.06x six standalone records measured (see above).
_RATIO_FLOOR = 0.6


def _check(record):
    # Correctness first: a throughput only counts if the multiplexed
    # sessions are observably the same sessions, on every alternation.
    assert record["bit_identical"]
    assert record["multiplexed"]["server_processes"] == 1
    assert record["sequential_inproc"]["server_processes"] == 0
    assert len(record["multiplexed"]["samples_s"]) == record["protocol"]["repeats"]
    assert record["fingerprint"]["nproc"]
    assert record["speedup"] >= _RATIO_FLOOR


@pytest.mark.benchmark(group="perf_serve_many")
def test_multiplexed_keeps_pace_with_in_process(results_sink):
    record = measure_serve_many_throughput(num_clients=4)
    text = format_serve_many_record(record)
    print(text)
    results_sink(text)

    _check(record)
    # The broadcast population's duplicate key frames are labelled and
    # distilled once each, by digest, with no wait for co-arrival.
    counters = record["multiplexed"]["serve_counters"]
    assert record["protocol"]["teacher"] == "neural"
    assert counters["label_hits"] > 0 and counters["hits"] > 0
    assert counters["key_frames"] == (
        counters["label_hits"] + counters["label_misses"]
    )
    # Append only after the floor holds, so a failing run cannot
    # pollute the committed perf trajectory.
    append_record(record)


@pytest.mark.benchmark(group="perf_serve_many")
def test_wire_admitted_sessions_keep_the_floor(results_sink):
    """The oracle-teacher record: admission is a handshake cost, not a
    per-frame one, so the same floor holds with nothing for the label
    memo to share."""
    record = measure_serve_many_churn(num_clients=4)
    text = format_serve_many_record(record)
    print(text)
    results_sink(text)

    _check(record)
    assert record["churn"] is True
    append_record(record)
