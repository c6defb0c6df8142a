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
0.91x (13.7–15.3 f/s multiplexed against 16.1–18.0 f/s in-process) over
three standalone PR-15 records, a leg's own samples spreading about
±15 %.  So the floor is "serving out of process costs little", pinned
below that spread — multiplexed >= 0.6x of in-process — not a speedup.
(With ``OPENBLAS_NUM_THREADS=1`` the same multiplexed leg runs ~3x
faster than in-process: the memo's saving is real, the thread
oversubscription is what spends it.)  Regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py serve-many
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # Correctness first: a throughput only counts if the multiplexed
    # sessions are observably the same sessions, on every alternation.
    assert record["bit_identical"]
    mux = record["legs"]["multiplexed"]
    assert mux["server_processes"] == 1
    assert record["legs"]["in-process"]["server_processes"] == 0
    assert len(mux["samples_s"]) == len(mux["cpu_s"]) == 5
    assert record["fingerprint"]["nproc"]
    # The broadcast population's duplicate key frames are labelled and
    # distilled once each, by digest, with no wait for co-arrival.
    counters = mux["serve_counters"]
    assert record["protocol"]["teacher"] == "neural"
    assert counters["label_hits"] > 0 and counters["hits"] > 0
    assert counters["key_frames"] == (
        counters["label_hits"] + counters["label_misses"]
    )


@pytest.mark.benchmark(group="perf_serve_many")
def test_multiplexed_keeps_pace_with_in_process(run_perf):
    # Below the 0.82–0.91x the standalone records measured (see above).
    run_perf("serve-many", {"ratio": 0.6}, _check, num_clients=4)
