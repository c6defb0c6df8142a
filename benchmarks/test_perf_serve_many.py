"""Benchmark: one server process x N client processes vs in-process.

ONE :class:`~repro.serving.runtime.ServerRuntime` process serving N = 4
concurrent client processes (every session ADMITted over the wire)
against the same four sessions run in one process back to back, on the
broadcast frame workload — five alternating legs each, per-session
``RunStats`` bit-identical across both, every alternation.

What the server process buys here is the shared memo (48 of 64
distillations spared); what it costs is five processes to spawn and
schedule on this box's 2 cores.  Each process runs OpenBLAS on one
thread (``repro._one_blas_thread``); on the default one thread per core
the five processes' idle BLAS workers spun on the shared cores and the
multiplexed leg ran 4.7x slower (9.1 s against 1.9 s), below this floor.
On one thread the ratio of median walls read 2.54x and 2.52x in two
runs (65.8–66.6 f/s multiplexed against 22.6–25.2 f/s in-process, 2-core
Xeon), the slowest multiplexed sample 42 % above its leg's median.  The floor is still
"serving out of process costs little" — multiplexed >= 0.6x of
in-process — not the speedup.  Regenerate manually with::

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
    # Far below the ~2.5x measured on one BLAS thread (see above).
    run_perf("serve-many", {"ratio": 0.6}, _check, num_clients=4)
