"""Benchmark: K fleet shards behind one front door vs one runtime.

A K = 2 shard fleet behind one SO_REUSEPORT front door against ONE
multiplexed ServerRuntime on the two-tenant workload (8 unpaced client
processes in two groups with different strides and nothing to share),
with per-session ``RunStats`` bit-identical across both paths.

This is not a throughput claim.  A fleet's rent is shard isolation (a
SIGKILLed shard takes only its own sessions with it) and tenant
separation (one event loop per tenant); with 8 client processes
already filling this box's 2 cores a second server core buys nothing:
the ratio reads ~1.0x (0.90-1.20x over the PR 10-17 records; 4.43 vs
4.36 s at 96x144 with BLAS pinned to one thread, ten pairs, PR 18).  The floor states
what isolation may cost -- fleet >= 0.8x one runtime.  Regenerate
manually with::

    PYTHONPATH=src python scripts/bench_perf.py fleet
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # Correctness first: the ratio only counts if every fleet session
    # is observably the same session the single runtime ran.
    assert record["bit_identical"]
    fleet = record["legs"]["fleet"]
    assert record["legs"]["single-runtime"]["server_processes"] == 1
    assert fleet["server_processes"] == 2
    # Placement accounting: all 8 clients placed, and every claim
    # released by the drain (the report snapshots the ledger after the
    # shards quiesce, so leftover load would be a leak).
    assert fleet["placed"] == record["protocol"]["num_clients"]
    assert sum(fleet["loads"]) == 0
    assert fleet["exit_reasons"] == ["quiesced", "quiesced"]


@pytest.mark.benchmark(group="perf_fleet")
def test_two_shards_beat_one_runtime(run_perf):
    # Isolation costs at most a fifth of the single multiplexed
    # runtime's throughput at N = 8 (median of 5 per-pair ratios).
    run_perf("fleet", {"ratio": 0.8}, _check, n_shards=2)
