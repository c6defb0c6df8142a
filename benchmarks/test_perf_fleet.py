"""Benchmark: K fleet shards behind one front door vs one runtime.

A K = 2 shard fleet behind one SO_REUSEPORT front door against ONE
multiplexed ServerRuntime on the two-tenant workload (8 unpaced client
processes in two groups with different strides and nothing to share),
with per-session ``RunStats`` bit-identical across both paths.

What a fleet can buy here is placement plus a second server core, and
with 8 client processes already contending for this box's 2 cores the
second core is mostly spoken for: the ratio measured 0.90–1.20x over
fourteen PR 10–15 records (0.90x and 1.02x mid-suite, 1.01–1.20x in
the latest standalone set of eight).  So the floor is "sharding costs
little", pinned below that spread — fleet >= 0.8x one runtime — not a
speedup.  Regenerate manually with::

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
    # A fleet costs at most a fifth of the single multiplexed runtime's
    # throughput at N = 8 (median of 5 per-pair ratios).
    run_perf("fleet", {"ratio": 0.8}, _check, n_shards=2)
