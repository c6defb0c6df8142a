#!/usr/bin/env bash
# Tier-1 verification gate: runs the repo's test suite exactly as
# ROADMAP.md specifies, then a fast real-transport smoke test.  Extra
# pytest arguments pass through, e.g.
#   scripts/test_tier1.sh -m "not perf"     # skip wall-clock benchmarks
#   scripts/test_tier1.sh tests/            # fast tier only
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
python -m pytest -x -q "$@"
# Two-process smoke: a tiny session on a one-session server process
# over the shared-memory transport must match the in-process run bit
# for bit.  Hard timeout so a ring
# handshake regression fails the gate instead of hanging it.
timeout 300 python scripts/smoke_transport.py
# Multi-client smoke: one multiplexed server process serving 4 client
# processes (shm and socket) must match the in-process runs bit for
# bit.  Hard timeout: a wedged event loop fails the gate, not hangs it.
timeout 300 python scripts/smoke_serve_many.py
# Overload smoke (ISSUE 6): an overload-armed server must survive the
# slow-loris and thundering-herd storms — honest traffic served or
# typed-rejected with retry hints, attackers torn down, no shm leak.
# Hard timeout: a wedged server fails the gate, not hangs it.
timeout 300 python scripts/smoke_storm.py
# Fleet smoke (ISSUE 10): two shards behind one SO_REUSEPORT front
# door sharing a read-only teacher segment must serve a churned
# 4-client population bit-identically to in-process runs, drain both
# shards to "quiesced", drain the placement ledger, and leak no shm
# segment.  Hard timeout: a wedged shard fails the gate, not hangs it.
timeout 300 python scripts/smoke_fleet.py
# Observability smoke (ISSUE 8): a fully-armed serve-many run must
# stay bit-identical to the disarmed in-process run and must yield a
# parseable Chrome trace plus a merged cross-process metrics table.
# Hard timeout: a telemetry-wedged server fails the gate, not hangs it.
timeout 300 python scripts/smoke_obs.py
# The lints run in the pytest suite above: retired names
# (tests/test_public_api.py::TestRetiredNamesStayRetired), yield-spin
# waits (TestNoWaitYieldSpins, same file), SciPy in the runtime
# (tests/test_dependencies.py) and the docs' python snippets
# (tests/test_doc_snippets.py).
# CLI smoke (ISSUE 16): no test imports scripts/bench_perf.py, so run
# its cheapest scenario (a few seconds) into a throwaway file (in a
# fresh directory: an existing empty file is not a trajectory).
timeout 120 python scripts/bench_perf.py plan-cache --output "$(mktemp -d)/perf.json"
