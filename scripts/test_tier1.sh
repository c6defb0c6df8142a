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
# Escape-hatch lint: a replaced path is removed, not hidden behind a
# flag or an env var, and its names may not come back anywhere outside
# the historical record (CHANGES.md / ROADMAP.md), the issue text and
# bench/, which is frozen (its README and probes describe the tree it
# was written against).  One `label|pattern` line per deletion:
#  ISSUE 9   full-mode training rides the generated adjoint plan
#  ISSUE 12  plans are compiled once per architecture per process
#  ISSUE 13  key frames are served inline and deduplicated by digest
#  ISSUE 14  ADMIT is the only way in, VERSION the only wire dialect
#  ISSUE 15  every out-of-process session is an ADMIT on a ServerRuntime
#  ISSUE 16  a perf scenario is legs + data on the one `compare` core
#  ISSUE 17  two step runners: compiled, autograd (ISSUE 22: pre-training
#            steps through the same two, chosen in make_step_runner)
#  ISSUE 20  one fleet front door, two transports in a table
#  ISSUE 21  one way to wait: the publisher always rings, the waiter
#            parks in one select until its own deadline
#  ISSUE 24  no switch selects the interpreted path: a model with a
#            plan runs it (BENCH_PERF.json keeps the old records' names)
RETIRED='REPRO_ENGINE_FULL escape hatch|REPRO_ENGINE_FULL
plan-cache escape hatch or weight_static|REPRO_[A-Z_]*PLAN|weight_static
co-arrival serving path (gather window / cohort / stacked serve)|gather_window_s|BatchedTeacher|infer_batch|predict_batch|\bper_sample(_stats)?\b|wide_gemm_column_stable|iter_pow2_chunks|_serve_cohort|batch_predicts
HELLO / blueprint-table / legacy wire-version path|_REJECT_HEAD_V[0-9]|_V2_KINDS|\bKIND_HELLO\b|wire\.Hello|\bopen_session\b|_open_session|admit_ticket|admit_address|_pending_blueprints|REJECT_(DISABLED|UNKNOWN_SESSION|SESSION_IN_USE)|share_work
dedicated-server / pipe-transport / isend-irecv path|serve_endpoint|\bRemoteServer\b|RemoteTrainResult|_SessionChannel|PipeTransport|spawn_pipe_pair|comm\.mp|SimulatedChannel|\bisend\b|\birecv\b|_build_remote_session
retired perf-measurement name or REPRO_ENGINE env switch|measure_serve_many_churn|serve-many-churn|migrate_records|_headline_speedup|format_(train|plan_cache|storm|fleet|serve_many|obs|pool)_record|--migrate|\bREPRO_ENGINE\b
trainer cached-front middle tier|_CachedFrontStepRunner
shm fleet director / link shaper / plug-in registry / repro.comm|_director_main|_HandoffListener|_ReplayTransport|_start_shm_fleet|ShapedEndpoint|shape_endpoint_pair|last_recv_nbytes|register_transport|TransportDef|repro\.comm|ledger_capacity|shm_options
yield-spin / waiting-flag / back-off-nap / arm-disarm wait|_YIELD_SPINS|_YIELD_SWEEPS|_DOORBELL_NAP_MAX_S|_DOORBELL_WAIT_MAX_S|arm_doorbell|disarm_doorbell|_CONSUMER_WAITING|_PRODUCER_WAITING|_HAVE_EVENTFD
process-wide engine switch|\bset_enabled\b|engine\.disabled|engine\.is_enabled'
while IFS='|' read -r label pattern; do
  if grep -rnIE -e "$pattern" . \
      --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
      --exclude-dir=raw --exclude-dir=bench \
      --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
      --exclude=test_tier1.sh; then
    echo "FAIL: $label reintroduced" >&2
    exit 1
  fi
done <<< "$RETIRED"
# Same deletion (ISSUE 21): no wait under the transports or in the
# server loop may yield-spin.
if grep -nE "time\.sleep\(0\)" -r src/repro/transport src/repro/serving/runtime.py; then
  echo "FAIL: yield-spin wait reintroduced" >&2
  exit 1
fi
# CLI smoke (ISSUE 16): no test imports scripts/bench_perf.py, so run
# its cheapest scenario (a few seconds) into a throwaway file (in a
# fresh directory: an existing empty file is not a trajectory).
timeout 120 python scripts/bench_perf.py plan-cache --output "$(mktemp -d)/perf.json"
# Docs smoke (ISSUE 5): every fenced python snippet in README/docs must
# compile with resolvable imports.  (That the protocol spec cannot
# drift from wire.py is tests/test_protocol_doc.py, in the suite above.)
timeout 120 python scripts/check_doc_snippets.py
