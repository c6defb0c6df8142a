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
# Escape-hatch lint (ISSUE 9): full-mode training rides the generated
# adjoint plan unconditionally — the REPRO_ENGINE_FULL env var must
# not come back anywhere outside the historical record (CHANGES.md /
# ROADMAP.md) and the issue text itself.
if grep -rn "REPRO_ENGINE_FULL" . \
    --exclude-dir=.git --exclude-dir=.hypothesis \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: REPRO_ENGINE_FULL escape hatch reintroduced" >&2
  exit 1
fi
# Same rule for the plan cache (ISSUE 12): plans are compiled once per
# architecture per process and rebound, unconditionally — no env var
# may switch the per-instance compile path back on, and the
# weight_static plan attribute (never true for any kernel) stays gone.
if grep -rnIE "REPRO_[A-Z_]*PLAN|weight_static" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: plan-cache escape hatch or weight_static reintroduced" >&2
  exit 1
fi
# Same rule for the co-arrival serving layer (ISSUE 13): key frames
# are served inline and deduplicated by digest, unconditionally — the
# gather window, the cohort server, the stacked n > 1 serve plans and
# the switches that selected them must not come back.  bench/ is frozen
# (its README and probes describe the tree it was written against).
if grep -rnIE "gather_window_s|BatchedTeacher|infer_batch|predict_batch|\bper_sample(_stats)?\b|wide_gemm_column_stable|iter_pow2_chunks|_serve_cohort|batch_predicts" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: co-arrival serving path (gather window / cohort / stacked serve) reintroduced" >&2
  exit 1
fi
# Same rule for the second handshake (ISSUE 14): ADMIT is the only way
# to open a session and VERSION the only dialect a decoder accepts —
# HELLO, the server-side blueprint table, the `admit` / `share_work`
# switches and the v2-v4 decoders must not come back.
if grep -rnIE "_REJECT_HEAD_V[0-9]|_V2_KINDS|\bKIND_HELLO\b|wire\.Hello|\bopen_session\b|_open_session|admit_ticket|admit_address|_pending_blueprints|REJECT_(DISABLED|UNKNOWN_SESSION|SESSION_IN_USE)|share_work" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: HELLO / blueprint-table / legacy wire-version path reintroduced" >&2
  exit 1
fi
# Same rule for the second out-of-process deployment (ISSUE 15): every
# session whose server half lives in another process is an ADMIT on a
# ServerRuntime — the dedicated server-per-session path, the pickled
# pipe transport and the non-blocking request mirror of the link API
# must not come back.
if grep -rnIE "serve_endpoint|\bRemoteServer\b|RemoteTrainResult|_SessionChannel|PipeTransport|spawn_pipe_pair|comm\.mp|SimulatedChannel|\bisend\b|\birecv\b|_build_remote_session" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: dedicated-server / pipe-transport / isend-irecv path reintroduced" >&2
  exit 1
fi
# Same rule for the perf-measurement duplicates (ISSUE 16): a scenario
# is legs + data on the one `compare` core — the per-scenario formatters,
# the record-schema patcher and its headline shim, the oracle-teacher
# duplicate of the serve-many record and the engine's import-time env
# switch must not come back (engine.disabled() is the reference switch).
if grep -rnIE -e "measure_serve_many_churn|serve-many-churn|migrate_records|_headline_speedup|format_(train|plan_cache|storm|fleet|serve_many|obs|pool)_record|--migrate|\bREPRO_ENGINE\b" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: retired perf-measurement name or REPRO_ENGINE env switch reintroduced" >&2
  exit 1
fi
# Same rule for the trainer's middle tier (ISSUE 17): there are two
# step runners — compiled, autograd.  The cached-front autograd runner
# could only be reached when `train_back` failed to compile where
# `back`, a trace of the same function, succeeded.
if grep -rnI "_CachedFrontStepRunner" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: the trainer's cached-front middle tier reintroduced" >&2
  exit 1
fi
# Same rule for the fleet's second front door and the code only its
# own tests called (ISSUE 20): `redirect` is the only hand-off, a
# transport is one of two modules in a table, `Endpoint` lives in
# repro.transport — the shm director, the wall-clock link shaper, the
# plug-in registry and the options that had one value must not come back.
if grep -rnIE "_director_main|_HandoffListener|_ReplayTransport|_start_shm_fleet|ShapedEndpoint|shape_endpoint_pair|last_recv_nbytes|register_transport|TransportDef|repro\.comm|ledger_capacity|shm_options" . \
    --exclude-dir=.git --exclude-dir=.hypothesis --exclude-dir=.pytest_cache \
    --exclude-dir=raw --exclude-dir=bench \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md \
    --exclude=test_tier1.sh; then
  echo "FAIL: shm fleet director / link shaper / plug-in registry / repro.comm reintroduced" >&2
  exit 1
fi
# CLI smoke (ISSUE 16): no test imports scripts/bench_perf.py, so run
# its cheapest scenario (a few seconds) into a throwaway file (in a
# fresh directory: an existing empty file is not a trajectory).
timeout 120 python scripts/bench_perf.py plan-cache --output "$(mktemp -d)/perf.json"
# Docs smoke (ISSUE 5): the protocol spec cannot drift from wire.py
# (the doc-sync test also runs inside the suite above; this re-run
# keeps the gate explicit and costs under a second), and every fenced
# python snippet in README/docs must compile with resolvable imports.
timeout 120 python -m pytest -q tests/test_protocol_doc.py
timeout 120 python scripts/check_doc_snippets.py
