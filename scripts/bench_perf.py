#!/usr/bin/env python3
"""Measure the compiled-engine speedup and append it to BENCH_PERF.json.

Runs the Table-3 partial-distillation protocol (250 frames, width 0.5 by
default) twice — seed autograd path vs compiled engine — and records
end-to-end wall FPS, per-frame predict latency, per-step distillation
latency, and the engine-vs-autograd argmax equivalence check.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--frames 250]
        [--width 0.5] [--category fixed-animals] [--output BENCH_PERF.json]

``--pool N`` switches to the multi-session serving benchmark instead:
N sessions of one stream served by the cooperative pool (deduplicated
predicts + memoised distillation) against the same N sessions run
sequentially, recording pooled frames/sec, the amortisation route
counters, and the bit-identity check.

``--serve-many N`` benchmarks the multiplexed ServerRuntime: one
server process serving N concurrent client processes (over
``--serve-transport``, shm by default) against the same N sessions run
in-process back to back — five alternating legs each, every sample
kept, absolute frames/s beside the ratio of medians, per-session
RunStats verified bit-identical across the two legs.  Every client
admits its session over the wire (ADMIT), so the multiplexed wall
includes the admission cost.  The teacher is neural by default and the
record's ``serve_counters`` show the shared memo labelling and
distilling duplicate key frames once; adding ``--churn`` produces the
oracle-teacher ``serve-many-churn`` record instead.

``--fleet K`` benchmarks the sharded server fleet: K runtime processes
behind one SO_REUSEPORT front door serving two unpaced tenant groups
with nothing to share, against ONE multiplexed runtime serving the
same 8 clients — per-session RunStats bit-identical, five alternating
legs each, the ratio of medians floor-enforced >= 0.8x by
``benchmarks/test_perf_fleet.py`` (placement plus a second server core
on a box whose cores the 8 client processes already fill).

``--train`` benchmarks the full-mode compiled train step: the same
key-frame distillation loop run through interpreted autograd and then
through the compiled forward + generated adjoint plan, recording the
per-step latency ratio (floor-enforced >= 1.5x by
``benchmarks/test_perf_train.py``) and the exact loss/metric identity
of the two legs.

``--plan-cache`` records what a session open costs the engine in
absolute milliseconds: a cold compile of the plan kinds a
partial-distillation session touches against a hand-over of the
process-wide shared plans to a second instance, with the machine
fingerprint.

``--obs`` benchmarks telemetry overhead: the serve-many deployment run
disarmed and then with the full telemetry stack armed (metrics registry
+ span tracing + per-plan-step engine timing, server and clients),
recording armed-over-disarmed throughput (floor-enforced >= 0.9x by
``benchmarks/test_perf_obs.py``) and the bit-identity check across legs.

Records are deduplicated on append by ``(name, pr, git_rev)`` — re-running
a benchmark at the same revision replaces its record instead of
stacking a duplicate; ``--migrate`` also collapses historical
duplicates (keeping the latest measurement) and stamps the uniform
top-level ``speedup`` field onto historical storm/transport records.

Each invocation appends one schema-stamped record (``name``, ``pr``,
``git_rev``, timestamp), so the file accumulates the throughput
trajectory across PRs; ``--migrate`` stamps the schema onto pre-schema
records in place.  The benchmark suite
(``benchmarks/test_perf_engine.py``, ``benchmarks/test_perf_pool.py``)
uses the same measurements and enforces the >= 3x engine and >= 2x
pooled-serving floors.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.perf import (  # noqa: E402
    DEFAULT_RESULTS_PATH,
    append_record,
    format_fleet_record,
    format_obs_record,
    format_plan_cache_record,
    format_pool_record,
    format_record,
    format_serve_many_record,
    format_storm_record,
    format_train_record,
    measure_engine_speedup,
    measure_fleet_throughput,
    measure_obs_overhead,
    measure_plan_cache,
    measure_pool_throughput,
    measure_serve_many_churn,
    measure_serve_many_throughput,
    measure_storm,
    measure_train_speedup,
    migrate_records,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per stream (default: 250, or 64 with --pool)")
    parser.add_argument("--width", type=float, default=0.5)
    parser.add_argument("--category", default="fixed-animals")
    parser.add_argument("--pretrain-steps", type=int, default=80)
    parser.add_argument("--pool", type=int, default=None, metavar="N",
                        help="benchmark the serving pool with N sessions "
                             "of one stream instead of the engine speedup")
    parser.add_argument("--serve-many", type=int, default=None, metavar="N",
                        help="benchmark 1 multiplexed server process "
                             "serving N concurrent client processes vs the "
                             "same N sessions in-process back to back")
    parser.add_argument("--serve-transport", default="shm",
                        choices=("shm", "socket"),
                        help="transport for the multiplexed side of "
                             "--serve-many (default: shm)")
    parser.add_argument("--churn", action="store_true",
                        help="with --serve-many: produce the oracle-teacher "
                             "serve-many-churn record")
    parser.add_argument("--serve-teacher", default="neural",
                        choices=("neural", "oracle"),
                        help="teacher for --serve-many (default: neural — "
                             "real per-key-frame GEMMs; --churn always uses "
                             "the oracle)")
    parser.add_argument("--fleet", type=int, default=None, metavar="K",
                        help="benchmark K fleet shards behind one front "
                             "door vs one multiplexed runtime on the "
                             "two-tenant workload (8 clients)")
    parser.add_argument("--storm", default=None, metavar="NAME",
                        choices=("churn-storm", "thundering-herd",
                                 "slow-loris", "scene-cut-burst"),
                        help="benchmark overload control under the named "
                             "seeded storm: probe throughput idle / under "
                             "storm / after recovery on one overload-armed "
                             "server, plus a no-control baseline")
    parser.add_argument("--storm-seed", type=int, default=0,
                        help="seed for --storm (default: 0)")
    parser.add_argument("--train", action="store_true",
                        help="benchmark the full-mode compiled train step "
                             "(forward + generated adjoint) against the "
                             "interpreted autograd loop (floor: >= 1.5x "
                             "per-step, with bit-identical losses)")
    parser.add_argument("--plan-cache", action="store_true",
                        help="record cold plan compiles vs hand-overs of "
                             "the shared plans (absolute ms per plan kind "
                             "at 64x96, with the machine fingerprint)")
    parser.add_argument("--obs", action="store_true",
                        help="benchmark telemetry overhead: the serve-many "
                             "deployment with metrics + tracing + engine "
                             "timing fully armed vs disarmed (floor: armed "
                             "throughput >= 0.9x of disarmed)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="with --storm: skip the no-control baseline "
                             "run (faster; the adversarial baselines wait "
                             "out a deliberate wedge)")
    parser.add_argument("--pr", default=None,
                        help="PR tag stamped on the record "
                             "(default: inferred from CHANGES.md)")
    parser.add_argument("--migrate", action="store_true",
                        help="stamp name/pr/git_rev onto pre-schema "
                             "records in --output, then exit")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_RESULTS_PATH)
    args = parser.parse_args()

    if args.churn and args.serve_many is None:
        parser.error("--churn needs --serve-many N")

    if args.migrate:
        updated = migrate_records(args.output)
        print(f"migrated {updated} pre-schema record(s) in {args.output}")
        return 0

    if args.train:
        record = measure_train_speedup(
            num_frames=args.frames or 4,
            width=args.width,
            category=args.category,
            pr=args.pr,
        )
        summary = format_train_record(record)
    elif args.plan_cache:
        record = measure_plan_cache(width=args.width, pr=args.pr)
        summary = format_plan_cache_record(record)
    elif args.obs:
        record = measure_obs_overhead(
            num_frames=args.frames or 32,
            width=args.width,
            category=args.category,
            pr=args.pr,
        )
        summary = format_obs_record(record)
    elif args.fleet is not None:
        record = measure_fleet_throughput(n_shards=args.fleet, pr=args.pr)
        summary = format_fleet_record(record)
    elif args.storm is not None:
        record = measure_storm(
            name=args.storm,
            seed=args.storm_seed,
            baseline=not args.no_baseline,
            pr=args.pr,
        )
        summary = format_storm_record(record)
    elif args.serve_many is not None:
        kwargs = dict(
            num_clients=args.serve_many,
            num_frames=args.frames or 32,
            width=args.width,
            category=args.category,
            pretrain_steps=args.pretrain_steps,
            transport=args.serve_transport,
            pr=args.pr,
        )
        if args.churn:
            record = measure_serve_many_churn(**kwargs)
        else:
            record = measure_serve_many_throughput(
                teacher=args.serve_teacher, **kwargs
            )
        summary = format_serve_many_record(record)
    elif args.pool is not None:
        record = measure_pool_throughput(
            num_sessions=args.pool,
            num_frames=args.frames or 64,
            width=args.width,
            category=args.category,
            pretrain_steps=args.pretrain_steps,
            pr=args.pr,
        )
        summary = format_pool_record(record)
    else:
        record = measure_engine_speedup(
            num_frames=args.frames or 250,
            width=args.width,
            category=args.category,
            pretrain_steps=args.pretrain_steps,
            pr=args.pr,
        )
        summary = format_record(record)
    path = append_record(record, args.output)
    print(summary)
    print(f"appended record to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
