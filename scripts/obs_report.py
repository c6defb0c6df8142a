#!/usr/bin/env python3
"""Distill a run's telemetry artifacts into a report (ISSUE 8).

Every armed process (``REPRO_OBS``) drops an ``obs-<source>.json``
artifact — its metrics snapshot plus its Chrome trace events — into
``REPRO_OBS_DIR`` on the way out.  This script folds a directory of
those artifacts into:

* a per-source and merged cross-process metrics table (counters sum,
  gauges max, histograms combine bucket-wise — see
  :func:`repro.obs.metrics.merge_snapshots`), printed to stdout;
* one combined Chrome trace-event JSON file (``trace.json`` in the
  artifact directory by default) loadable in Perfetto or
  ``chrome://tracing`` — every process's spans on one monotonic axis.

Usage::

    # distill artifacts an armed run already produced
    PYTHONPATH=src python scripts/obs_report.py --dir /tmp/obs-run

    # or produce them first: a small armed serve-many run
    PYTHONPATH=src python scripts/obs_report.py --run --dir /tmp/obs-run

    # or a small armed 2-shard fleet (ISSUE 10): per-shard artifacts
    # (obs-shard0.json, obs-shard1.json, clients) merge into one fleet
    # report with a per-shard placement/admission table
    PYTHONPATH=src python scripts/obs_report.py --run-fleet --dir /tmp/obs-fleet
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import format_snapshot_table, merge_snapshots  # noqa: E402
from repro.obs.trace import merge_traces, write_trace  # noqa: E402


def run_armed_serve_many(directory: pathlib.Path, n_clients: int = 2,
                         num_frames: int = 8) -> None:
    """One small fully-armed serve-many run that drops artifacts into
    ``directory`` — the server and every client process arm from the
    inherited environment and export on exit."""
    import os

    from repro import obs
    from repro.distill.config import DistillConfig
    from repro.runtime.session import SessionConfig
    from repro.serving.runtime import run_client_processes, start_server

    config = SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=10,
    )
    hw = (32, 48)
    saved = {
        key: os.environ.get(key) for key in (obs.ENV_FEATURES, obs.ENV_DIR)
    }
    os.environ[obs.ENV_FEATURES] = "metrics,trace"
    os.environ[obs.ENV_DIR] = str(directory)
    try:
        handle = start_server(transport="shm", n_clients=n_clients,
                              idle_timeout_s=120)
        try:
            jobs = [
                (config, hw, "fixed-people", num_frames, f"obs{i}")
                for i in range(n_clients)
            ]
            run_client_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        report = handle.runtime_report or {}
        print(f"armed serve-many run done (server exit: "
              f"{report.get('exit_reason')}); artifacts in {directory}")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_armed_fleet(directory: pathlib.Path, n_shards: int = 2,
                    n_clients: int = 4, num_frames: int = 8) -> None:
    """One small fully-armed fleet run that drops per-shard artifacts
    into ``directory`` — every shard process arms from the inherited
    environment with source ``shard<k>`` and exports on exit."""
    import os

    from repro import obs
    from repro.distill.config import DistillConfig
    from repro.runtime.session import SessionConfig
    from repro.serving import start_fleet
    from repro.serving.runtime import run_churn_processes

    hw = (24, 32)

    def config(width):
        return SessionConfig(
            distill=DistillConfig(max_updates=2, threshold=0.7,
                                  min_stride=4, max_stride=16),
            student_width=width,
            pretrain_steps=5,
        )

    saved = {
        key: os.environ.get(key) for key in (obs.ENV_FEATURES, obs.ENV_DIR)
    }
    os.environ[obs.ENV_FEATURES] = "metrics,trace"
    os.environ[obs.ENV_DIR] = str(directory)
    try:
        handle = start_fleet(n_shards, idle_timeout_s=120)
        try:
            # Two blueprint keys across the clients, so placement both
            # spreads (distinct keys) and sticks (repeats).
            jobs = [
                (0.1 * i, config(0.25 if i % 2 == 0 else 0.3), hw,
                 "fixed-people", num_frames, f"obs{i}")
                for i in range(n_clients)
            ]
            run_churn_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        report = handle.fleet_report or {}
        print(f"armed fleet run done (shard exits: "
              f"{report.get('exit_reasons')}); artifacts in {directory}")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def format_fleet_table(artifacts) -> str:
    """Per-shard placement and admission accounting (ISSUE 10).

    Shard processes export their artifacts with source ``shard<k>``;
    this table pulls each shard's fleet counters (ADMITs placed here,
    ADMITs redirected away) next to its admission and serving totals,
    plus the fleet-wide sums — counters merge by summation, so the
    totals row is exactly what :func:`merge_snapshots` reports.
    Returns "" when no shard artifacts are present."""
    shards = sorted(
        (a for a in artifacts
         if str(a.get("source", "")).startswith("shard")),
        key=lambda a: str(a["source"]),
    )
    if not shards:
        return ""
    columns = (
        ("placed", "fleet.placed"),
        ("redirected", "fleet.redirects"),
        ("admitted", "admission.accepted"),
        ("key frames", "serve.key_frames"),
        ("memo hits", "serve.memo.hits"),
    )
    rows = [("shard", *(label for label, _ in columns))]
    totals = [0] * len(columns)
    for artifact in shards:
        counters = (artifact.get("snapshot") or {}).get("counters", {})
        values = [int(counters.get(key, 0)) for _, key in columns]
        totals = [t + v for t, v in zip(totals, values)]
        rows.append((str(artifact["source"]), *(str(v) for v in values)))
    rows.append(("fleet", *(str(t) for t in totals)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [f"fleet placement ({len(shards)} shard(s))"]
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_engine_step_table(snapshot) -> str:
    """Forward vs backward wall time per engine kernel.

    The per-plan-step timing hook (``REPRO_OBS=engine``) names its
    histograms after the step class: ``engine.step.ConvStep`` is the
    forward kernel, ``engine.step.ConvVjpStep`` the matching step of
    the generated adjoint plan.  This table pairs the two, so one
    report answers where a train step's time goes — per kernel, split
    by direction.  Returns "" when no engine timings were recorded.
    """
    prefix = "engine.step."
    histograms = snapshot.get("histograms", {})
    steps = {
        name[len(prefix):]: h
        for name, h in histograms.items() if name.startswith(prefix)
    }
    if not steps:
        return ""

    def stats(h):
        if h is None or not h["count"]:
            return "-", "-"
        return str(h["count"]), f"{1000 * h['total'] / h['count']:.3f}"

    kernels = sorted(
        {name[:-len("VjpStep")] for name in steps if name.endswith("VjpStep")}
        | {name[:-len("Step")] for name in steps if not name.endswith("VjpStep")}
    )
    rows = [("kernel", "fwd n", "fwd ms", "bwd n", "bwd ms")]
    for kernel in kernels:
        fwd, bwd = steps.get(f"{kernel}Step"), steps.get(f"{kernel}VjpStep")
        rows.append((kernel, *stats(fwd), *stats(bwd)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["engine steps (forward vs adjoint, mean wall ms)"]
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_plan_cache_row(snapshot) -> str:
    """The process-wide engine plan cache in one line: how many plans
    were compiled (``miss``), how many plan requests from fresh model
    instances an existing plan answered (``hit``), and how often a plan
    changed hands between instances (``rebind``).  Returns "" when no
    armed process asked for a plan."""
    counters = snapshot.get("counters", {})
    hit, miss, rebind = (
        int(counters.get(f"engine.plan_cache.{name}", 0))
        for name in ("hit", "miss", "rebind")
    )
    if not hit + miss:
        return ""
    return (
        f"engine plan cache: {miss} compiled, {hit} reused "
        f"({100 * hit / (hit + miss):.0f}% of {hit + miss} requests), "
        f"{rebind} hand-overs"
    )


def load_artifacts(directory: pathlib.Path):
    """All ``obs-*.json`` payloads in ``directory``, sorted by source."""
    artifacts = []
    for path in sorted(directory.glob("obs-*.json")):
        with open(path, encoding="utf-8") as fh:
            artifacts.append(json.load(fh))
    return artifacts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", type=pathlib.Path, required=True,
                        help="artifact directory (the run's REPRO_OBS_DIR)")
    parser.add_argument("--run", action="store_true",
                        help="first run a small fully-armed serve-many "
                             "deployment that drops its artifacts in --dir")
    parser.add_argument("--run-fleet", action="store_true",
                        help="first run a small fully-armed 2-shard fleet "
                             "that drops per-shard artifacts in --dir")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="combined Chrome trace path "
                             "(default: <dir>/trace.json)")
    args = parser.parse_args()

    args.dir.mkdir(parents=True, exist_ok=True)
    if args.run:
        run_armed_serve_many(args.dir)
    if args.run_fleet:
        run_armed_fleet(args.dir)

    artifacts = load_artifacts(args.dir)
    if not artifacts:
        print(f"no obs-*.json artifacts in {args.dir} "
              "(was the run armed via REPRO_OBS with REPRO_OBS_DIR set?)",
              file=sys.stderr)
        return 1

    snapshots = [a["snapshot"] for a in artifacts if a.get("snapshot")]
    for snapshot in snapshots:
        print(format_snapshot_table(snapshot))
        print()
    if snapshots:
        merged = merge_snapshots(snapshots)
        print(format_snapshot_table(merged, title="merged metrics"))
        print()
        for extra in (format_engine_step_table(merged),
                      format_plan_cache_row(merged)):
            if extra:
                print(extra)
                print()
    fleet_table = format_fleet_table(artifacts)
    if fleet_table:
        print(fleet_table)
        print()

    events = merge_traces([a.get("trace") or [] for a in artifacts])
    trace_path = args.trace_out or (args.dir / "trace.json")
    write_trace(str(trace_path), events)
    dropped = sum(a.get("trace_dropped", 0) for a in artifacts)
    print(f"{len(artifacts)} artifact(s), {len(events)} trace events "
          f"({dropped} dropped at the rings) -> {trace_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
