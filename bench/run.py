"""The repo's benchmark: what a device sees, on four named workloads.

One run (what the driver calls; one fresh process, so set-up is cold):

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

measures ``W`` once, writes every sample to ``bench/raw/``, prints each
metric by name with unit and direction, and ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--trace`` it is the orchestrator:

    python3 bench/run.py [--workload W] [--seed S] [--runs K] [--vary-seed]
    python3 bench/run.py --check-repeat

runs each workload K times untraced plus one traced run (each a fresh
subprocess of the form above), prints the tables of bench/report.py and
exits non-zero on any correctness failure.  ``--check-repeat`` runs two
such sets, alternating workload order, and fails unless the two medians
of every end-to-end metric agree within its bound.

See bench/README.md for the metrics, the workloads and what moves what.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # process start: the origin of setup_s

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RAW_DIR = BENCH_DIR / "raw"


def _configure_process() -> None:
    """Environment of this process and of every process it spawns."""
    # The program is non-threaded by construction; BLAS worker threads
    # would contend with the server process for this box's two cores.
    # Must be set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([inherited] if inherited else [])
    )
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]


_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>

#: How long a run waits for its processes to end by themselves before
#: it kills what is left.
_REAP_GRACE_S = 10.0


def _adopt_orphans() -> None:
    """Make this process the one its orphaned descendants are reparented
    to, so :func:`_reap_children` can wait for every process the run
    started, not only for its direct children."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still waited for


def _children() -> List[int]:
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap_children() -> None:
    """Stop every process this run started and wait until each has
    ended.  The server and the echo target are joined where they are
    used; what is left is ``multiprocessing``'s resource tracker (one
    per process that made a shared-memory segment), which ends only
    when its pipe closes — at interpreter exit, *after* which nobody
    waits for it — and anything an exception path lost track of."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        # Every segment is unlinked by now (device.measure checks
        # /dev/shm), so the tracker has nothing left to do but see EOF.
        tracker._fd = None
        os.close(fd)
    deadline = time.monotonic() + _REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            # a killed child's own children are reparented here next
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
        time.sleep(0.002)


def _run_command(args, workload: str, seed: int, trace: int) -> List[str]:
    """The single-run form of this script, sized like ``args``."""
    return [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--scale", args.scale] if args.scale else [])


def _setup_probe(args) -> dict:
    """One more cold set-up, in a fresh process: seconds from its start
    to its first completed frame, and its speed-index readings."""
    done = subprocess.run(
        _run_command(args, args.workload, args.seed, 0) + ["--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _single(args) -> int:
    """Measure one run in this process."""
    import report
    from device import measure
    from fingerprint import fingerprint
    from workloads import PROBE_DEADLINE_S, SETUP_REPEATS, WORKLOADS

    workload = WORKLOADS[args.workload]
    workload = workload.tiny() if args.scale == "tiny" else workload.for_seconds(args.seconds)
    frames = workload.frames
    raw = measure(
        workload, args.seed, bool(args.trace), T0,
        reference_rounds=args.reference_rounds, setup_only=args.setup_only,
        inject=args.inject,
    )
    if args.setup_only:
        print(json.dumps({"t_first_frame": raw["t_first_frame"],
                          "calibration": raw["calibration"]}))
        return 1 if raw["errors"] else 0
    if not raw["traced"]:
        # Set-up is short and cold, so one reading is the noisiest
        # number of the run: take it up to SETUP_REPEATS times (this
        # process was the first) and let the report take the median —
        # while the run is younger than PROBE_DEADLINE_S, so that a box
        # in a slow stretch cannot push 92 runs past the driver's cap.
        raw["setup_probes"] = []
        for _ in range(SETUP_REPEATS - 1):
            if time.perf_counter() - T0 > PROBE_DEADLINE_S:
                break
            try:
                raw["setup_probes"].append(_setup_probe(args))
            except (subprocess.SubprocessError, ValueError, LookupError) as exc:
                raw["errors"].append(f"set-up probe failed: {exc!r}")
                raw["checks"]["exceptions"] += 1
    raw["fingerprint"] = fingerprint(args.seed)

    RAW_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-f{frames}-t{args.trace}"
    if raw["traced"]:
        _write_trace(raw, RAW_DIR / f"trace-{workload.name}.json")
        prior = report.load(sorted(RAW_DIR.glob(f"{workload.name}-*-t0-*.json")))
        untraced_fps = report.untraced_fps(
            [r for r in prior
             if r["fingerprint"]["fingerprint_hash"] == raw["fingerprint"]["fingerprint_hash"]],
            workload.name, frames,
        )
    else:
        untraced_fps = None
    path = RAW_DIR / f"{stem}-{time.time_ns() // 1_000_000}-{os.getpid()}.json"
    path.write_text(json.dumps(raw))

    line = report.result_line(raw, untraced_fps)
    directions = {n: b for n, _, b, *_ in report.END_TO_END + report.PER_LAYER}
    print(f"# {workload.name} seed={args.seed} frames/viewer={frames} "
          f"trace={args.trace} raw={path.relative_to(ROOT)}")
    for name, metric in line["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']} ({directions[name]} is better)")
    pct = 100.0 * line["failed"] / line["attempted"]
    print(f"failed_ops_pct = {pct!r} % (lower is better)")
    for error in raw["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _write_trace(raw: dict, path: pathlib.Path) -> None:
    """Chrome trace of the traced run: device spans (pid 1) and the
    replayed server spans (pid 2).  Open in https://ui.perfetto.dev."""
    events = []
    for pid, label, spans in (
        (1, "device (phase A)", raw["phase_a_spans"]),
        (2, "server replay (phase B)", raw.get("phase_b", {}).get("spans", [])),
    ):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        for i, (name, start, end, parent, request) in enumerate(spans):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": i, "parent": parent, "request": request},
            })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _spawn(workload: str, seed: int, trace: int, args) -> pathlib.Path:
    """One run in a fresh subprocess; returns the raw file it wrote."""
    before = set(RAW_DIR.glob("*.json")) if RAW_DIR.exists() else set()
    command = _run_command(args, workload, seed, trace) + [
        "--reference-rounds", str(args.reference_rounds)
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    new = sorted(set(RAW_DIR.glob(f"{workload}-*.json")) - before)
    if not new:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: run wrote no raw file (exit {done.returncode})")
    if done.returncode:
        sys.stderr.write(done.stderr)
    return new[-1]


def _run_set(names: List[str], args, label: str) -> List[pathlib.Path]:
    paths = []
    for name in names:
        for k in range(args.runs):
            seed = args.seed + k if args.vary_seed else args.seed
            print(f"[{label}] {name} run {k + 1}/{args.runs} seed {seed}", flush=True)
            paths.append(_spawn(name, seed, 0, args))
        print(f"[{label}] {name} traced run", flush=True)
        paths.append(_spawn(name, args.seed, 1, args))
    return paths


def _orchestrate(args) -> int:
    import report
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    first = report.summarize(report.load(_run_set(names, args, "set 1")))
    report.print_tables(first)
    failed = any(block["failed"] for block in first.values())
    if args.check_repeat:
        second = report.summarize(report.load(_run_set(names[::-1], args, "set 2")))
        report.print_tables(second)
        failed |= not report.compare_sets(first, second)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _configure_process()
    from workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured window the frame counts are scaled for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one run in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run k uses seed + k (spread across inputs)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--scale", choices=("tiny",),
                        help="self-test size (a few dozen frames)")
    parser.add_argument("--reference-rounds", type=int, default=1,
                        help="rounds re-run in process and compared record for "
                             "record (7 = the whole run; costs as much as the run)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject", choices=("corrupt-reply",),
                        help="self-test fault injection")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        _adopt_orphans()
        # a terminated run unwinds through the finally clauses too
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
        try:
            return _single(args)
        finally:
            _reap_children()
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
