"""One measurement core for the in-tree wall-clock records.

ShadowTutor's claims are ratios of wall clocks, and such a number only
counts beside its absolute units, every sample, its spread and the
machine it was taken on.  So a perf scenario is *legs + data* on one
runner: :func:`compare` alternates the legs (A B A B ..., so adjacent
samples share the box's mood) at least three times, keeps every wall
sample with the ``os.times()`` CPU seconds (this process plus its
reaped children) beside it, and checks that every run produced
identical signatures (``RunStats.signature``, losses).  The headline is
the **median of per-pair ratios**, next to each leg's median and IQR in
seconds.  Every record has the same shape::

    {name, pr, git_rev, timestamp, fingerprint, protocol,
     legs: {leg: {samples_s, cpu_s, median_s, iqr_s,
                  frames_per_s?, ms_per_op?, ...facts of the leg}},
     ratio: {of: [base, candidate], per_pair, median, iqr},
     bit_identical, checks: {...scenario verdicts, further ratios}}

so :func:`format_record` renders any of them, :func:`floor_holds` is
the one place a floor is decided and :func:`append_record` the one
writer of ``BENCH_PERF.json``.  ``SCENARIOS`` maps a record name to the
function that builds its legs (``scripts/bench_perf.py <name>`` runs
one; ``benchmarks/test_perf_*.py`` pin the floors).  Folding this onto
``bench/``'s core is ROADMAP item 6.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pathlib
import platform
import re
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.distill.config import DistillConfig
from repro.engine import plan_cache as plan_cache_module
from repro.models.student import StudentNet, partial_freeze
from repro.runtime.session import SessionConfig, build_session, pretrained_student
from repro.serving import storms
from repro.serving.fleet import start_fleet
from repro.serving.pool import SessionPool, SessionSpec
from repro.serving.runtime import (
    run_churn_processes,
    run_client_processes,
    start_server,
)
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: Default location of the perf trajectory log (repo root).
DEFAULT_RESULTS_PATH = _REPO_ROOT / "BENCH_PERF.json"

_FRAME_HW: Tuple[int, int] = (64, 96)

#: One run of a workload -> ``(wall_s, signatures, facts)``: the wall
#: it timed itself (set-up stays outside), what must be identical
#: across legs (``None``: nothing) and facts that land on the leg
#: (``frames`` / ``ops`` also give it an absolute rate).
Leg = Callable[[], Tuple[float, object, Dict]]


# ----------------------------------------------------------------------
# Record stamp: what was measured, of which code, on which machine
# ----------------------------------------------------------------------
def _git(*args: str) -> str:
    """Output of ``git <args>`` in the repo; empty outside a checkout."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=_REPO_ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout if out.returncode == 0 else ""


def infer_pr_tag() -> str:
    """Best-effort tag of the PR being built: benchmarks run before the
    PR's CHANGES.md line lands, so it is one past the highest "PR N" in
    the *committed* CHANGES.md (HEAD — the working-tree copy may already
    carry the in-flight PR's own line).  ``bench_perf.py --pr``
    overrides it."""
    numbers = re.findall(r"^PR (\d+)", _git("show", "HEAD:CHANGES.md"), re.M)
    return f"PR{max(map(int, numbers)) + 1}" if numbers else "PR?"


#: The fields ``bench/fingerprint.py`` hashes: a record here and a
#: ``bench/baselines.json`` segment with equal hashes share a machine.
_MACHINE_FIELDS = (
    "nproc", "cpu_model", "python", "numpy", "blas", "openblas_num_threads",
)


def fingerprint_hash(fields: Dict[str, object]) -> str:
    machine = {key: fields[key] for key in _MACHINE_FIELDS}
    return hashlib.blake2b(
        json.dumps(machine, sort_keys=True).encode(), digest_size=6
    ).hexdigest()


def machine_fingerprint() -> Dict[str, object]:
    """What a timing in absolute units depends on besides the code:
    cores, CPU model, python, numpy, its BLAS build and thread pin."""
    try:
        cpuinfo = pathlib.Path("/proc/cpuinfo").read_text()
        cpu = re.search(r"^model name\s*:(.*)$", cpuinfo, re.M).group(1).strip()
    except (OSError, AttributeError):
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    fields: Dict[str, object] = {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }
    return {**fields, "fingerprint_hash": fingerprint_hash(fields)}


# ----------------------------------------------------------------------
# The core: run legs, keep every sample, distil once
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    return sum(os.times()[:4])


def _spread(of: Sequence[str], per_pair) -> Dict:
    """Every paired value, their median and interquartile range."""
    q1, median, q3 = (float(q) for q in np.percentile(per_pair, [25, 50, 75]))
    return {
        "of": list(of),
        "per_pair": [round(float(v), 3) for v in per_pair],
        "median": round(median, 3),
        "iqr": round(q3 - q1, 3),
    }


def ratio_of(legs: Dict[str, Dict], base: str, candidate: str) -> Dict:
    """Per-pair wall ratios ``base / candidate``: how many times faster
    the candidate ran.  A one-sample leg (the storm phase) pairs with
    every sample of the other."""
    return _spread((base, candidate), (
        np.asarray(legs[base]["samples_s"])
        / np.asarray(legs[candidate]["samples_s"])
    ))


def compare(name: str, protocol: Dict, legs: Dict[str, Leg], repeats: int = 3,
            schedule: Optional[Sequence[str]] = None,
            cpu_clock: Callable[[], float] = _cpu_seconds) -> Dict:
    """Run ``legs`` alternately ``repeats`` times; return one record.
    ``schedule`` replaces the alternation with an explicit order of leg
    names, for the one scenario whose phases cannot interleave (a storm
    happens once, between the idle and recovery passes).  The headline
    ``ratio`` is the first leg over the second; scenarios add further
    ratios and verdicts to ``checks``."""
    if schedule is None:
        if repeats < 3:
            raise ValueError("a record needs >= 3 samples per alternated leg")
        schedule = list(legs) * repeats
    walls = {leg: [] for leg in legs}
    cpus = {leg: [] for leg in legs}
    facts, reference, identical = {}, None, None
    for leg in schedule:
        cpu_start = cpu_clock()
        wall, signatures, facts[leg] = legs[leg]()
        cpus[leg].append(cpu_clock() - cpu_start)
        walls[leg].append(wall)
        if reference is None and signatures is not None:
            reference, identical = signatures, True
        elif signatures is not None and signatures != reference:
            identical = False
    summary = {}
    for leg in legs:
        q1, median, q3 = (float(q) for q in np.percentile(walls[leg], [25, 50, 75]))
        entry = {
            "samples_s": [round(w, 6) for w in walls[leg]],
            "cpu_s": [round(c, 3) for c in cpus[leg]],
            "median_s": round(median, 6),
            "iqr_s": round(q3 - q1, 6),
        }
        # Facts are those of the leg's last run: every run of a leg
        # serves the same population, so counters do not vary.
        if facts[leg].get("frames"):
            entry["frames_per_s"] = round(facts[leg]["frames"] / median, 3)
        if facts[leg].get("ops"):
            entry["ms_per_op"] = round(1000 * median / facts[leg]["ops"], 4)
        summary[leg] = {**entry, **facts[leg]}
    return {
        "name": name,
        "pr": infer_pr_tag(),
        "git_rev": _git("rev-parse", "--short", "HEAD").strip() or "unknown",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fingerprint": machine_fingerprint(),
        "protocol": protocol,
        "legs": summary,
        "ratio": ratio_of(summary, *list(legs)[:2]),
        "bit_identical": identical,
        "checks": {},
    }


def floor_holds(record: Dict, floors: Dict[str, float]) -> bool:
    """Whether every named ratio's median is at or above its floor:
    ``"ratio"`` names the headline, any other name a ratio in
    ``checks``."""
    ratios = {**record["checks"], "ratio": record["ratio"]}
    return all(ratios[key]["median"] >= floor for key, floor in floors.items())


_SAMPLE_KEYS = ("samples_s", "cpu_s", "median_s", "iqr_s", "frames_per_s",
                "ms_per_op", "frames", "ops")


def _seconds(value: float) -> str:
    return f"{value:.2f} s" if value >= 1 else f"{1000 * value:.2f} ms"


def format_record(record: Dict) -> str:
    """Human summary of any record: absolute units first, then ratios."""
    proto = ", ".join(
        f"{key}={value}" for key, value in record["protocol"].items()
        if not isinstance(value, dict)
    )
    lines = [f"{record['name']} [{record['pr']} @ {record['git_rev']}] — {proto}"]
    for name, leg in record["legs"].items():
        rate = "".join(
            f", {leg[key]:.2f} {unit}" for key, unit in
            (("frames_per_s", "f/s"), ("ms_per_op", "ms/op")) if key in leg
        )
        lines.append(
            f"  {name:<17} median {_seconds(leg['median_s'])} "
            f"(IQR {_seconds(leg['iqr_s'])}), cpu "
            f"{_seconds(float(np.median(leg['cpu_s'])))}{rate}, "
            f"samples {leg['samples_s']}"
        )
        facts = {k: v for k, v in leg.items() if k not in _SAMPLE_KEYS}
        if facts:
            lines.append(f"  {'':<17} {facts}")
    lines.append(f"  bit-identical across legs: {record['bit_identical']}")
    for key, value in {"ratio": record["ratio"], **record["checks"]}.items():
        if isinstance(value, dict) and "per_pair" in value:
            value = (
                f"({' vs '.join(value['of'])}) median {value['median']} "
                f"(IQR {value['iqr']}) of per-pair {value['per_pair']}"
            )
        lines.append(f"  {key}: {value}")
    fp = record["fingerprint"]
    lines.append(
        f"  on {fp['nproc']} x {fp['cpu_model']}, python {fp['python']}, "
        f"numpy {fp['numpy']}, {fp['blas']}, OPENBLAS_NUM_THREADS="
        f"{fp['openblas_num_threads'] or 'unset'} [{fp['fingerprint_hash']}]\n"
    )
    return "\n".join(lines)


def append_record(record: Dict, path: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Add ``record`` to the BENCH_PERF.json trajectory log.

    One benchmark at one PR and one commit is one data point, so a
    re-run replaces the record with the same ``(name, pr, git_rev)`` in
    place.  The file is rewritten through a sibling temp file and
    ``os.replace``: a run killed mid-write leaves the old trajectory
    intact, not truncated JSON every later append would crash on.
    """
    path = pathlib.Path(path) if path is not None else DEFAULT_RESULTS_PATH
    records: List[Dict] = json.loads(path.read_text()) if path.exists() else []
    slots = [
        i for i, rec in enumerate(records)
        if all(rec.get(k) == record.get(k) for k in ("name", "pr", "git_rev"))
    ]
    if slots:
        records[slots[0]] = record
    else:
        records.append(record)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


# ----------------------------------------------------------------------
# Shared leg parts
# ----------------------------------------------------------------------
def _frames(category: str, num_frames: int) -> List:
    video = make_category_video(
        CATEGORY_BY_KEY[category], height=_FRAME_HW[0], width=_FRAME_HW[1]
    )
    video.reset()
    return list(video.frames(num_frames))


def _signatures(stats) -> List:
    return [s.signature(include_label=False) for s in stats]


def _run_system(frames, config: SessionConfig) -> Tuple[float, object]:
    """One full in-process ShadowTutor run over pre-rendered frames."""
    client = build_session(config, _FRAME_HW)
    start = time.perf_counter()
    stats = client.run(iter(frames), label="bench")
    return time.perf_counter() - start, stats


def _broadcast_config(width: float, pretrain_steps: int) -> SessionConfig:
    """N viewers of one stream on a tight key-frame cadence (min_stride
    2, max_stride 4, the paper's MAX_UPDATES = 8), labelled by the
    neural teacher: the case the shared memo is built for — N - 1 of
    every N labellings and distillations spared."""
    return SessionConfig(
        distill=DistillConfig(
            max_updates=8, threshold=0.999, min_stride=2, max_stride=4
        ),
        student_width=width, pretrain_steps=pretrain_steps, teacher_arch="neural",
    )


def _multiplexed_leg(config, category, num_clients, num_frames, transport,
                     telemetry: Optional[str] = None) -> Leg:
    """ONE server process serving ``num_clients`` client processes,
    every session ADMITted over the wire; the wall includes spawning
    and reaping all of them.  ``telemetry`` is the ``REPRO_OBS`` value
    the server and clients inherit (``None``: disarmed)."""
    jobs = [
        (config, _FRAME_HW, category, num_frames, f"m{index}")
        for index in range(num_clients)
    ]

    def run():
        saved = os.environ.pop(obs.ENV_FEATURES, None)
        if telemetry is not None:
            os.environ[obs.ENV_FEATURES] = telemetry
        try:
            start = time.perf_counter()
            with start_server(
                transport=transport, n_clients=num_clients, idle_timeout_s=120.0
            ) as handle:
                stats = run_client_processes(handle, jobs, timeout_s=600.0)
            wall = time.perf_counter() - start
        finally:
            os.environ.pop(obs.ENV_FEATURES, None)
            if saved is not None:
                os.environ[obs.ENV_FEATURES] = saved
        report = handle.runtime_report
        metrics = report.get("metrics") or {}
        return wall, _signatures(stats), {
            "frames": num_clients * num_frames, "server_processes": 1,
            "client_processes": num_clients,
            "serve_counters": report.get("serve_counters"),
            "server_exit_reason": report.get("exit_reason"),
            "telemetry_counters": len(metrics.get("counters", {})),
            "telemetry_histograms": len(metrics.get("histograms", {})),
            "trace_events": len(report.get("trace") or []),
        }
    return run


# ----------------------------------------------------------------------
# Scenarios: each builds its legs and its checks
# ----------------------------------------------------------------------
def plan_cache(width: float = 0.5) -> Dict:
    """What a session open costs the engine, in absolute milliseconds:
    for each plan kind a partial-distillation session touches at the
    bench geometry, a **cold** ``engine_plan`` on an empty process-wide
    cache (trace, kernel build, scratch allocation — what every session
    paid before plans were shared) against a **hand-over** — a second
    same-architecture instance's ``engine_plan`` plus the rebind its
    first call performs."""
    frame = (1, 3, *_FRAME_HW)
    feats = tuple(
        f.shape for f in StudentNet(width=width).engine_plan(
            "front", (frame,)
        ).run(np.zeros(frame, np.float32))
    )
    kinds = {"forward": (frame,), "front": (frame,), "train_back": feats}
    protocol = {"width": width, "frame_hw": _FRAME_HW, "kinds": kinds}
    seeds = itertools.count()

    def open_plans():
        student = StudentNet(width=width, seed=next(seeds))
        partial_freeze(student)
        per_kind = {}
        for kind, shapes in kinds.items():
            start = time.perf_counter()
            student.engine_plan(kind, shapes).bound()
            per_kind[kind] = round(1000 * (time.perf_counter() - start), 4)
        return sum(per_kind.values()) / 1000, None, {"per_kind_ms": per_kind}

    def cold_compile():
        plan_cache_module.clear()
        return open_plans()

    # Alternation is the protocol: each hand-over is handed the plans
    # the cold compile before it built.
    return compare(
        "plan-cache", protocol,
        {"cold-compile": cold_compile, "hand-over": open_plans}, repeats=5,
    )


def pool_fanout(num_sessions: int = 16, num_frames: int = 64,
                width: float = 0.5, category: str = "fixed-animals",
                pretrain_steps: int = 80) -> Dict:
    """``num_sessions`` clients watching the *same* pre-rendered stream
    through the cooperative :class:`~repro.serving.pool.SessionPool`
    (key-frame distillation memoised across sessions, non-key-frame
    predicts served once per distinct (weights, frame) pair) against the
    same sessions run sequentially, one full single-session run each."""
    protocol = dict(locals(), scheme="partial", frame_hw=_FRAME_HW)
    frames = _frames(category, num_frames)
    config = SessionConfig(student_width=width, pretrain_steps=pretrain_steps)

    def specs(n_frames: int):
        return [
            SessionSpec(frames=frames, num_frames=n_frames, config=config)
            for _ in range(num_sessions)
        ]

    # Warm both paths outside the timers (pre-training, plan compiles).
    _run_system(frames[:8], config)
    SessionPool(specs(min(8, num_frames))).run()

    def sequential():
        start = time.perf_counter()
        stats = [_run_system(frames, config)[1] for _ in range(num_sessions)]
        wall = time.perf_counter() - start
        return wall, _signatures(stats), {"frames": num_sessions * num_frames}

    def pooled():
        pool = SessionPool(specs(num_frames))
        start = time.perf_counter()
        result = pool.run()
        wall = time.perf_counter() - start
        return wall, _signatures(result.stats), {
            "frames": num_sessions * num_frames, "counters": result.counters,
        }

    return compare(
        "pool-fanout", protocol, {"sequential": sequential, "pooled": pooled}
    )


def serve_many(num_clients: int = 4, num_frames: int = 32, width: float = 0.5,
               category: str = "fixed-animals", pretrain_steps: int = 80,
               transport: str = "shm") -> Dict:
    """One server process against the same sessions in-process.

    In-process leg: the ``num_clients`` broadcast sessions run in this
    process back to back, each with its own server half — nothing
    spawned, nothing on a wire, nothing shared; the baseline an operator
    without a server process would actually run.  Multiplexed leg: the
    same sessions as concurrent client processes of one
    :class:`~repro.serving.runtime.ServerRuntime`, every key frame
    crossing ``transport`` as actual pixels and labelled by the neural
    teacher (real per-key-frame GEMMs on the serve path).  The shared
    memo spares N - 1 of every N distillations (see ``serve_counters``)
    and pays for it with 1 + N processes to spawn and schedule, so the
    ratio is a cost-of-deployment reading, not a sharing one (ROADMAP
    4a)."""
    protocol = dict(locals(), scheme="partial", frame_hw=_FRAME_HW, teacher="neural")
    config = _broadcast_config(width, pretrain_steps)
    # Pre-training is a one-time cost per process tree: the forked
    # server and clients inherit this cache entry.
    pretrained_student(width, config.student_seed, pretrain_steps, _FRAME_HW)

    def in_process():
        start = time.perf_counter()
        stats = [
            build_session(config, _FRAME_HW).run(
                iter(_frames(category, num_frames)), label=f"s{index}"
            )
            for index in range(num_clients)
        ]
        wall = time.perf_counter() - start
        return wall, _signatures(stats), {
            "frames": num_clients * num_frames, "server_processes": 0,
        }

    return compare("serve-many", protocol, {
        "in-process": in_process,
        "multiplexed": _multiplexed_leg(
            config, category, num_clients, num_frames, transport
        ),
    }, repeats=5)


def obs_overhead(num_clients: int = 2, num_frames: int = 32, width: float = 0.5,
                 category: str = "fixed-animals", pretrain_steps: int = 40,
                 transport: str = "shm") -> Dict:
    """The cost of arming the full telemetry stack.

    The multiplexed serve-many deployment, telemetry disarmed (the
    state every other scenario measures) against *everything* armed —
    metrics registry, span tracing and the per-plan-step engine timing
    hook, in the server and every client process.  The ratio is armed
    over disarmed throughput, ~1.0 when the disabled-guard design
    holds; the cost itself is armed minus disarmed CPU seconds per
    pair, or "below resolution" unless every pair agrees on the sign
    (five of five is the sign test's p = 0.06; the quartiles of five
    noisy deltas exclude zero far too easily).  Bit-identity across the
    legs is the invariant: telemetry never feeds computation."""
    armed = "metrics,trace,engine"
    protocol = dict(locals(), frame_hw=_FRAME_HW, teacher="neural")
    config = _broadcast_config(width, pretrain_steps)
    pretrained_student(width, config.student_seed, pretrain_steps, _FRAME_HW)
    leg = functools.partial(
        _multiplexed_leg, config, category, num_clients, num_frames, transport
    )
    record = compare(
        "obs-overhead", protocol,
        {"disarmed": leg(), "armed": leg(armed)}, repeats=5,
    )
    deltas = (np.asarray(record["legs"]["armed"]["cpu_s"])
              - np.asarray(record["legs"]["disarmed"]["cpu_s"]))
    record["checks"].update(
        armed_minus_disarmed_cpu_s=_spread(("armed", "disarmed"), deltas),
        cpu_overhead=(
            "below resolution" if deltas.min() <= 0.0 <= deltas.max()
            else f"{np.median(deltas):+.2f} CPU-s per run"
        ),
    )
    return record


def storm(name: str = "thundering-herd", seed: int = 0, probes: int = 2,
          probe_frames: int = 256, storm_frames: int = 3,
          transport: str = "shm", probe_retries: int = 8) -> Dict:
    """Overload control under a named seeded storm.

    Three phases against ONE server running the storm's
    :class:`~repro.serving.overload.OverloadConfig`, each the same
    ``probes`` honest client processes: **idle** x3 (the denominator of
    both floors, so one lucky or unlucky pass must not set it),
    **storm** x1 — the plan's honest churn jobs plus any slow-loris /
    ghost attackers run concurrently, and graduated degradation must
    keep the probes served — and **recovery** x3 after it has drained,
    of which ``recovery_ratio`` reads the *best* as the steady state
    (the first can still straddle the drain edge, and on a shared core
    any one pass can eat a scheduling hiccup).  Every probe wave dials
    fresh connection slots, so all phases share the server and its
    load-tracker state: recovery genuinely measures the controller
    backing off.  Degradation changes what a probe computes, so
    signatures are not compared across phases."""
    protocol = dict(locals())
    plan = storms.storm_plan(name, seed, frames=storm_frames)
    protocol.update(
        storm_clients=plan.n_clients,
        attackers=len(plan.loris_slots) + len(plan.ghost_slots),
        overload=dataclasses.asdict(plan.overload),
        max_sessions=plan.max_sessions,
    )
    probe_jobs = [
        (0.0, storms._session_config(0.25), storms._HW, "fixed-people",
         probe_frames, f"probe-{i}")
        for i in range(probes)
    ]
    # Eight probe waves (warm-up, 3 idle, storm, 3 recovery) take the
    # first slots; the storm's own come after.
    storm_base = 8 * probes
    offsets = itertools.count(0, probes)
    outcomes: List[tuple] = []

    # The handle is held in a `with`: a phase that raises must not
    # leave the server process and its rings behind.
    with start_server(
        [], transport=transport, n_clients=storm_base + plan.n_clients,
        max_sessions=plan.max_sessions, overload=plan.overload,
        idle_timeout_s=120.0,
    ) as handle:
        def probe():
            start = time.perf_counter()
            results = run_churn_processes(
                handle, probe_jobs, timeout_s=240.0,
                admit_retries=probe_retries, outcomes=True,
                slot_offset=next(offsets),
            )
            wall = time.perf_counter() - start
            ok = [payload for status, payload in results if status == "ok"]
            return wall, None, {
                "frames": sum(stats.num_frames for stats in ok),
                "ok": len(ok), "of": probes,
            }

        def under_storm():
            storm_thread = threading.Thread(
                target=lambda: outcomes.extend(run_churn_processes(
                    handle, list(plan.jobs), timeout_s=plan.timeout_s,
                    admit_retries=plan.admit_retries, outcomes=True,
                    slot_offset=storm_base,
                )),
                daemon=True,
            )
            attackers = storms.start_attackers(plan, handle, 60.0, storm_base)
            try:
                storm_thread.start()
                time.sleep(0.2)  # let the front of the storm reach the server
                sample = probe()
            finally:
                storm_thread.join(timeout=plan.timeout_s)
                for proc in attackers:
                    proc.terminate()
                    proc.join(timeout=5.0)
            # Reaper deadlines (loris/ghost teardown) are part of the drain.
            time.sleep(min(plan.overload.reap_idle_s, 5.0) if attackers else 0.5)
            return sample

        probe()  # warm-up: server-side pretrain cache, ring faults
        record = compare(
            # The transport joins the name for non-default runs so the
            # shm and socket floors keep separate trajectory identities.
            f"storm-{name}" + ("" if transport == "shm" else f"-{transport}"),
            protocol, {"idle": probe, "storm": under_storm, "recovery": probe},
            schedule=["idle"] * 3 + ["storm"] + ["recovery"] * 3,
        )
    tally = storms.tally_outcomes(outcomes)
    best = {"samples_s": [min(record["legs"]["recovery"]["samples_s"])]}
    record["checks"].update(
        recovery_ratio=ratio_of(
            {**record["legs"], "best recovery": best}, "idle", "best recovery"
        ),
        storm_outcomes=tally,
        server_exit=handle.process.exitcode,
        wedged=handle.process.exitcode != 0 or tally["errors"] > 0,
    )
    return record


def fleet(n_shards: int = 2, group_clients: Tuple[int, int] = (2, 6),
          width: float = 0.25, category: str = "fixed-people",
          pretrain_steps: int = 10,
          frame_hw: Tuple[int, int] = (24, 32)) -> Dict:
    """A sharded fleet against one multiplexed socket runtime.

    The workload is two tenants with nothing to share: group A is
    ``group_clients[0]`` client processes on a tight fixed stride (key
    frame every 2 of 60 frames), group B is ``group_clients[1]``
    clients on a slow one (key every 4 of 21 frames).  Every client
    within a group submits a byte-identical ADMIT blueprint, so the
    fleet's affinity placement co-locates each group on one shard and
    least-loaded spreads the two groups across shards.  Clients run
    unpaced, so both legs are bound by how fast key frames are served;
    the wall includes spawning the client processes, not the servers.
    The ratio is what shard isolation (one event loop and one process
    per tenant instead of one for both) costs or buys: ~1.0x where the
    clients already fill the cores.  Placement must never change what
    any session computes; the fleet leg carries the placement
    accounting of its last run."""
    groups = {
        "a": {"clients": group_clients[0], "stride": 2, "num_frames": 60},
        "b": {"clients": group_clients[1], "stride": 4, "num_frames": 21},
    }
    protocol = dict(locals(), scheme="partial", transport="socket",
                    num_clients=sum(group_clients))
    jobs = [
        (0.0,
         SessionConfig(
             distill=DistillConfig(
                 max_updates=2, threshold=0.999,
                 min_stride=group["stride"], max_stride=group["stride"],
             ),
             student_width=width, pretrain_steps=pretrain_steps,
         ),
         frame_hw, category, group["num_frames"], f"{name}{i}")
        for name, group in groups.items() for i in range(group["clients"])
    ]
    # Warm the parent-side pretrain cache (the servers pay their own).
    pretrained_student(width, jobs[0][1].student_seed, pretrain_steps, frame_hw)

    def leg(start, server_processes: int) -> Leg:
        def run():
            with start() as handle:
                begin = time.perf_counter()
                stats = run_churn_processes(handle, jobs, timeout_s=300.0)
                wall = time.perf_counter() - begin
            report = getattr(handle, "fleet_report", None) or {}
            return wall, _signatures(stats), {
                "frames": sum(job[4] for job in jobs),
                "server_processes": server_processes, **report,
            }
        return run

    return compare("fleet", protocol, {
        "single-runtime": leg(functools.partial(
            start_server, transport="socket", n_clients=len(jobs)
        ), 1),
        "fleet": leg(functools.partial(start_fleet, n_shards), n_shards),
    }, repeats=5)


#: Record name (on the shm transport) -> the function that measures it.
SCENARIOS: Dict[str, Callable[..., Dict]] = {
    "plan-cache": plan_cache,
    "pool-fanout": pool_fanout,
    "serve-many": serve_many,
    "obs-overhead": obs_overhead,
    "fleet": fleet,
    **{f"storm-{name}": functools.partial(storm, name)
       for name in storms.STORM_NAMES},
}
