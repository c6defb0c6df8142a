"""Wall-clock performance benchmark for the compiled engine.

Measures the Table-3 partial-distillation protocol (one LVS category
stream, student width 0.5) end to end on the real clock, twice: once on
the seed autograd path (engine disabled) and once through the compiled
engine.  Also measures per-frame predict latency and per-step
distillation latency in isolation, and verifies that engine predictions
are argmax-identical to the autograd path on the benchmark frames.

Records append to ``BENCH_PERF.json`` at the repo root (one timestamped
entry per run), so successive PRs can diff the throughput trajectory:

    PYTHONPATH=src python scripts/bench_perf.py --frames 250
    PYTHONPATH=src python scripts/bench_perf.py --pool 16

``measure_pool_throughput`` benchmarks the multi-session serving pool
(fan-out scenario) against sequential single-session runs.
``benchmarks/test_perf_engine.py`` / ``benchmarks/test_perf_pool.py``
run the same measurements inside the benchmark suite and enforce the
>= 3x engine and >= 2x pooled-serving floors.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import re
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import engine
from repro.distill.config import DistillConfig
from repro.distill.trainer import StudentTrainer
from repro.runtime.session import SessionConfig, build_session, pretrained_student
from repro.video.dataset import LVS_CATEGORIES, make_category_video

#: Default location of the perf trajectory log (repo root).
DEFAULT_RESULTS_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_PERF.json"

_FRAME_HW: Tuple[int, int] = (64, 96)

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


# ----------------------------------------------------------------------
# Record schema: every record carries name / pr / git_rev
# ----------------------------------------------------------------------
def git_revision() -> str:
    """Short commit hash of the working tree, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def infer_pr_tag() -> str:
    """Best-effort tag of the PR being built.

    Benchmarks run while a PR is in flight, before its CHANGES.md line
    lands, so the PR under construction is one past the highest "PR N"
    recorded in the *committed* CHANGES.md (HEAD — the working-tree
    copy may already carry the in-flight PR's own line).  Pass an
    explicit ``--pr`` to ``scripts/bench_perf.py`` to override.
    """
    text = None
    try:
        out = subprocess.run(
            ["git", "show", "HEAD:CHANGES.md"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        text = out.stdout if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    if text is None:
        try:
            text = (_REPO_ROOT / "CHANGES.md").read_text()
        except OSError:
            return "PR?"
    numbers = [int(m) for m in re.findall(r"^PR (\d+)", text, re.M)]
    return f"PR{max(numbers) + 1}" if numbers else "PR1"


def record_meta(name: str, pr: Optional[str] = None) -> Dict[str, str]:
    """The schema stamp every BENCH_PERF record starts with."""
    return {
        "name": name,
        "pr": pr or infer_pr_tag(),
        "git_rev": git_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _headline_speedup(record: Dict) -> Optional[float]:
    """The record's one-number trajectory headline.

    Engine/pool/serve-many records already carry a top-level
    ``speedup``; transport and storm records historically spelt theirs
    differently (``speedup_frame``, ``storm_over_idle``), which forced
    per-name special cases on every consumer.  This is the single place
    that knows the mapping.
    """
    for field in ("speedup", "speedup_frame", "storm_over_idle"):
        if field in record:
            return record[field]
    return None


def migrate_records(path: Optional[pathlib.Path] = None) -> int:
    """Bring an existing BENCH_PERF.json up to the current schema.

    Three in-place repairs, each idempotent:

    * stamp ``name``/``pr``/``git_rev`` onto pre-schema records (PRs
      1-2; ``name`` derived from the record shape, ``pr`` by position
      relative to the first pooled-serving record, ``git_rev`` marked
      ``pre-schema``);
    * collapse duplicate ``(name, pr, git_rev)`` entries — the
      append-on-every-invocation bug stacked triplicate storm records —
      keeping the *last* (most refined) measurement at the *first*
      occurrence's trajectory position;
    * stamp the uniform top-level ``speedup`` onto transport and storm
      records that predate it (see :func:`_headline_speedup`).

    Returns the number of records updated or removed.
    """
    path = pathlib.Path(path) if path is not None else DEFAULT_RESULTS_PATH
    if not path.exists():
        return 0
    records = json.loads(path.read_text())
    first_pool = next(
        (i for i, r in enumerate(records) if r.get("kind") == "pool"), len(records)
    )
    updated = 0
    for i, rec in enumerate(records):
        if "name" in rec and "pr" in rec and "git_rev" in rec:
            continue
        name = {
            "pool": "pool-fanout", "transport": "transport-frames",
        }.get(rec.get("kind"), "engine-table3")
        meta = {
            "name": rec.get("name", name),
            "pr": rec.get("pr", "PR1" if i < first_pool else "PR2"),
            "git_rev": rec.get("git_rev", "pre-schema"),
        }
        meta.update(rec)
        rec.clear()
        rec.update(meta)
        updated += 1
    slots: Dict[tuple, int] = {}
    deduped: List[Dict] = []
    for rec in records:
        key = _record_key(rec)
        if key in slots:
            deduped[slots[key]] = rec
            updated += 1
        else:
            slots[key] = len(deduped)
            deduped.append(rec)
    records = deduped
    for rec in records:
        headline = _headline_speedup(rec)
        if headline is not None and "speedup" not in rec:
            rec["speedup"] = headline
            updated += 1
    if updated:
        path.write_text(json.dumps(records, indent=2) + "\n")
    return updated


def _category(key: str):
    for spec in LVS_CATEGORIES:
        if spec.key == key:
            return spec
    raise KeyError(f"unknown LVS category {key!r}")


def _materialise_frames(spec, num_frames: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    video = make_category_video(spec, height=_FRAME_HW[0], width=_FRAME_HW[1])
    video.reset()
    return list(video.frames(num_frames))


def _run_system(frames, config: SessionConfig) -> Tuple[float, object]:
    """One full ShadowTutor partial run over pre-rendered frames."""
    client = build_session(config, _FRAME_HW)
    start = time.perf_counter()
    stats = client.run(iter(frames), label="bench")
    return time.perf_counter() - start, stats


def _predict_latency_ms(frames, width: float, pretrain_steps: int, repeats: int = 30) -> float:
    student = pretrained_student(width, 0, pretrain_steps, _FRAME_HW)
    student.eval()
    frame = frames[0][0]
    student.predict(frame)  # warm-up (plan compile on the engine path)
    start = time.perf_counter()
    for _ in range(repeats):
        student.predict(frame)
    return 1000 * (time.perf_counter() - start) / repeats


def _distill_step_latency_ms(frames, width: float, pretrain_steps: int) -> float:
    """Mean wall time per Algorithm-1 optimisation step (incl. the
    per-step metric evaluation, as in the live system)."""
    student = pretrained_student(width, 0, pretrain_steps, _FRAME_HW)
    frame, label = frames[0]
    trainer = StudentTrainer(
        student, DistillConfig(max_updates=8, threshold=0.999)
    )
    trainer.train(frame, label)  # warm-up
    start = time.perf_counter()
    result = trainer.train(frame, label)
    elapsed = time.perf_counter() - start
    return 1000 * elapsed / max(result.steps, 1)


def _argmax_equivalence(frames, width: float, pretrain_steps: int, limit: int = 50) -> Tuple[bool, int]:
    """Engine predictions must be bit-identical in argmax to autograd."""
    student = pretrained_student(width, 0, pretrain_steps, _FRAME_HW)
    student.eval()
    checked = 0
    for frame, _ in frames[:limit]:
        got = student.predict(frame)
        with engine.disabled():
            ref = student.predict(frame)
        if not np.array_equal(got, ref):
            return False, checked
        checked += 1
    return True, checked


def measure_engine_speedup(
    num_frames: int = 250,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 80,
    pr: Optional[str] = None,
) -> Dict:
    """Run the full benchmark; returns one BENCH_PERF record."""
    spec = _category(category)
    frames = _materialise_frames(spec, num_frames)
    config = SessionConfig(student_width=width, pretrain_steps=pretrain_steps)
    # Shared one-time costs (pre-training) are warmed outside the timers.
    pretrained_student(width, config.student_seed, pretrain_steps, _FRAME_HW)

    previous = engine.set_enabled(False)
    try:
        seed_wall, seed_stats = _run_system(frames, config)
        seed_predict_ms = _predict_latency_ms(frames, width, pretrain_steps)
        seed_step_ms = _distill_step_latency_ms(frames, width, pretrain_steps)
        engine.set_enabled(True)
        engine_wall, engine_stats = _run_system(frames, config)
        engine_predict_ms = _predict_latency_ms(frames, width, pretrain_steps)
        engine_step_ms = _distill_step_latency_ms(frames, width, pretrain_steps)
        identical, frames_checked = _argmax_equivalence(frames, width, pretrain_steps)
    finally:
        # Restore the caller's flag even if a measurement raises, so a
        # failed benchmark cannot flip the engine for the rest of the
        # process (e.g. later tests in the same pytest session).
        engine.set_enabled(previous)

    return {
        **record_meta("engine-table3", pr),
        "protocol": {
            "table": 3,
            "scheme": "partial",
            "category": category,
            "num_frames": num_frames,
            "student_width": width,
            "frame_hw": list(_FRAME_HW),
            "pretrain_steps": pretrain_steps,
        },
        "seed_path": {
            "wall_time_s": round(seed_wall, 3),
            "wall_fps": round(num_frames / seed_wall, 3),
            "predict_ms": round(seed_predict_ms, 3),
            "distill_step_ms": round(seed_step_ms, 3),
            "mean_miou": round(seed_stats.mean_miou, 6),
        },
        "engine_path": {
            "wall_time_s": round(engine_wall, 3),
            "wall_fps": round(num_frames / engine_wall, 3),
            "predict_ms": round(engine_predict_ms, 3),
            "distill_step_ms": round(engine_step_ms, 3),
            "mean_miou": round(engine_stats.mean_miou, 6),
        },
        "speedup": round(seed_wall / engine_wall, 3),
        "predict_speedup": round(seed_predict_ms / engine_predict_ms, 3),
        "distill_step_speedup": round(seed_step_ms / engine_step_ms, 3),
        "argmax_identical": identical,
        "argmax_frames_checked": frames_checked,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def measure_train_speedup(
    num_frames: int = 4,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 40,
    max_updates: int = 8,
    pr: Optional[str] = None,
) -> Dict:
    """Benchmark the full-mode compiled train step (ISSUE-9).

    Full distillation now rides the engine end to end: a compiled
    forward plus the *generated adjoint* plan
    (:mod:`repro.engine.adjoint`), whose schedule replays autograd's
    traversal bitwise.  This bench runs the same full-mode key-frame
    distillation loop twice — interpreted define-by-run autograd
    (engine disabled, the seed path) and the compiled step — and
    records the per-optimisation-step latency ratio, floor-enforced at
    >= 1.5x by ``benchmarks/test_perf_train.py``.  The losses, steps,
    and metrics of the two legs are compared exactly: the speedup is
    only admissible because the answer is bit-identical.
    """
    from repro.distill.config import DistillMode

    spec = _category(category)
    frames = _materialise_frames(spec, num_frames)
    pretrained_student(width, 0, pretrain_steps, _FRAME_HW)
    config = DistillConfig(
        mode=DistillMode.FULL, max_updates=max_updates, threshold=0.999
    )

    def run_leg(enabled: bool) -> Tuple[float, int, list]:
        previous = engine.set_enabled(enabled)
        try:
            # Fresh student per leg from the shared checkpoint (each
            # load deep-copies), so both legs train identical weights.
            student = pretrained_student(width, 0, pretrain_steps, _FRAME_HW)
            trainer = StudentTrainer(student, config)
            trainer.train(*frames[0])  # warm-up: plan compile, caches
            results = []
            start = time.perf_counter()
            for frame, label in frames:
                results.append(trainer.train(frame, label))
            elapsed = time.perf_counter() - start
        finally:
            engine.set_enabled(previous)
        return elapsed, sum(r.steps for r in results), results

    seed_wall, seed_steps, seed_results = run_leg(False)
    engine_wall, engine_steps, engine_results = run_leg(True)
    identical = seed_steps == engine_steps and all(
        a.losses == b.losses and a.metric == b.metric
        for a, b in zip(seed_results, engine_results)
    )
    seed_step_ms = 1000 * seed_wall / max(seed_steps, 1)
    engine_step_ms = 1000 * engine_wall / max(engine_steps, 1)
    return {
        **record_meta("train-step", pr),
        "kind": "train",
        "protocol": {
            "scheme": "full",
            "category": category,
            "num_frames": num_frames,
            "max_updates": max_updates,
            "student_width": width,
            "frame_hw": list(_FRAME_HW),
            "pretrain_steps": pretrain_steps,
        },
        "seed_path": {
            "wall_time_s": round(seed_wall, 3),
            "steps": seed_steps,
            "step_ms": round(seed_step_ms, 3),
        },
        "engine_path": {
            "wall_time_s": round(engine_wall, 3),
            "steps": engine_steps,
            "step_ms": round(engine_step_ms, 3),
        },
        "speedup": round(seed_step_ms / engine_step_ms, 3),
        "bit_identical": identical,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def format_train_record(record: Dict) -> str:
    """One-paragraph human summary of a train-step record."""
    proto = record["protocol"]
    seed, eng = record["seed_path"], record["engine_path"]
    return (
        f"train perf — full-mode distillation, {proto['num_frames']} key "
        f"frames x up to {proto['max_updates']} steps ({proto['category']}, "
        f"width {proto['student_width']}):\n"
        f"  step: autograd {seed['step_ms']:.2f}ms -> compiled adjoint "
        f"{eng['step_ms']:.2f}ms ({record['speedup']:.2f}x over "
        f"{eng['steps']} steps)\n"
        f"  losses/metrics bit-identical across paths: "
        f"{record['bit_identical']}\n"
    )


def machine_fingerprint() -> Dict[str, object]:
    """What a timing in absolute units depends on besides the code:
    cores, CPU model, python, numpy and its BLAS build."""
    import os

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def measure_plan_cache(
    width: float = 0.5, repeats: int = 5, pr: Optional[str] = None
) -> Dict:
    """What a session open costs the engine, in absolute milliseconds.

    For each plan kind a partial-distillation session touches
    (``forward``, ``front``, ``train_back``) at the bench geometry: a
    **cold** ``engine_plan`` on an empty process-wide cache (trace,
    kernel build, scratch allocation — what every session paid before
    plans were shared) against
    a **hand-over** — a second same-architecture instance's
    ``engine_plan`` plus the rebind its first call performs.  Every
    sample is kept; the headline is the ratio of the summed medians.
    """
    from repro.engine import plan_cache
    from repro.models.student import StudentNet, partial_freeze

    h, w = _FRAME_HW
    frame = (1, 3, h, w)
    probe = StudentNet(width=width)
    feats = tuple(
        f.shape for f in probe.engine_plan("front", (frame,)).run(
            np.zeros(frame, np.float32)
        )
    )
    kinds = {
        "forward": (frame,),
        "front": (frame,),
        "train_back": feats,
    }
    cold: Dict[str, List[float]] = {kind: [] for kind in kinds}
    warm: Dict[str, List[float]] = {kind: [] for kind in kinds}
    for rep in range(repeats):
        plan_cache.clear()
        first = StudentNet(width=width, seed=2 * rep)
        second = StudentNet(width=width, seed=2 * rep + 1)
        for student in (first, second):
            partial_freeze(student)
        for kind, shapes in kinds.items():
            t0 = time.perf_counter()
            handle = first.engine_plan(kind, shapes)
            cold[kind].append(1000 * (time.perf_counter() - t0))
            handle.bound()
            t0 = time.perf_counter()
            second.engine_plan(kind, shapes).bound()
            warm[kind].append(1000 * (time.perf_counter() - t0))

    def leg(samples: Dict[str, List[float]]) -> Dict:
        out = {
            kind: {
                "median_ms": round(float(np.median(ms)), 4),
                "samples_ms": [round(m, 4) for m in ms],
            }
            for kind, ms in samples.items()
        }
        out["total_median_ms"] = round(
            sum(entry["median_ms"] for entry in out.values()), 4
        )
        return out

    cold_leg, warm_leg = leg(cold), leg(warm)
    return {
        **record_meta("plan-cache", pr),
        "protocol": {
            "student_width": width,
            "frame_hw": list(_FRAME_HW),
            "kinds": {kind: [list(s) for s in shapes] for kind, shapes in kinds.items()},
            "repeats": repeats,
        },
        "cold_compile": cold_leg,
        "hand_over": warm_leg,
        "speedup": round(
            cold_leg["total_median_ms"] / warm_leg["total_median_ms"], 1
        ),
        "fingerprint": machine_fingerprint(),
    }


def format_plan_cache_record(record: Dict) -> str:
    """One-paragraph human summary of a plan-cache record."""
    proto, fp = record["protocol"], record["fingerprint"]
    cold, warm = record["cold_compile"], record["hand_over"]
    lines = [
        f"plan cache — engine cost of a session open, width "
        f"{proto['student_width']} at {proto['frame_hw'][0]}x"
        f"{proto['frame_hw'][1]} (median of {proto['repeats']}, ms):"
    ]
    for kind in proto["kinds"]:
        lines.append(
            f"  {kind:<10} cold compile {cold[kind]['median_ms']:9.2f}"
            f"   hand-over {warm[kind]['median_ms']:7.3f}"
        )
    lines.append(
        f"  {'all':<10} cold compile {cold['total_median_ms']:9.2f}"
        f"   hand-over {warm['total_median_ms']:7.3f}"
        f"   ({record['speedup']}x)"
    )
    lines.append(
        f"  on {fp['nproc']} x {fp['cpu_model']}, python {fp['python']}, "
        f"numpy {fp['numpy']}, {fp['blas']}\n"
    )
    return "\n".join(lines)


def measure_pool_throughput(
    num_sessions: int = 16,
    num_frames: int = 64,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 80,
    pr: Optional[str] = None,
) -> Dict:
    """Benchmark the multi-session serving pool (fan-out scenario).

    ``num_sessions`` clients watch the *same* pre-rendered stream — the
    broadcast case the pool is built to amortise: key-frame distillation
    is memoised across sessions and non-key-frame predicts are served
    once per distinct (weights, frame) pair.  The baseline is the
    same ``num_sessions`` sessions run sequentially, one full
    single-session run each.  Per-session results are verified
    bit-identical between the two paths and recorded in the output.
    """
    from repro.serving.pool import SessionPool, SessionSpec

    spec = _category(category)
    frames = _materialise_frames(spec, num_frames)
    config = SessionConfig(student_width=width, pretrain_steps=pretrain_steps)
    pretrained_student(width, config.student_seed, pretrain_steps, _FRAME_HW)

    def make_specs():
        return [
            SessionSpec(frames=frames, num_frames=num_frames, config=config)
            for _ in range(num_sessions)
        ]

    # Warm both paths outside the timers (plan compiles, caches).
    _run_system(frames[: min(8, num_frames)], config)
    SessionPool(
        [
            SessionSpec(frames=frames, num_frames=min(8, num_frames), config=config)
            for _ in range(num_sessions)
        ]
    ).run()

    start = time.perf_counter()
    sequential_stats = [_run_system(frames, config)[1] for _ in range(num_sessions)]
    sequential_wall = time.perf_counter() - start

    pool = SessionPool(make_specs())
    start = time.perf_counter()
    result = pool.run()
    pool_wall = time.perf_counter() - start

    identical = all(
        a.signature(include_label=False) == b.signature(include_label=False)
        for a, b in zip(result.stats, sequential_stats)
    )
    total_frames = num_sessions * num_frames
    return {
        **record_meta("pool-fanout", pr),
        "kind": "pool",
        "protocol": {
            "scheme": "partial",
            "category": category,
            "num_sessions": num_sessions,
            "num_frames": num_frames,
            "student_width": width,
            "frame_hw": list(_FRAME_HW),
            "pretrain_steps": pretrain_steps,
        },
        "sequential": {
            "wall_time_s": round(sequential_wall, 3),
            "frames_per_s": round(total_frames / sequential_wall, 3),
        },
        "pool": {
            "wall_time_s": round(pool_wall, 3),
            "frames_per_s": round(total_frames / pool_wall, 3),
            "counters": result.counters,
        },
        "speedup": round(sequential_wall / pool_wall, 3),
        "pool_bit_identical": identical,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


#: Alternating (in-process, multiplexed) leg pairs per serve-many record.
_SERVE_MANY_LEGS = 5


def _serve_many_benchmark(
    num_clients: int,
    num_frames: int,
    width: float,
    category: str,
    pretrain_steps: int,
    transport: str,
    frame_hw: Tuple[int, int],
    pr: Optional[str],
    churn: bool,
    teacher: str = "neural",
) -> Dict:
    """Shared core of the serve-many benchmarks.

    In-process leg: the ``num_clients`` sessions run in this process,
    back to back, each with its own server half — no process spawned,
    nothing on a wire, nothing shared.  It is both the bit-identity
    reference and the baseline an operator without a server process
    would actually run.  Multiplexed leg: ONE server process serving
    ``num_clients`` concurrent client processes over ``transport``,
    every session admitted over the wire; its wall includes spawning
    the server and the clients.  The legs alternate
    ``_SERVE_MANY_LEGS`` times and the record keeps every sample; the
    headline ``speedup`` is the ratio of the median walls, beside each
    leg's absolute frames/s.  ``churn`` only names the record
    (``serve-many-churn`` vs ``serve-many``): the two differ in their
    teacher alone and both stay so each BENCH_PERF trajectory continues.

    ``teacher`` selects the server's teacher (``"neural"`` puts real
    per-key-frame GEMMs on the serve path — the cost the shared label
    memo pays once per distinct frame; ``"oracle"`` is the
    label-function stand-in earlier PRs benched).
    """
    from repro.serving.runtime import run_client_processes, start_server
    from repro.video.dataset import CATEGORY_BY_KEY

    if category not in CATEGORY_BY_KEY:
        raise KeyError(f"unknown LVS category {category!r}")
    config = SessionConfig(
        distill=DistillConfig(
            max_updates=8, threshold=0.999, min_stride=2, max_stride=4
        ),
        student_width=width,
        pretrain_steps=pretrain_steps,
        teacher_arch=teacher,
    )
    # Pre-training is a one-time cost per process tree: the forked
    # server and clients inherit this cache entry.
    pretrained_student(width, config.student_seed, pretrain_steps, frame_hw)

    def run_sequential() -> Tuple[float, list]:
        start = time.perf_counter()
        stats = []
        for index in range(num_clients):
            video = make_category_video(
                CATEGORY_BY_KEY[category], height=frame_hw[0], width=frame_hw[1]
            )
            video.reset()
            client = build_session(config, frame_hw)
            stats.append(client.run(video.frames(num_frames), label=f"s{index}"))
        return time.perf_counter() - start, stats

    def run_multiplexed() -> Tuple[float, list, Optional[Dict]]:
        start = time.perf_counter()
        handle = start_server(
            transport=transport, n_clients=num_clients, idle_timeout_s=120.0,
        )
        try:
            jobs = [
                (config, frame_hw, category, num_frames, f"m{index}")
                for index in range(num_clients)
            ]
            stats = run_client_processes(handle, jobs, timeout_s=600.0)
        finally:
            handle.close()
        wall = time.perf_counter() - start
        report = handle.runtime_report or {}
        return wall, stats, report.get("serve_counters")

    sequential_walls: List[float] = []
    mux_walls: List[float] = []
    identical = True
    for _ in range(_SERVE_MANY_LEGS):
        sequential_wall, sequential_stats = run_sequential()
        mux_wall, mux_stats, mux_counters = run_multiplexed()
        sequential_walls.append(sequential_wall)
        mux_walls.append(mux_wall)
        identical = identical and all(
            a.signature(include_label=False) == b.signature(include_label=False)
            for a, b in zip(mux_stats, sequential_stats)
        )
    sequential_wall = float(np.median(sequential_walls))
    mux_wall = float(np.median(mux_walls))
    total_frames = num_clients * num_frames
    protocol = {
        "scheme": "partial",
        "category": category,
        "num_clients": num_clients,
        "num_frames": num_frames,
        "student_width": width,
        "frame_hw": list(frame_hw),
        "pretrain_steps": pretrain_steps,
        "transport": transport,
        "teacher": teacher,
        "repeats": _SERVE_MANY_LEGS,
    }
    record = {
        **record_meta("serve-many-churn" if churn else "serve-many", pr),
        "kind": "serve_many",
        "protocol": protocol,
        "sequential_inproc": {
            "wall_time_s": round(sequential_wall, 3),
            "samples_s": [round(w, 3) for w in sequential_walls],
            "frames_per_s": round(total_frames / sequential_wall, 3),
            "server_processes": 0,
        },
        "multiplexed": {
            "wall_time_s": round(mux_wall, 3),
            "samples_s": [round(w, 3) for w in mux_walls],
            "frames_per_s": round(total_frames / mux_wall, 3),
            "server_processes": 1,
            "client_processes": num_clients,
        },
        "speedup": round(sequential_wall / mux_wall, 3),
        "bit_identical": identical,
        "fingerprint": machine_fingerprint(),
    }
    if mux_counters:
        # Serve counters of the last multiplexed leg (every leg serves
        # the same population).
        record["multiplexed"]["serve_counters"] = mux_counters
    if churn:
        record["churn"] = True
        protocol["admission"] = "wire-negotiated"
    return record


def measure_serve_many_throughput(
    num_clients: int = 4,
    num_frames: int = 32,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 80,
    transport: str = "shm",
    frame_hw: Tuple[int, int] = _FRAME_HW,
    pr: Optional[str] = None,
    teacher: str = "neural",
) -> Dict:
    """Benchmark one server process against the same sessions in-process.

    Multiplexed: ONE server process (:class:`~repro.serving.runtime.
    ServerRuntime`) serves ``num_clients`` concurrent client processes
    over ``transport``.  Baseline: the same ``num_clients`` sessions
    run in this process back to back, nothing spawned and nothing
    shared.  Each session runs the real frame workload: ``num_frames``
    frames of one category stream, and on the multiplexed leg every
    key frame crosses the transport as actual pixels.

    The workload is the broadcast fan-out scenario — N viewers of one
    stream with a tight key-frame cadence (min_stride 2, max_stride 4,
    the paper's MAX_UPDATES = 8) — so the server's shared memo spares
    ``N - 1`` of every ``N`` distillations (the record's
    ``serve_counters`` show them) while the in-process leg runs all of
    them.  What the multiplexed leg pays for that is 1 + N processes to
    spawn and schedule: on this 2-core box, with numpy's BLAS threads
    multiplied by 1 + N processes, it comes out near parity (see
    ``benchmarks/test_perf_serve_many.py`` for the recorded spread).
    The ratio is a cost-of-deployment reading, not a sharing one.

    Per-session ``RunStats`` are verified bit-identical between the two
    legs, every alternation; ``benchmarks/test_perf_serve_many.py``
    pins the ratio's floor below its recorded spread.

    By default the teacher is the neural :class:`~repro.models.teacher.
    TeacherNet` (real per-key-frame GEMMs): the broadcast population's
    duplicate key frames are labelled and distilled once through the
    shared memo (``label_hits`` / ``hits``).
    """
    return _serve_many_benchmark(
        num_clients, num_frames, width, category, pretrain_steps,
        transport, frame_hw, pr, churn=False, teacher=teacher,
    )


def measure_serve_many_churn(
    num_clients: int = 4,
    num_frames: int = 32,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 80,
    transport: str = "shm",
    frame_hw: Tuple[int, int] = _FRAME_HW,
    pr: Optional[str] = None,
) -> Dict:
    """The oracle-teacher serve-many record (``serve-many-churn``).

    Same workload, baseline and handshake as
    :func:`measure_serve_many_throughput` — every client process dials
    the running server and admits its session over the wire, so the
    multiplexed wall includes blueprint encode/decode, server-side
    session construction mid-loop and the churn-tolerant drain rule —
    with the label-function teacher this record has always used.
    """
    return _serve_many_benchmark(
        num_clients, num_frames, width, category, pretrain_steps,
        transport, frame_hw, pr, churn=True, teacher="oracle",
    )


def measure_obs_overhead(
    num_clients: int = 2,
    num_frames: int = 32,
    width: float = 0.5,
    category: str = "fixed-animals",
    pretrain_steps: int = 40,
    transport: str = "shm",
    frame_hw: Tuple[int, int] = _FRAME_HW,
    pr: Optional[str] = None,
) -> Dict:
    """Benchmark the cost of arming the full telemetry stack (ISSUE 8).

    Runs the multiplexed serve-many deployment twice — telemetry
    disarmed (the default state every other bench measures), then with
    *everything* armed: the metrics registry, span tracing, and the
    per-plan-step engine timing hook, in the server and every client
    process (via the inherited ``REPRO_OBS`` environment).  The
    recorded ``speedup`` is armed throughput over disarmed throughput —
    ~1.0 when the disabled-guard design holds — floor-enforced at
    >= 0.9x by ``benchmarks/test_perf_obs.py``.  Per-session
    ``RunStats`` are verified bit-identical across the two legs: the
    telemetry invariant (records wall-clock, never feeds computation)
    is part of what this bench pins down.
    """
    import os

    from repro import obs
    from repro.serving.runtime import run_client_processes, start_server
    from repro.video.dataset import CATEGORY_BY_KEY

    if category not in CATEGORY_BY_KEY:
        raise KeyError(f"unknown LVS category {category!r}")
    config = SessionConfig(
        distill=DistillConfig(
            max_updates=8, threshold=0.999, min_stride=2, max_stride=4
        ),
        student_width=width,
        pretrain_steps=pretrain_steps,
        teacher_arch="neural",
    )
    pretrained_student(width, config.student_seed, pretrain_steps, frame_hw)
    jobs = [
        (config, frame_hw, category, num_frames, f"o{index}")
        for index in range(num_clients)
    ]

    def run_leg(env_value: Optional[str]) -> Tuple[float, list, Dict]:
        saved = os.environ.pop(obs.ENV_FEATURES, None)
        if env_value is not None:
            os.environ[obs.ENV_FEATURES] = env_value
        try:
            start = time.perf_counter()
            handle = start_server(
                transport=transport, n_clients=num_clients,
                idle_timeout_s=120.0,
            )
            try:
                stats = run_client_processes(handle, jobs, timeout_s=600.0)
            finally:
                handle.close()
            wall = time.perf_counter() - start
            return wall, stats, handle.runtime_report or {}
        finally:
            os.environ.pop(obs.ENV_FEATURES, None)
            if saved is not None:
                os.environ[obs.ENV_FEATURES] = saved

    disarmed_wall, disarmed_stats, _ = run_leg(None)
    armed_wall, armed_stats, armed_report = run_leg("metrics,trace,engine")

    identical = all(
        a.signature(include_label=False) == b.signature(include_label=False)
        for a, b in zip(armed_stats, disarmed_stats)
    )
    metrics = armed_report.get("metrics") or {}
    trace = armed_report.get("trace") or []
    total_frames = num_clients * num_frames
    return {
        **record_meta("obs-overhead", pr),
        "kind": "obs",
        "protocol": {
            "category": category,
            "num_clients": num_clients,
            "num_frames": num_frames,
            "student_width": width,
            "frame_hw": list(frame_hw),
            "pretrain_steps": pretrain_steps,
            "transport": transport,
            "teacher": "neural",
            "armed": "metrics,trace,engine",
        },
        "disarmed": {
            "wall_time_s": round(disarmed_wall, 3),
            "frames_per_s": round(total_frames / disarmed_wall, 3),
        },
        "armed": {
            "wall_time_s": round(armed_wall, 3),
            "frames_per_s": round(total_frames / armed_wall, 3),
            "server_exit_reason": armed_report.get("exit_reason"),
            "server_counters": len(metrics.get("counters", {})),
            "server_histograms": len(metrics.get("histograms", {})),
            "server_trace_events": len(trace),
        },
        # Armed throughput relative to disarmed — the telemetry
        # overhead headline, ~1.0 when the disabled guards are honest.
        "speedup": round(disarmed_wall / armed_wall, 3),
        "bit_identical": identical,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def measure_storm(
    name: str = "thundering-herd",
    seed: int = 0,
    probes: int = 2,
    probe_frames: int = 256,
    storm_frames: int = 3,
    transport: str = "shm",
    probe_retries: int = 8,
    baseline: bool = True,
    pr: Optional[str] = None,
) -> Dict:
    """Benchmark overload control under a named seeded storm.

    Three phases against ONE server running the storm's
    :class:`~repro.serving.overload.OverloadConfig`:

    1. **idle** — ``probes`` honest client processes run alone: the
       baseline throughput of an unloaded, overload-armed server.
    2. **storm** — the full storm (the plan's honest churn jobs plus
       any slow-loris / ghost attackers) runs concurrently while the
       same probe workload repeats: graduated degradation must keep the
       probes served (floor: >= 0.5x idle, enforced by
       ``benchmarks/test_perf_overload.py``).
    3. **recovery** — the storm has drained; the probe workload repeats
       once more (floor: >= 0.9x idle).

    Each probe phase dials fresh connection slots (``slot_offset``), so
    all three phases share the server and its load-tracker state — the
    recovery number genuinely measures the controller backing off.

    With ``baseline=True`` the same storm then runs against a server
    *without* the overload layer (short transport timeout so a wedge
    resolves quickly and is recorded as data, not waited out).
    """
    import threading

    from repro.serving import storms as storms_mod
    from repro.serving.runtime import run_churn_processes, start_server

    plan = storms_mod.storm_plan(name, seed, frames=storm_frames)
    hw = storms_mod._HW
    probe_config = storms_mod._session_config(0.25)
    probe_jobs = [
        (0.0, probe_config, hw, "fixed-people", probe_frames, f"probe-{i}")
        for i in range(probes)
    ]
    # Eight probe waves share the server: a warmup (fills the server's
    # pretrained-student cache so phase walls are comparable), three
    # idle passes (the *median* is the baseline — idle is the
    # denominator of both floors, so a single lucky-fast pass would
    # unfairly deflate every later ratio just as a slow one would
    # inflate them), the under-storm phase, and three recovery passes
    # (the *best* one is the steady-state number — the first can still
    # straddle the drain edge, and on a single shared core any one
    # pass can eat an OS scheduling hiccup); the storm's own slots
    # come after.
    n_slots = 8 * probes + plan.n_clients
    storm_base = 8 * probes

    handle = start_server(
        [], transport=transport, n_clients=n_slots,
        max_sessions=plan.max_sessions, overload=plan.overload,
        idle_timeout_s=120.0,
    )

    def probe_phase(offset: int) -> Dict:
        start = time.perf_counter()
        outcomes = run_churn_processes(
            handle, probe_jobs, timeout_s=240.0,
            admit_retries=probe_retries, outcomes=True, slot_offset=offset,
        )
        wall = time.perf_counter() - start
        ok = [payload for status, payload in outcomes if status == "ok"]
        frames = sum(stats.num_frames for stats in ok)
        return {
            "wall_time_s": round(wall, 3),
            "frames_per_s": round(frames / wall, 3) if wall else 0.0,
            "ok": len(ok),
            "of": len(probe_jobs),
        }

    storm_box: Dict[str, list] = {}

    def storm_main() -> None:
        storm_box["outcomes"] = run_churn_processes(
            handle, list(plan.jobs), timeout_s=plan.timeout_s,
            admit_retries=plan.admit_retries, outcomes=True,
            slot_offset=storm_base,
        )

    import multiprocessing as mp

    attackers = []
    try:
        probe_phase(0)  # warmup (server-side caches, ring faults)
        idle = sorted(
            (probe_phase(probes), probe_phase(2 * probes),
             probe_phase(3 * probes)),
            key=lambda phase: phase["frames_per_s"],
        )[1]

        for slot in plan.loris_slots:
            proc = mp.Process(
                target=storms_mod._loris_main,
                args=(handle.address(storm_base + slot), 60.0),
                daemon=True,
            )
            proc.start()
            attackers.append(proc)
        for slot in plan.ghost_slots:
            proc = mp.Process(
                target=storms_mod._ghost_main,
                args=(handle.address(storm_base + slot), 2, 60.0),
                daemon=True,
            )
            proc.start()
            attackers.append(proc)
        storm_thread = threading.Thread(target=storm_main, daemon=True)
        storm_thread.start()
        time.sleep(0.2)  # let the front of the storm reach the server
        under_storm = probe_phase(4 * probes)
        storm_thread.join(timeout=plan.timeout_s)
    finally:
        for proc in attackers:
            proc.terminate()
            proc.join(timeout=5.0)

    # Reaper deadlines (loris/ghost teardown) are part of the drain.
    settle = plan.overload.reap_idle_s if attackers else None
    time.sleep(min(settle, 5.0) if settle else 0.5)
    recovery = max(
        (probe_phase(5 * probes), probe_phase(6 * probes),
         probe_phase(7 * probes)),
        key=lambda phase: phase["frames_per_s"],
    )
    handle.close()
    server_exit = handle.process.exitcode

    outcomes = storm_box.get("outcomes", [])
    ok = sum(1 for status, _ in outcomes if status == "ok")
    rejected = [payload for status, payload in outcomes if status == "rejected"]
    errors = sum(1 for status, _ in outcomes if status == "error")
    reasons: Dict[str, int] = {}
    hinted = 0
    for reason, retry_after in rejected:
        reasons[reason] = reasons.get(reason, 0) + 1
        if retry_after is not None:
            hinted += 1

    record = {
        # The transport joins the record name for non-default runs so
        # the shm and socket floors keep separate dedup identities.
        **record_meta(
            f"storm-{name}" + ("" if transport == "shm" else f"-{transport}"),
            pr,
        ),
        "kind": "storm",
        "protocol": {
            "storm": name,
            "seed": seed,
            "transport": transport,
            "probes": probes,
            "probe_frames": probe_frames,
            "storm_clients": plan.n_clients,
            "storm_frames": storm_frames,
            "attackers": len(plan.loris_slots) + len(plan.ghost_slots),
            "overload": dataclasses.asdict(plan.overload),
            "max_sessions": plan.max_sessions,
        },
        "idle": idle,
        "storm": under_storm,
        "recovery": recovery,
        # Uniform trajectory headline (= storm_over_idle): how much of
        # idle throughput the probes kept under the storm.
        "speedup": round(
            under_storm["frames_per_s"] / idle["frames_per_s"], 3
        ) if idle["frames_per_s"] else 0.0,
        "storm_over_idle": round(
            under_storm["frames_per_s"] / idle["frames_per_s"], 3
        ) if idle["frames_per_s"] else 0.0,
        "recovery_over_idle": round(
            recovery["frames_per_s"] / idle["frames_per_s"], 3
        ) if idle["frames_per_s"] else 0.0,
        "storm_outcomes": {
            "ok": ok,
            "rejected": len(rejected),
            "reject_reasons": reasons,
            "hinted": hinted,
            "errors": errors,
        },
        "server_exit": server_exit,
        "wedged": server_exit != 0 or errors > 0,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if baseline:
        base = storms_mod.run_storm(
            plan, transport=transport, control=False,
            idle_timeout_s=15.0, loris_hold_s=12.0, job_timeout_s=45.0,
            timeout_s=8.0,
        )
        record["no_control"] = {
            "ok": base.ok,
            "rejected": base.rejected,
            "errors": base.errors,
            "wall_time_s": round(base.wall_s, 3),
            "server_exit": base.server_exit,
            "wedged": base.wedged,
        }
    return record


def format_storm_record(record: Dict) -> str:
    """One-paragraph human summary of a storm record."""
    proto = record["protocol"]
    out = record["storm_outcomes"]
    lines = (
        f"storm perf — {proto['storm']} (seed {proto['seed']}, "
        f"{proto['storm_clients']} storm clients, {proto['attackers']} "
        f"attackers, {proto['transport']}):\n"
        f"  probes: idle {record['idle']['frames_per_s']:.1f} f/s -> "
        f"under storm {record['storm']['frames_per_s']:.1f} f/s "
        f"({record['storm_over_idle']:.2f}x) -> recovery "
        f"{record['recovery']['frames_per_s']:.1f} f/s "
        f"({record['recovery_over_idle']:.2f}x)\n"
        f"  storm outcomes: {out['ok']} ok, {out['rejected']} rejected "
        f"({out['reject_reasons']}, {out['hinted']} with retry_after), "
        f"{out['errors']} errors; server exit {record['server_exit']}, "
        f"wedged: {record['wedged']}\n"
    )
    if "no_control" in record:
        base = record["no_control"]
        lines += (
            f"  no-control baseline: {base['ok']} ok, {base['errors']} "
            f"errors, server exit {base['server_exit']}, wedged: "
            f"{base['wedged']} ({base['wall_time_s']:.1f}s)\n"
        )
    return lines


# ----------------------------------------------------------------------
# Fleet benchmark: K shards behind one front door vs one runtime
# ----------------------------------------------------------------------
#: Alternating (single runtime, fleet) leg pairs per fleet record.
_FLEET_LEGS = 5


def measure_fleet_throughput(
    n_shards: int = 2,
    group_clients: Tuple[int, int] = (2, 6),
    width: float = 0.25,
    category: str = "fixed-people",
    pretrain_steps: int = 10,
    frame_hw: Tuple[int, int] = (24, 32),
    pr: Optional[str] = None,
) -> Dict:
    """Benchmark a sharded socket fleet against one multiplexed runtime.

    The workload is two tenants with nothing to share: group A is
    ``group_clients[0]`` client processes on a tight fixed stride (key
    frame every 2 of 60 frames), group B is ``group_clients[1]``
    clients on a slow one (key every 4 of 21 frames).  Every client
    within a group submits a byte-identical ADMIT blueprint, so the
    fleet's affinity placement co-locates each group on one shard and
    least-loaded spreads the two groups across shards.  Clients run
    unpaced — each sends its next key frame the moment the last reply
    is applied — so both legs are bound by how fast key frames are
    served, and the wall clock includes spawning the client processes.
    A leg lasts well under a second, so the two legs alternate
    ``_FLEET_LEGS`` times and the record keeps every sample; the headline
    is the ratio of the median walls.

    What the recorded ``speedup`` measures is therefore placement plus
    a second server core: on the one runtime both tenants queue behind
    one event loop, in the fleet each has its own.  With
    ``sum(group_clients)`` client processes already contending for the
    box's cores (2 here) a second server process has little idle CPU to
    claim: fourteen records here read 0.90–1.20x (0.90x and 1.02x
    inside full benchmark-suite runs, 0.98–1.07x and 1.01–1.20x in two
    standalone sets hours apart; a leg's own samples spread ±15 %).
    So the floor ``benchmarks/test_perf_fleet.py`` enforces is "a fleet
    costs little", pinned below that spread: >= 0.8x of the single
    runtime.

    Per-session ``RunStats`` are verified bit-identical between fleet
    and single runtime (placement must never change what any session
    computes), and the record carries the fleet's placement accounting
    (placed / redirects / final ledger loads).
    """
    from repro.serving.fleet import start_fleet
    from repro.serving.runtime import run_churn_processes, start_server
    from repro.video.dataset import CATEGORY_BY_KEY

    if category not in CATEGORY_BY_KEY:
        raise KeyError(f"unknown LVS category {category!r}")

    def group_config(stride: int) -> SessionConfig:
        return SessionConfig(
            distill=DistillConfig(
                max_updates=2, threshold=0.999,
                min_stride=stride, max_stride=stride,
            ),
            student_width=width,
            pretrain_steps=pretrain_steps,
        )

    groups = {
        "a": {"clients": group_clients[0], "stride": 2, "num_frames": 60},
        "b": {"clients": group_clients[1], "stride": 4, "num_frames": 21},
    }
    jobs = [
        (0.0, group_config(group["stride"]), frame_hw, category,
         group["num_frames"], f"{name}{i}")
        for name, group in groups.items() for i in range(group["clients"])
    ]
    num_clients = len(jobs)
    total_frames = sum(job[4] for job in jobs)
    # Warm the parent-side pretrain cache (the servers pay their own).
    pretrained_student(width, jobs[0][1].student_seed, pretrain_steps, frame_hw)

    def run(handle) -> Tuple[float, list]:
        try:
            start = time.perf_counter()
            stats = run_churn_processes(handle, jobs, timeout_s=300.0)
            wall = time.perf_counter() - start
        finally:
            handle.close()
        return wall, stats

    single_walls: List[float] = []
    fleet_walls: List[float] = []
    identical = True
    for _ in range(_FLEET_LEGS):
        single_wall, single_stats = run(start_server(
            [], transport="socket", n_clients=num_clients,
            idle_timeout_s=120.0,
        ))
        fleet_handle = start_fleet(
            n_shards, transport="socket", n_clients=num_clients,
            idle_timeout_s=120.0,
        )
        fleet_wall, fleet_stats = run(fleet_handle)
        single_walls.append(single_wall)
        fleet_walls.append(fleet_wall)
        identical = identical and all(
            a.signature(include_label=False) == b.signature(include_label=False)
            for a, b in zip(fleet_stats, single_stats)
        )
    # Placement accounting of the last fleet leg (every leg places the
    # same population).
    fleet_report = fleet_handle.fleet_report or {}
    single_wall = float(np.median(single_walls))
    fleet_wall = float(np.median(fleet_walls))
    return {
        **record_meta("fleet", pr),
        "kind": "fleet",
        "protocol": {
            "scheme": "partial",
            "category": category,
            "n_shards": n_shards,
            "num_clients": num_clients,
            "groups": groups,
            "student_width": width,
            "frame_hw": list(frame_hw),
            "pretrain_steps": pretrain_steps,
            "transport": "socket",
            "repeats": _FLEET_LEGS,
        },
        "single_runtime": {
            "wall_time_s": round(single_wall, 3),
            "samples_s": [round(w, 3) for w in single_walls],
            "frames_per_s": round(total_frames / single_wall, 3),
            "server_processes": 1,
        },
        "fleet": {
            "wall_time_s": round(fleet_wall, 3),
            "samples_s": [round(w, 3) for w in fleet_walls],
            "frames_per_s": round(total_frames / fleet_wall, 3),
            "server_processes": n_shards,
            "placed": fleet_report.get("placed"),
            "redirects": fleet_report.get("redirects"),
            "loads": fleet_report.get("loads"),
            "exit_reasons": fleet_report.get("exit_reasons"),
        },
        "speedup": round(single_wall / fleet_wall, 3),
        "bit_identical": identical,
        "fingerprint": machine_fingerprint(),
    }


def format_fleet_record(record: Dict) -> str:
    """One-paragraph human summary of a fleet record."""
    proto = record["protocol"]
    single = record["single_runtime"]
    fleet = record["fleet"]
    return (
        f"fleet perf — {proto['n_shards']} shards, {proto['num_clients']} "
        f"client processes in 2 tenant groups ({proto['transport']}):\n"
        f"  single runtime: median {single['wall_time_s']:.2f}s "
        f"({single['frames_per_s']:.1f} f/s) of {single['samples_s']}\n"
        f"  fleet:          median {fleet['wall_time_s']:.2f}s "
        f"({fleet['frames_per_s']:.1f} f/s) of {fleet['samples_s']}\n"
        f"  speedup {record['speedup']:.2f}x, bit-identical: "
        f"{record['bit_identical']}\n"
        f"  placement: {fleet['placed']} placed, {fleet['redirects']} "
        f"redirects, final loads {fleet['loads']}, exits "
        f"{fleet['exit_reasons']}\n"
    )


def format_serve_many_record(record: Dict) -> str:
    """One-paragraph human summary of a serve-many record."""
    proto = record["protocol"]
    inproc, mux = record["sequential_inproc"], record["multiplexed"]
    teacher = proto.get("teacher", "oracle")
    lines = (
        f"{record['name']} perf — {proto['num_clients']} client processes "
        f"x {proto['num_frames']} frames ({proto['category']}, "
        f"width {proto['student_width']}, {proto['transport']}, "
        f"{teacher} teacher):\n"
        f"  in-process, back to back: median {inproc['wall_time_s']:.2f}s "
        f"({inproc['frames_per_s']:.1f} f/s) of {inproc['samples_s']}\n"
        f"  multiplexed (1 server proc): median {mux['wall_time_s']:.2f}s "
        f"({mux['frames_per_s']:.1f} f/s) of {mux['samples_s']}"
        f" -> {record['speedup']:.2f}x\n"
    )
    if "serve_counters" in mux:
        counters = mux["serve_counters"]
        lines += f"  serve counters: {counters}\n"
    lines += (
        f"  per-session stats bit-identical across legs: "
        f"{record['bit_identical']}\n"
    )
    return lines


def format_obs_record(record: Dict) -> str:
    """One-paragraph human summary of a telemetry-overhead record."""
    proto = record["protocol"]
    disarmed, armed = record["disarmed"], record["armed"]
    return (
        f"obs perf — {proto['num_clients']} client processes x "
        f"{proto['num_frames']} frames ({proto['category']}, width "
        f"{proto['student_width']}, {proto['transport']}), telemetry "
        f"armed: {proto['armed']}:\n"
        f"  disarmed: {disarmed['wall_time_s']:.2f}s "
        f"({disarmed['frames_per_s']:.1f} f/s)\n"
        f"  armed: {armed['wall_time_s']:.2f}s "
        f"({armed['frames_per_s']:.1f} f/s) -> {record['speedup']:.2f}x "
        f"of disarmed throughput\n"
        f"  armed server telemetry: {armed['server_counters']} counters, "
        f"{armed['server_histograms']} histograms, "
        f"{armed['server_trace_events']} trace events "
        f"(exit {armed['server_exit_reason']})\n"
        f"  per-session stats bit-identical across legs: "
        f"{record['bit_identical']}\n"
    )


def format_pool_record(record: Dict) -> str:
    """One-paragraph human summary of a pooled-serving record."""
    proto = record["protocol"]
    seq, pool = record["sequential"], record["pool"]
    counters = pool["counters"]
    return (
        f"pool perf — {proto['num_sessions']} sessions x "
        f"{proto['num_frames']} frames ({proto['category']}, width "
        f"{proto['student_width']}):\n"
        f"  wall: {seq['wall_time_s']:.2f}s sequential -> "
        f"{pool['wall_time_s']:.2f}s pooled ({record['speedup']:.2f}x, "
        f"{pool['frames_per_s']:.1f} frames/s)\n"
        f"  routes: {counters.get('deduped_frames', 0)} deduped, "
        f"{counters.get('single_frames', 0)} single; distillation "
        f"{counters.get('distill_hits', 0)} hits / "
        f"{counters.get('distill_misses', 0)} misses\n"
        f"  per-session stats bit-identical to sequential runs: "
        f"{record['pool_bit_identical']}\n"
    )


def _record_key(record: Dict) -> tuple:
    """The identity a trajectory entry occupies: one benchmark, one PR,
    one commit.  Re-running the same bench at the same commit refines
    the measurement; it does not add a data point."""
    return (record.get("name"), record.get("pr"), record.get("git_rev"))


def append_record(record: Dict, path: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Append ``record`` to the BENCH_PERF.json trajectory log.

    Appends are deduplicated on ``(name, pr, git_rev)``: re-running a
    bench at the same commit *replaces* the earlier record in place
    (keeping its position in the trajectory) instead of stacking
    near-identical entries — the bug that left BENCH_PERF.json with
    triplicate PR6 storm records.
    """
    path = pathlib.Path(path) if path is not None else DEFAULT_RESULTS_PATH
    records: List[Dict] = []
    if path.exists():
        records = json.loads(path.read_text())
    key = _record_key(record)
    slots = [i for i, rec in enumerate(records) if _record_key(rec) == key]
    if slots:
        records[slots[0]] = record
        for i in reversed(slots[1:]):
            del records[i]
    else:
        records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")
    return path


def format_record(record: Dict) -> str:
    """One-paragraph human summary (printed by the CLI and benchmark)."""
    seed, eng = record["seed_path"], record["engine_path"]
    proto = record["protocol"]
    return (
        f"engine perf — {proto['category']} x{proto['num_frames']} frames, "
        f"width {proto['student_width']}:\n"
        f"  wall: {seed['wall_time_s']:.2f}s -> {eng['wall_time_s']:.2f}s "
        f"({record['speedup']:.2f}x, {eng['wall_fps']:.1f} fps wall)\n"
        f"  predict: {seed['predict_ms']:.2f}ms -> {eng['predict_ms']:.2f}ms "
        f"({record['predict_speedup']:.2f}x)\n"
        f"  distill step: {seed['distill_step_ms']:.2f}ms -> "
        f"{eng['distill_step_ms']:.2f}ms ({record['distill_step_speedup']:.2f}x)\n"
        f"  argmax identical on {record['argmax_frames_checked']} frames: "
        f"{record['argmax_identical']}\n"
    )
