#!/usr/bin/env python3
"""Tier-1 smoke test: a 2-shard fleet behind one front door.

Starts a ``start_fleet(2)`` fleet sharing one read-only neural
teacher segment and churns four standalone client *processes* through
its SO_REUSEPORT front door — two tenant groups with different student
widths, so placement must both spread (distinct blueprints) and stick
(affinity for repeats).  Every session's ``RunStats`` must be bit-identical to
the same session run in-process, both shards must drain to
``quiesced``, the placement ledger must drain to zero claims, and no
shm segment (the teacher weights) may leak.  This is the ISSUE-10
acceptance deployment, checked in seconds so the fleet path cannot
silently rot.  ``scripts/test_tier1.sh`` runs this under a hard
timeout after the pytest suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.distill.config import DistillConfig  # noqa: E402
from repro.runtime.session import SessionConfig, run_shadowtutor  # noqa: E402
from repro.serving import start_fleet  # noqa: E402
from repro.serving.runtime import run_churn_processes  # noqa: E402
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video  # noqa: E402

N_SHARDS = 2
N_CLIENTS = 4
NUM_FRAMES = 8
HW = (24, 32)
CATEGORY = "fixed-people"
TEACHER = (8, 0)  # (width, seed) of the shared neural teacher segment


def _config(width: float) -> SessionConfig:
    return SessionConfig(
        distill=DistillConfig(max_updates=2, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=width,
        pretrain_steps=5,
        teacher_arch="neural",
        teacher_width=TEACHER[0],
        teacher_seed=TEACHER[1],
    )


def _shm_segments():
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {p for p in shm_dir.iterdir() if p.name.startswith("psm_")}


def main() -> int:
    before = _shm_segments()
    widths = [0.25, 0.3, 0.25, 0.3]  # two tenants, twice each
    references = {
        width: run_shadowtutor(
            make_category_video(CATEGORY_BY_KEY[CATEGORY],
                                height=HW[0], width=HW[1]),
            NUM_FRAMES, _config(width), label="smoke",
        )
        for width in set(widths)
    }
    handle = start_fleet(N_SHARDS, shared_teacher=TEACHER, idle_timeout_s=120)
    try:
        jobs = [
            (0.1 * i, _config(width), HW, CATEGORY, NUM_FRAMES, f"smoke{i}")
            for i, width in enumerate(widths)
        ]
        stats = run_churn_processes(handle, jobs, timeout_s=180)
    finally:
        handle.close()
    report = handle.fleet_report
    assert report["exit_reasons"] == ["quiesced"] * N_SHARDS, (
        f"shards did not drain cleanly: {report['exit_reasons']}"
    )
    assert report["placed"] == N_CLIENTS, report
    assert sum(report["loads"]) == 0, (
        f"placement ledger did not drain: {report['loads']}"
    )
    for index, (got, width) in enumerate(zip(stats, widths)):
        reference = references[width]
        assert got.signature(include_label=False) == reference.signature(
            include_label=False
        ), (
            f"client process {index} (width {width}) diverged from "
            f"in-process run:\n  inproc: {reference.summary()}\n"
            f"  fleet:  {got.summary()}"
        )
    if before is not None:
        leaked = _shm_segments() - before
        assert not leaked, f"leaked shm segments: {leaked}"
    print(f"fleet smoke OK: {N_SHARDS} shards behind one front door served "
          f"{N_CLIENTS} client processes x {NUM_FRAMES} frames over one "
          "shared teacher segment, RunStats identical to in-process, "
          "ledger drained, no shm leak")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
