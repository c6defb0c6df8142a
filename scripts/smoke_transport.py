#!/usr/bin/env python3
"""Tier-1 smoke test: a tiny real two-process session over shm.

Runs one ShadowTutor session ADMITted on a one-session server process
(``start_server(n_clients=1)`` + ``handle.ticket()``) over the
shared-memory ring transport and asserts its ``RunStats`` is
*identical* to the same session run in-process — the transport
subsystem's core contract, checked in seconds so the real-transport
path cannot silently rot.  ``scripts/test_tier1.sh`` runs this under a
hard timeout after the pytest suite.
"""

import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.distill.config import DistillConfig  # noqa: E402
from repro.runtime.session import SessionConfig, run_shadowtutor  # noqa: E402
from repro.serving.runtime import start_server  # noqa: E402
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video  # noqa: E402


def run(config):
    video = make_category_video(CATEGORY_BY_KEY["fixed-people"],
                                height=32, width=48)
    return run_shadowtutor(video, 16, config, label="smoke")


def main() -> int:
    config = SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=10,
    )
    inproc = run(config)
    handle = start_server(transport="shm", n_clients=1, idle_timeout_s=60)
    try:
        shm = run(dataclasses.replace(config, attach=handle.ticket()))
    finally:
        handle.close()
    assert handle.process.exitcode == 0, (
        f"server process exited with {handle.process.exitcode}"
    )
    assert shm.signature() == inproc.signature(), (
        "shm-transport session diverged from the in-process run:\n"
        f"  inproc: {inproc.summary()}\n  shm:    {shm.summary()}"
    )
    print(f"transport smoke OK: {shm.num_frames} frames, "
          f"{shm.num_key_frames} key frames over shm, RunStats identical "
          "to in-process")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
