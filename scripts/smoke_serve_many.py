#!/usr/bin/env python3
"""Tier-1 smoke test: one server process, four client processes.

Starts a multiplexing :class:`~repro.serving.runtime.ServerRuntime`
and runs four concurrent standalone client *processes* against it —
over the shared-memory rings and again over TCP — asserting every
session's ``RunStats`` is identical to the same session run
in-process.  This is the ISSUE-4 acceptance deployment, checked in
seconds so the multiplexed path cannot silently rot.
``scripts/test_tier1.sh`` runs this under a hard timeout after the
pytest suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.distill.config import DistillConfig  # noqa: E402
from repro.runtime.session import SessionConfig, run_shadowtutor  # noqa: E402
from repro.serving.runtime import run_client_processes, start_server  # noqa: E402
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video  # noqa: E402

N_CLIENTS = 4
NUM_FRAMES = 12
HW = (32, 48)
CATEGORY = "fixed-people"


def _config() -> SessionConfig:
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=10,
    )


def main() -> int:
    reference = run_shadowtutor(
        make_category_video(CATEGORY_BY_KEY[CATEGORY], height=HW[0], width=HW[1]),
        NUM_FRAMES, _config(), label="smoke",
    )
    for transport in ("shm", "socket"):
        handle = start_server(
            transport=transport, n_clients=N_CLIENTS, idle_timeout_s=120,
        )
        try:
            jobs = [
                (_config(), HW, CATEGORY, NUM_FRAMES, f"smoke{i}")
                for i in range(N_CLIENTS)
            ]
            stats = run_client_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        assert handle.process.exitcode == 0, (
            f"server process exited {handle.process.exitcode} over {transport}"
        )
        for index, got in enumerate(stats):
            assert got.signature(include_label=False) == reference.signature(
                include_label=False
            ), (
                f"client process {index} over {transport} diverged from "
                f"in-process run:\n  inproc: {reference.summary()}\n"
                f"  mux:    {got.summary()}"
            )
        print(f"serve-many smoke OK over {transport}: 1 server process served "
              f"{N_CLIENTS} client processes x {NUM_FRAMES} frames, "
              "RunStats identical to in-process")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
