#!/usr/bin/env python3
"""Tier-1 observability smoke (ISSUE 8): an armed serve-many run.

One multiplexed server serves two client processes with the full
telemetry stack armed — metrics registry, span tracing, per-plan-step
engine timing — and the run must (a) stay bit-identical to the same
session run in-process with telemetry disarmed, (b) deliver a populated
metrics snapshot in the runtime report, (c) drop per-process
``obs-*.json`` artifacts that ``scripts/obs_report.py`` folds into a
merged metrics table and a parseable Chrome trace-event JSON file.
``scripts/test_tier1.sh`` runs this under a hard timeout after the
pytest suite, so telemetry can never silently perturb the computation
or stop producing artifacts.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.distill.config import DistillConfig  # noqa: E402
from repro.runtime.session import SessionConfig, run_shadowtutor  # noqa: E402
from repro.serving.runtime import run_client_processes, start_server  # noqa: E402
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video  # noqa: E402

N_CLIENTS = 2
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
    # Disarmed in-process reference first: the armed multiplexed run
    # below must reproduce it bit for bit (telemetry records wall-clock
    # but never feeds computation).
    reference = run_shadowtutor(
        make_category_video(CATEGORY_BY_KEY[CATEGORY], height=HW[0], width=HW[1]),
        NUM_FRAMES, _config(), label="smoke",
    )

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        saved = {k: os.environ.get(k) for k in (obs.ENV_FEATURES, obs.ENV_DIR)}
        os.environ[obs.ENV_FEATURES] = "metrics,trace,engine"
        os.environ[obs.ENV_DIR] = tmp
        try:
            handle = start_server(
                transport="shm", n_clients=N_CLIENTS, idle_timeout_s=120,
                obs_config=obs.ObsConfig(metrics=True, trace=True, engine=True),
            )
            try:
                jobs = [
                    (_config(), HW, CATEGORY, NUM_FRAMES, f"smoke{i}")
                    for i in range(N_CLIENTS)
                ]
                stats = run_client_processes(handle, jobs, timeout_s=180)
            finally:
                handle.close()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

        assert handle.process.exitcode == 0, (
            f"armed server process exited {handle.process.exitcode}"
        )
        for index, got in enumerate(stats):
            assert got.signature(include_label=False) == reference.signature(
                include_label=False
            ), (
                f"armed client process {index} diverged from the disarmed "
                f"in-process run:\n  inproc: {reference.summary()}\n"
                f"  armed:  {got.summary()}"
            )

        report = handle.runtime_report
        assert report is not None, "no runtime report from the armed server"
        assert report["exit_reason"] == "quiesced", report["exit_reason"]
        snapshot = report.get("metrics")
        assert snapshot, "armed server report carries no metrics snapshot"
        counters = snapshot["counters"]
        key_frames = counters.get("serve.key_frames", 0)
        assert key_frames >= 1, f"server counted {key_frames} key frames"
        memo = counters.get("serve.memo.hits", 0) + counters.get("serve.memo.misses", 0)
        assert memo == key_frames, (
            f"memo saw {memo} of {key_frames} key frames"
        )
        assert snapshot["histograms"].get("sweep.duration_s", {}).get("count", 0) > 0, (
            "no sweep duration observations in the armed server snapshot"
        )
        assert report.get("trace"), "armed server report carries no trace events"

        # Artifacts: server + every client must have dropped one, and
        # obs_report.py must fold them into a loadable Chrome trace.
        artifacts = sorted(pathlib.Path(tmp).glob("obs-*.json"))
        assert len(artifacts) >= 1 + N_CLIENTS, (
            f"expected >= {1 + N_CLIENTS} obs artifacts, found "
            f"{[p.name for p in artifacts]}"
        )
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).parent / "obs_report.py"),
             "--dir", tmp],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (
            f"obs_report.py failed ({proc.returncode}):\n{proc.stderr}"
        )
        assert "merged metrics" in proc.stdout, proc.stdout

        trace_path = pathlib.Path(tmp) / "trace.json"
        assert trace_path.exists(), "obs_report.py wrote no trace.json"
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        events = trace["traceEvents"]
        assert events, "combined trace has no events"
        for event in events[:16]:
            for key in ("ph", "name", "ts", "pid"):
                assert key in event, f"trace event missing {key!r}: {event}"
        names = {event["name"] for event in events}
        assert "serve" in names, f"no serve spans in the trace: {sorted(names)[:8]}"
        pids = {event["pid"] for event in events}
        assert len(pids) >= 2, (
            f"trace spans only {len(pids)} process(es); expected server + clients"
        )

    print(f"obs smoke OK: armed serve-many ({N_CLIENTS} clients x {NUM_FRAMES} "
          f"frames) bit-identical to disarmed in-process run; "
          f"{len(artifacts)} artifacts merged; {len(events)} trace events "
          f"across {len(pids)} processes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
