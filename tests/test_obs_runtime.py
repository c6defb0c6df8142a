"""Telemetry + runtime-report integration tests (ISSUE 8).

Covers the report's abnormal exit paths (typed ``exit_reason`` on
crash, idle timeout, and a killed server surfacing the ``report-lost``
marker instead of ``None``), the armed bit-identity invariant over a
real multi-process deployment, and the metrics snapshot riding the
report pipe over the socket transport.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.distill.config import DistillConfig
from repro.runtime.session import SessionConfig, run_shadowtutor
from repro.serving.runtime import (
    REPORT_LOST,
    REPORT_TIMEOUT_S,
    run_churn_processes,
    start_server,
)
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_HW = (32, 48)


def _config():
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=10,
    )


def _video():
    return make_category_video(
        CATEGORY_BY_KEY["fixed-people"], height=_HW[0], width=_HW[1]
    )


@pytest.fixture(autouse=True)
def _disarmed():
    """Arming is process-global; never leak it across tests."""
    obs.disarm()
    yield
    obs.disarm()


class TestArmedServing:
    """Armed telemetry must observe the deployment, never perturb it."""

    N = 2
    FRAMES = 8

    def _serve(self, transport):
        """One server and ``N`` client processes, armed by whatever
        ``REPRO_OBS`` the test set: the one way to arm them."""
        handle = start_server(
            transport=transport, n_clients=self.N, idle_timeout_s=60,
        )
        try:
            jobs = [
                (0.0, _config(), _HW, "fixed-people", self.FRAMES, f"s{i}")
                for i in range(self.N)
            ]
            stats = run_churn_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        return stats, handle.runtime_report

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_report_metrics_populated_over_both_transports(
        self, transport, monkeypatch
    ):
        monkeypatch.setenv(obs.ENV_FEATURES, "metrics,trace")
        _, report = self._serve(transport)
        assert report is not None
        assert report["exit_reason"] == "quiesced"
        snapshot = report["metrics"]
        assert snapshot["source"] == "server"
        counters = snapshot["counters"]
        assert counters["serve.key_frames"] >= 1
        assert counters["admission.accepted"] == self.N
        assert snapshot["histograms"]["sweep.duration_s"]["count"] >= 1
        assert snapshot["histograms"]["serve.serve_s"]["count"] >= 1
        # Memo outcomes partition the key-frame count, armed mirror and
        # report dict alike.
        assert (
            counters["serve.memo.hits"] + counters["serve.memo.misses"]
            == counters["serve.key_frames"]
            == report["serve_counters"]["key_frames"]
        )
        assert counters["serve.memo.hits"] == report["serve_counters"]["hits"]
        # Per-session serve timeline rode the report too.
        assert snapshot["series"]["session.serve"]
        # Tracing was armed: the report carries server spans.
        assert any(e["name"] == "serve" for e in report["trace"])

    def test_armed_run_bit_identical_to_disarmed(self, monkeypatch):
        reference = run_shadowtutor(
            _video(), self.FRAMES, _config(), label="ref"
        )
        monkeypatch.setenv(obs.ENV_FEATURES, "metrics,trace,engine")
        armed_stats, report = self._serve("shm")
        assert report["exit_reason"] == "quiesced"
        # The invariant: telemetry records wall-clock but never feeds
        # computation, so fully-armed sessions — server and clients
        # alike — replay bit for bit.
        for got in armed_stats:
            assert got.signature(include_label=False) == reference.signature(
                include_label=False
            )

    def test_artifacts_fold_into_merged_metrics_and_one_trace(
        self, monkeypatch, tmp_path
    ):
        """``REPRO_OBS`` arms the whole process tree: sessions still
        replay bit for bit, the server and every client drop an
        ``obs-*.json`` artifact, and ``scripts/obs_report.py`` folds
        them into a merged metrics table and a Chrome trace whose
        ``serve`` spans come from more than one process."""
        reference = run_shadowtutor(
            _video(), self.FRAMES, _config(), label="ref"
        )
        monkeypatch.setenv(obs.ENV_FEATURES, "metrics,trace,engine")
        monkeypatch.setenv(obs.ENV_DIR, str(tmp_path))
        stats, _ = self._serve("shm")
        for got in stats:
            assert got.signature(include_label=False) == reference.signature(
                include_label=False
            )
        assert len(list(tmp_path.glob("obs-*.json"))) >= 1 + self.N

        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "obs_report.py"
        run = subprocess.run(
            [sys.executable, str(script), "--dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "merged metrics" in run.stdout
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "name", "ts", "pid"} <= set(event), event
        assert "serve" in {event["name"] for event in events}
        assert len({event["pid"] for event in events}) >= 2

    def test_disarmed_report_still_carries_serve_accounting(self):
        _, report = self._serve("shm")
        # Disarmed, the runtime's local always-on registry still counts
        # key frames — the report shape is arming-independent.
        snapshot = report["metrics"]
        assert snapshot["counters"]["serve.key_frames"] >= 1
        assert "serve.memo.hits" not in snapshot["counters"]
        assert report["serve_counters"]["hits"] >= 1
        assert "trace" not in report


class TestAbnormalExitReports:
    def test_idle_timeout_reaches_report(self):
        handle = start_server(
            transport="shm", n_clients=1, idle_timeout_s=0.3,
        )
        handle.process.join(timeout=30)
        handle.close()
        assert handle.process.exitcode != 0
        report = handle.runtime_report
        assert report["exit_reason"] == "idle-timeout"
        # The runtime existed: its accounting flushed despite the crash.
        assert report["metrics"]["source"] == "server"

    def test_construction_error_reaches_report_typed(self):
        # max_sessions=0 is rejected inside the server process, before
        # a runtime exists; the report must still arrive, typed.
        handle = start_server(
            transport="shm", n_clients=1, idle_timeout_s=60, max_sessions=0,
        )
        handle.process.join(timeout=30)
        handle.close()
        assert handle.process.exitcode != 0
        report = handle.runtime_report
        assert report["exit_reason"] == "error:ValueError"
        assert report["frames_served"] == {}

    def test_killed_server_surfaces_report_lost_marker(self):
        handle = start_server(
            transport="shm", n_clients=1, idle_timeout_s=60,
        )
        # SIGKILL: no finally runs in the child, so no report can ever
        # arrive — close() must synthesise the typed marker, fast: the
        # pipe's last writer died, so the drain reads EOF at once rather
        # than wait out its allowance.
        handle.process.kill()
        handle.process.join(timeout=30)
        started = time.monotonic()
        handle.close()
        assert time.monotonic() - started < REPORT_TIMEOUT_S
        report = handle.runtime_report
        assert report is not None, "close() left runtime_report = None"
        assert report["exit_reason"] == REPORT_LOST
        assert report["report_lost"] is True
