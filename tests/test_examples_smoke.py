"""Smoke tests: every example script must run end-to-end at a tiny
scale.  Guards the examples against API drift."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    """Execute an example as a subprocess, returning its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--frames", "40", "--width", "0.25")
        assert "ShadowTutor" in out
        assert "throughput improvement" in out

    def test_autonomous_driving(self):
        out = run_example("autonomous_driving.py", "--frames", "30")
        assert "ShadowTutor FPS" in out
        # Four bandwidth rows printed.
        assert out.count("Mb |") == 4

    def test_cctv_monitor(self):
        out = run_example("cctv_monitor.py", "--frames", "40")
        assert "recorded 28 FPS" in out
        assert "real-time 7 FPS" in out

    def test_two_process_demo(self):
        """One client: the classic two-process deployment."""
        out = run_example("two_process_demo.py", "--frames", "30",
                          "--clients", "1")
        assert "serving 1 client process(es)" in out
        assert "exited with code 0" in out

    def test_two_process_demo_multiplexed(self):
        out = run_example("two_process_demo.py", "--frames", "16",
                          "--transport", "shm", "--clients", "2")
        assert "multiplexing server" in out
        assert "2 client processes" in out
        assert "exited with code 0" in out

    def test_two_process_demo_late_joiners(self):
        out = run_example("two_process_demo.py", "--frames", "12",
                          "--transport", "shm", "--clients", "2",
                          "--late-joiners", "1")
        assert "ADMITted over the wire" in out
        assert "1 joining late" in out
        assert "exited with code 0" in out

    def test_sequence_extension(self):
        out = run_example("sequence_extension.py", "--windows", "200")
        assert "tutored accuracy" in out
        assert "wild accuracy" in out

    def test_inspect_run(self, tmp_path):
        out = run_example("inspect_run.py", "--frames", "40",
                          "--out", str(tmp_path))
        assert "contact sheet" in out
        assert "stride over the stream" in out
        assert "residual error" in out
        assert (tmp_path / "moving-animals.ppm").exists()
