"""Tests for the shape-criteria validator."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.figures import BandwidthSweepResult
from repro.experiments.tables import TableResult
from repro.experiments.validate import (
    Criterion,
    render_report,
    validate_figure4,
    validate_table2,
    validate_table3,
    validate_table4,
    validate_table5,
    validate_table6,
)


def table2(partial_steps=3.8, full_steps=4.4):
    return TableResult(
        name="table2", paper={},
        rows={
            "partial": {"step_latency_ms": 13.0, "mean_steps": partial_steps},
            "full": {"step_latency_ms": 18.0, "mean_steps": full_steps},
        },
    )


def table3(partial=6.5, full=6.0, naive=2.1):
    rows = {
        key: {"partial_fps": partial, "full_fps": full, "naive_fps": naive}
        for key in ("fixed-people", "fixed-animals")
    }
    return TableResult(name="table3", paper={}, rows=rows)


def table4(p=3.032, f=4.483, n=3.516):
    return TableResult(
        name="table4", paper={},
        rows={
            "partial": {"total_mb": p},
            "full": {"total_mb": f},
            "naive": {"total_mb": n},
        },
    )


class TestTable2Criteria:
    def test_paper_shape_passes(self):
        assert all(c.passed for c in validate_table2(table2()))

    def test_inverted_steps_fails(self):
        checks = validate_table2(table2(partial_steps=6.0, full_steps=4.0))
        assert not all(c.passed for c in checks)


class TestTable3Criteria:
    def test_paper_shape_passes(self):
        assert all(c.passed for c in validate_table3(table3()))

    def test_weak_speedup_fails(self):
        checks = validate_table3(table3(partial=4.0, naive=2.0))
        names = {c.name: c.passed for c in checks}
        assert not names["ShadowTutor > 3x naive"]

    def test_full_faster_than_partial_fails(self):
        checks = validate_table3(table3(partial=5.0, full=6.0))
        names = {c.name: c.passed for c in checks}
        assert not names["partial >= full throughput"]

    def test_uncalibrated_naive_fails(self):
        checks = validate_table3(table3(partial=9.5, full=9.0, naive=2.5))
        assert [c.name for c in checks if not c.passed] == [
            "naive calibrated to the paper's 2.09 FPS"
        ]


class TestTable4Criteria:
    def test_paper_values_pass(self):
        assert all(c.passed for c in validate_table4(table4()))

    def test_wrong_ordering_fails(self):
        checks = validate_table4(table4(p=5.0))
        assert not all(c.passed for c in checks)

    def test_wrong_reduction_fails(self):
        # Inside every per-row tolerance would be 3.032 / 3.516; a
        # naive round trip of 3.3 MB keeps the ordering, not the 13.77 %.
        names = {c.name: c.passed for c in validate_table4(table4(n=3.3))}
        assert names["per-key-frame ordering partial < naive < full"]
        assert not names["partial cuts naive's round trip by ~13.77% (section 6.2)"]


class TestTable56Criteria:
    def _t5(self):
        rows = {
            "fixed-people": {"partial_kf_pct": 2.0, "partial_traffic_mbps": 3.0,
                             "naive_traffic_mbps": 58.0},
            "fixed-animals": {"partial_kf_pct": 5.0, "partial_traffic_mbps": 7.0,
                              "naive_traffic_mbps": 58.0},
            "fixed-street": {"partial_kf_pct": 9.0, "partial_traffic_mbps": 14.0,
                             "naive_traffic_mbps": 58.0},
            "moving-people": {"partial_kf_pct": 3.0, "partial_traffic_mbps": 5.0,
                              "naive_traffic_mbps": 58.0},
            "moving-street": {"partial_kf_pct": 11.0, "partial_traffic_mbps": 17.0,
                              "naive_traffic_mbps": 58.0},
        }
        return TableResult(name="table5", paper={}, rows=rows)

    def test_table5_paper_shape_passes(self):
        assert all(c.passed for c in validate_table5(self._t5()))

    def test_table5_traffic_outside_the_analytic_band_fails(self):
        result = self._t5()
        result.rows["moving-street"]["partial_traffic_mbps"] = 30.0
        failed = [c.name for c in validate_table5(result) if not c.passed]
        assert failed == [
            "every category inside the analytic traffic band (Eqs. 8 / 12)"
        ]

    def test_table5_relaxed_mode_drops_strict_checks(self):
        strict = validate_table5(self._t5(), strict=True)
        relaxed = validate_table5(self._t5(), strict=False)
        assert len(relaxed) < len(strict)

    def _t6(self, wild=17.0, p1=72.0, p8=71.0, f1=69.0):
        rows = {
            "fixed-people": {
                "wild_miou_pct": wild, "p1_miou_pct": p1, "p8_miou_pct": p8,
                "f1_miou_pct": f1, "naive_miou_pct": 100.0,
            }
        }
        return TableResult(name="table6", paper={}, rows=rows)

    def test_table6_paper_shape_passes(self):
        assert all(c.passed for c in validate_table6(self._t6()))

    def test_table6_catches_useless_distillation(self):
        checks = validate_table6(self._t6(p1=30.0, p8=29.0))
        assert not all(c.passed for c in checks)


class TestFigure4Criteria:
    def _sweep(self, softball=(4.4, 7.0, 7.0), southbeach=(2.5, 7.0, 7.0)):
        return BandwidthSweepResult(
            bandwidths_mbps=[8.0, 40.0, 80.0],
            series={
                "softball": list(softball), "southbeach": list(southbeach),
                "naive": [0.4, 1.5, 2.1],
            },
            bounds=[(2.0, 7.0), (5.0, 7.0), (5.0, 7.0)],
            keyframe_pct={"softball": 2.0, "southbeach": 11.0},
            paper={"videos": ["softball", "southbeach"]},
        )

    def test_paper_shape_passes(self):
        checks = validate_figure4(self._sweep())
        assert len(checks) == 5 and all(c.passed for c in checks)

    def test_barely_above_naive_at_the_narrowest_link_fails(self):
        checks = validate_figure4(self._sweep(southbeach=(0.5, 7.0, 7.0)))
        failed = {c.name for c in checks if not c.passed}
        assert "far above naive at the narrowest link (> 1.5x)" in failed

    def test_key_frame_heavy_video_holding_up_better_fails(self):
        checks = validate_figure4(self._sweep(softball=(2.1, 7.0, 7.0)))
        assert [c.name for c in checks if not c.passed] == [
            "fewer key frames hold throughput better at low bandwidth"
        ]


class TestBenchmarksStateNoCriterionOfTheirOwn:
    """The paper-table benchmarks assert ``validate_*`` and sink the
    report; a run of one of them prints it and leaves the tracked
    ``benchmarks/results.txt`` (the record of a whole run) alone."""

    def test_partial_run_reports_and_keeps_the_record(self):
        repo = pathlib.Path(__file__).resolve().parents[1]
        record = repo / "benchmarks" / "results.txt"
        before = record.read_bytes()
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
             "benchmarks/test_table4_data_per_keyframe.py"],
            cwd=repo, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "[PASS] matches paper exactly (configuration-level)" in run.stdout
        assert "shape criteria: 3/3 passed" in run.stdout
        assert record.read_bytes() == before


class TestReport:
    def test_report_counts(self):
        report = render_report({
            "t2": [Criterion("a", True), Criterion("b", False, "why")],
        })
        assert "[PASS] a" in report
        assert "[FAIL] b  (why)" in report
        assert "1/2 passed" in report
