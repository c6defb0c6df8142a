"""Tests for the post-run analysis utilities and the ASCII plotter."""

import numpy as np
import pytest

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.traces import (
    delay_histogram,
    keyframe_intervals,
    stride_timeline,
    summarize_run,
)
from repro.runtime.stats import FrameRecord, KeyFrameRecord, RunStats


def demo_stats():
    stats = RunStats(label="demo")
    for i in range(40):
        stats.frames.append(
            FrameRecord(
                index=i,
                is_key=i % 10 == 0,
                miou=0.5 + 0.01 * i,
                sim_time=0.143 * (i + 1),
                stride=8.0 + (i // 10),
                update_delay=3 if i % 10 == 4 else None,
            )
        )
    for i in range(0, 40, 10):
        stats.key_frames.append(
            KeyFrameRecord(index=i, metric=0.8, initial_metric=0.6, steps=4,
                           up_bytes=2_000_000, down_bytes=400_000)
        )
    stats.total_time_s = 0.143 * 40
    stats.total_up_bytes = 8_000_000
    stats.total_down_bytes = 1_600_000
    return stats


class TestTimelines:
    def test_stride_timeline_shapes(self):
        idx, strides = stride_timeline(demo_stats())
        assert idx.shape == strides.shape == (40,)
        assert strides[0] == 8.0

    def test_keyframe_intervals(self):
        gaps = keyframe_intervals(demo_stats())
        np.testing.assert_array_equal(gaps, [10, 10, 10])

    def test_keyframe_intervals_single(self):
        stats = RunStats()
        stats.key_frames.append(
            KeyFrameRecord(index=0, metric=1, initial_metric=1, steps=0,
                           up_bytes=0, down_bytes=0)
        )
        assert keyframe_intervals(stats).size == 0

    def test_delay_histogram(self):
        histo = delay_histogram(demo_stats())
        assert histo == {3: 4}


class TestSummary:
    def test_contains_headline_numbers(self):
        text = summarize_run(demo_stats())
        assert "demo" in text
        assert "FPS" in text
        assert "key-frame gaps" in text
        assert "update delays" in text

    def test_handles_empty_run(self):
        text = summarize_run(RunStats())
        assert "(unnamed)" in text


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        out = ascii_plot([0, 1, 2], {"a": [1, 2, 3], "b": [3, 2, 1]},
                         width=20, height=6, title="T")
        assert "T" in out
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot([0, 1], {"a": [1, 2, 3]})

    def test_empty_data(self):
        assert "(no data)" in ascii_plot([], {})

    def test_constant_series_safe(self):
        out = ascii_plot([0, 1], {"flat": [2.0, 2.0]}, width=10, height=4)
        assert "o" in out

    def test_respects_y_bounds(self):
        out = ascii_plot([0, 1], {"a": [0.5, 0.6]}, y_min=0, y_max=10,
                         width=10, height=5)
        # First rendered row label should be the max bound.
        assert "10.00" in out.splitlines()[0]
