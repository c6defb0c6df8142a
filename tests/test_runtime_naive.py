"""Tests for the naive-offloading baseline."""

import numpy as np
import pytest

from repro.models.teacher import OracleTeacher
from repro.network.model import constant_link
from repro.runtime.clock import T_TI
from repro.runtime.naive import T_PREP, NaiveOffloadClient
from repro.video.generator import SyntheticVideo, VideoConfig


def frames(n, seed=0):
    video = SyntheticVideo(VideoConfig(seed=seed, height=32, width=48))
    return list(video.frames(n))


class TestNaiveOffload:
    def test_every_frame_crosses_network(self):
        client = NaiveOffloadClient(OracleTeacher())
        stats = client.run(frames(10))
        assert all(f.is_key for f in stats.frames)
        assert stats.total_up_bytes == 10 * client.sizes.frame_to_server
        assert stats.total_down_bytes == 10 * client.sizes.teacher_prediction

    def test_perfect_accuracy_against_oracle(self):
        client = NaiveOffloadClient(OracleTeacher())
        stats = client.run(frames(5))
        assert stats.mean_miou == pytest.approx(1.0)

    def test_paper_throughput_at_80mbps(self):
        # Calibrated to the paper's measured 2.09 FPS.
        client = NaiveOffloadClient(OracleTeacher())
        stats = client.run(frames(10))
        assert stats.throughput_fps == pytest.approx(2.09, abs=0.15)

    def test_throughput_scales_with_bandwidth(self):
        fast = NaiveOffloadClient(
            OracleTeacher(), network=constant_link(80)
        ).run(frames(8))
        slow = NaiveOffloadClient(
            OracleTeacher(), network=constant_link(8)
        ).run(frames(8))
        # 10x narrower link: naive throughput collapses (no async buffer).
        assert slow.throughput_fps < fast.throughput_fps / 3

    def test_per_frame_time_breakdown(self):
        net = constant_link(80.0)
        client = NaiveOffloadClient(OracleTeacher(), network=net)
        stats = client.run(frames(4))
        expected = 4 * (
            T_PREP
            + net.transfer_time(client.sizes.frame_to_server)
            + T_TI
            + net.transfer_time(client.sizes.teacher_prediction)
        )
        assert stats.total_time_s == pytest.approx(expected, rel=1e-6)

    def test_no_key_frame_records(self):
        # Naive offloading has no distillation, so key_frames stays empty
        # (is_key on frames marks network crossings instead).
        stats = NaiveOffloadClient(OracleTeacher()).run(frames(5))
        assert stats.key_frames == []
        assert stats.mean_distill_steps == 0.0
