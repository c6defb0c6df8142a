"""Tests for the message catalogue and the steady link."""

import numpy as np
import pytest

from repro.network.messages import (
    MB,
    MessageSizes,
    hd_frame_bytes,
    student_payload_bytes,
)
from repro.network.model import NetworkModel, constant_link


class TestMessageSizes:
    def test_paper_sizes_match_table4(self):
        sizes = MessageSizes.paper()
        assert sizes.frame_to_server / MB == pytest.approx(2.637, abs=1e-3)
        assert sizes.student_diff_partial / MB == pytest.approx(0.395, abs=1e-3)
        assert sizes.student_full / MB == pytest.approx(1.846, abs=1e-3)
        assert sizes.teacher_prediction / MB == pytest.approx(0.879, abs=1e-3)

    def test_keyframe_totals_match_table4(self):
        sizes = MessageSizes.paper()
        assert sizes.keyframe_total(partial=True) / MB == pytest.approx(3.032, abs=2e-3)
        assert sizes.keyframe_total(partial=False) / MB == pytest.approx(4.483, abs=2e-3)
        assert sizes.naive_total() / MB == pytest.approx(3.516, abs=2e-3)

    def test_partial_reduces_downlink(self):
        sizes = MessageSizes.paper()
        assert sizes.student_diff_partial < sizes.teacher_prediction
        assert sizes.teacher_prediction < sizes.student_full

    def test_hd_frame_bytes(self):
        assert hd_frame_bytes() == 720 * 1280 * 3
        assert hd_frame_bytes(100, 100, 1) == 10000

    def test_student_payload_float32(self):
        assert student_payload_bytes(1000) == 4000

    def test_from_student_consistency(self):
        sizes = MessageSizes.from_student(total_params=480_000,
                                          trainable_params=100_000)
        assert sizes.student_full == 480_000 * 4
        assert sizes.student_diff_partial == 100_000 * 4
        assert sizes.frame_to_server == hd_frame_bytes()


class TestNetworkModel:
    def test_default_is_the_testbed_link(self):
        assert NetworkModel() == constant_link(80.0)
        assert NetworkModel().base_latency_s == 0.002

    def test_transfer_time_formula(self):
        net = NetworkModel(((0.0, 80.0),), base_latency_s=0.0)
        assert net.transfer_time(10**6) == pytest.approx(8 / 80.0)

    def test_paper_keyframe_rtt(self):
        # 3.032 MB at 80 Mbps ~ 0.303 s + small propagation (section 5.3).
        net = constant_link(80.0)
        sizes = MessageSizes.paper()
        t = net.round_trip_time(sizes.frame_to_server, sizes.student_diff_partial)
        assert t == pytest.approx(0.303, abs=0.02)

    def test_lower_bandwidth_slower(self):
        fast = constant_link(80.0)
        slow = constant_link(8.0)
        assert slow.transfer_time(10**6) > 9 * fast.transfer_time(10**6) * 0.9

    def test_base_latency_added(self):
        net = NetworkModel(((0.0, 80.0),), base_latency_s=0.05)
        assert net.transfer_time(0) == pytest.approx(0.05)

    def test_start_time_is_ignored(self):
        """A one-segment link answers the same whenever the transfer
        starts."""
        net = constant_link(8.0)
        assert net.transfer_time(10**6, 37.5) == net.transfer_time(10**6)

    @pytest.mark.parametrize("kwargs", [
        {"schedule": ((0.0, 0.0),)},
        {"schedule": ((0.0, -1.0),)},
        {"base_latency_s": -0.1},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkModel(**kwargs)
