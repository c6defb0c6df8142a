"""Tests for the time-varying link and the client's robustness to
in-run bandwidth drops (paper section 6.4)."""

import pytest

from repro.network.model import NetworkModel, constant_link, step_drop


class TestScheduleValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel([])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            NetworkModel([(1.0, 80.0)])

    @pytest.mark.parametrize("schedule", [
        [(0.0, 80.0), (5.0, 40.0), (5.0, 20.0)],
        [(0.0, 10.0), (2.0, 5.0), (1.0, 8.0)],
    ], ids=["repeated", "out-of-order"])
    def test_times_strictly_increasing(self, schedule):
        with pytest.raises(ValueError):
            NetworkModel(schedule)

    def test_positive_bandwidths(self):
        with pytest.raises(ValueError):
            NetworkModel([(0.0, 0.0)])

    def test_negative_base_latency_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel([(0.0, 80.0), (5.0, 8.0)], base_latency_s=-0.001)
        with pytest.raises(ValueError):
            NetworkModel(((0.0, 80.0),), base_latency_s=-0.001)

    def test_step_drop_recovery_order(self):
        with pytest.raises(ValueError):
            step_drop(80, 8, drop_at_s=10.0, recover_at_s=5.0)


class TestBandwidthLookup:
    def test_segments(self):
        net = NetworkModel([(0.0, 80.0), (10.0, 8.0), (20.0, 40.0)])
        assert net.bandwidth_at(0.0) == 80.0
        assert net.bandwidth_at(9.99) == 80.0
        assert net.bandwidth_at(10.0) == 8.0
        assert net.bandwidth_at(25.0) == 40.0
        assert net.bandwidth_at(99.0) == 40.0  # the last segment lasts


class TestTransferTime:
    def test_constant_segment_matches_static(self):
        net = NetworkModel([(0.0, 80.0)], base_latency_s=0.0)
        nbytes = 3_000_000
        assert net.transfer_time(nbytes, 0.0) == nbytes * 8 / (80.0 * 1e6)
        assert net.schedule == constant_link(80.0).schedule

    def test_transfer_spanning_a_drop_takes_longer(self):
        # 10 Mbit payload; 1 s at 80 Mbps sends 80 Mbit... use a drop
        # midway: 24 Mbit at 80 Mbps from t=0, drop to 8 Mbps at t=0.1:
        # 8 Mbit sent in the first 0.1 s, remaining 16 Mbit at 8 Mbps
        # takes 2 s -> total 2.1 s.
        net = NetworkModel([(0.0, 80.0), (0.1, 8.0)], base_latency_s=0.0)
        t = net.transfer_time(3_000_000, 0.0)  # 24 Mbit
        assert t == pytest.approx(0.1 + 16 / 8, rel=1e-6)

    def test_transfer_spanning_a_drop_is_bounded_by_its_rates(self):
        # Slower than at the first rate, faster than at the dropped one.
        net = NetworkModel([(0.0, 10.0), (5.0, 2.0)], base_latency_s=0.004)
        nbytes = 10_000_000  # 80 Mb: 8 s at 10 Mbps, 40 s at 2 Mbps
        duration = net.transfer_time(nbytes, now=0.0)
        assert 8.0 < duration < 40.0 + net.base_latency_s

    def test_transfer_after_recovery_fast_again(self):
        net = step_drop(80, 8, drop_at_s=1.0, recover_at_s=2.0)
        before = net.transfer_time(1_000_000, 0.0)
        after = net.transfer_time(1_000_000, 3.0)
        assert after == pytest.approx(before)

    def test_round_trip_sequencing(self):
        net = NetworkModel(((0.0, 80.0),), base_latency_s=0.0)
        rt = net.round_trip_time(1_000_000, 500_000, now=0.0)
        assert rt == pytest.approx((8 + 4) / 80.0)


class TestClientRidesThroughDip:
    def _run(self, network):
        from repro.distill.config import DistillConfig
        from repro.models.student import StudentNet
        from repro.models.teacher import OracleTeacher
        from repro.runtime.client import Client
        from repro.runtime.server import Server
        from repro.video.generator import SyntheticVideo, VideoConfig

        cfg = DistillConfig(min_stride=8, max_stride=32, max_updates=2)
        server = Server(StudentNet(width=0.25, seed=0), OracleTeacher(), cfg)
        client = Client(StudentNet(width=0.25, seed=0), server, cfg,
                        network=network)
        video = SyntheticVideo(VideoConfig(seed=1, height=32, width=48,
                                           num_objects=2, class_pool=(1,)))
        return client.run(video.frames(60))

    def test_short_dip_hidden_by_async(self):
        # A 3-second dip to 30 Mbps: the key-frame round trip (~0.86 s)
        # still fits inside MIN_STRIDE x t_si (~1.14 s), so asynchronous
        # inference hides the dip almost completely.
        steady = self._run(constant_link(80.0))
        dipped = self._run(step_drop(80, 30, drop_at_s=2.0, recover_at_s=5.0))
        assert dipped.throughput_fps > 0.95 * steady.throughput_fps

    def test_deep_dip_costs_wait_time(self):
        # Dropping to 1 Mbps makes key-frame round trips exceed the
        # MIN_STRIDE inference budget: the client must block.
        dipped = self._run(step_drop(80, 1, drop_at_s=1.0))
        steady = self._run(constant_link(80.0))
        assert dipped.wait_time_s > steady.wait_time_s
        assert dipped.throughput_fps < steady.throughput_fps

    def test_naive_suffers_more_than_shadowtutor(self):
        # A sustained congestion event (drop with no recovery) exposes
        # both schemes to the same conditions for the rest of the run:
        # naive's relative throughput loss must be the larger one
        # (section 6.4's conclusion).
        from repro.models.teacher import OracleTeacher
        from repro.runtime.naive import NaiveOffloadClient
        from repro.video.generator import SyntheticVideo, VideoConfig

        dip = step_drop(80, 8, drop_at_s=1.0)
        shadow = self._run(dip)
        video = SyntheticVideo(VideoConfig(seed=1, height=32, width=48))
        naive = NaiveOffloadClient(OracleTeacher(), network=dip).run(
            video.frames(60)
        )
        shadow_steady = self._run(constant_link(80.0))
        naive_steady = NaiveOffloadClient(
            OracleTeacher(), network=constant_link(80.0)
        ).run(SyntheticVideo(VideoConfig(seed=1, height=32, width=48)).frames(60))
        shadow_loss = 1 - shadow.throughput_fps / shadow_steady.throughput_fps
        naive_loss = 1 - naive.throughput_fps / naive_steady.throughput_fps
        assert shadow_loss < naive_loss
