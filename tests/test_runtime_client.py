"""Tests for the client (Algorithm 4): key-frame scheduling, async
update application, waiting behaviour and stats consistency."""

import numpy as np
import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet
from repro.models.teacher import OracleTeacher
from repro.network.model import constant_link
from repro.runtime.client import Client
from repro.runtime.clock import T_SI
from repro.runtime.server import Server
from repro.video.generator import SyntheticVideo, VideoConfig


def make_system(
    bandwidth=80.0,
    mode=DistillMode.PARTIAL,
    forced_delay=None,
    min_stride=4,
    max_stride=16,
    max_updates=4,
    width=0.25,
    threshold=0.8,
):
    cfg = DistillConfig(mode=mode, min_stride=min_stride,
                        max_stride=max_stride, max_updates=max_updates,
                        threshold=threshold)
    server = Server(StudentNet(width=width, seed=0), OracleTeacher(), cfg)
    client = Client(
        StudentNet(width=width, seed=0),
        server,
        cfg,
        network=constant_link(bandwidth),
        forced_delay_frames=forced_delay,
    )
    return client


def video_frames(n, seed=0, hw=(32, 48)):
    video = SyntheticVideo(VideoConfig(seed=seed, height=hw[0], width=hw[1],
                                       num_objects=2, class_pool=(1,)))
    return list(video.frames(n))


class TestKeyFrameSchedule:
    def test_first_frame_is_key(self):
        client = make_system()
        stats = client.run(video_frames(10))
        assert stats.frames[0].is_key
        assert stats.key_frames[0].index == 0

    def test_key_frames_at_least_min_stride_apart(self):
        client = make_system(min_stride=4)
        stats = client.run(video_frames(40))
        indices = [k.index for k in stats.key_frames]
        gaps = np.diff(indices)
        assert (gaps >= 4).all()

    def test_key_frames_at_most_max_stride_apart(self):
        client = make_system(max_stride=16)
        stats = client.run(video_frames(60))
        indices = [k.index for k in stats.key_frames]
        gaps = np.diff(indices)
        assert (gaps <= 16).all()

    def test_every_frame_processed_once(self):
        client = make_system()
        stats = client.run(video_frames(25))
        assert stats.num_frames == 25
        assert [f.index for f in stats.frames] == list(range(25))

    def test_key_frame_count_consistent(self):
        client = make_system()
        stats = client.run(video_frames(30))
        assert sum(f.is_key for f in stats.frames) == stats.num_key_frames


class TestTiming:
    def test_each_frame_costs_tsi(self):
        client = make_system(bandwidth=10_000.0)  # network ~free
        stats = client.run(video_frames(12))
        # With a near-infinite link the client never blocks: total time
        # is n * t_si.
        assert stats.total_time_s == pytest.approx(12 * 0.143, rel=1e-3)

    def test_slow_network_causes_waits(self):
        fast = make_system(bandwidth=10_000.0).run(video_frames(24))
        slow = make_system(bandwidth=4.0).run(video_frames(24))
        assert slow.total_time_s > fast.total_time_s

    def test_sim_time_monotone(self):
        client = make_system(bandwidth=8.0)
        stats = client.run(video_frames(20))
        times = [f.sim_time for f in stats.frames]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_fast_link_never_waits(self):
        stats = make_system(bandwidth=10_000.0).run(video_frames(24))
        assert stats.wait_time_s == 0.0

    def test_total_time_is_frames_plus_waits(self):
        # The clock moves by t_si per frame and by every wait, nothing
        # else: the wait account is the whole of the blocking.
        stats = make_system(bandwidth=2.0).run(video_frames(24))
        assert stats.wait_time_s > 0
        assert stats.total_time_s == pytest.approx(
            24 * T_SI + stats.wait_time_s, rel=1e-9
        )


class TestUpdateApplication:
    def test_update_applied_within_min_stride(self):
        client = make_system(bandwidth=80.0, min_stride=4)
        stats = client.run(video_frames(30))
        delays = [f.update_delay for f in stats.frames if f.update_delay]
        assert delays, "no updates were applied"
        assert max(delays) <= 4

    def test_update_delays_positive(self):
        stats = make_system(bandwidth=8.0).run(video_frames(30))
        delays = [f.update_delay for f in stats.frames
                  if f.update_delay is not None]
        assert delays and min(delays) >= 1

    def test_forced_delay_pins_application(self):
        client = make_system(forced_delay=2, min_stride=4)
        stats = client.run(video_frames(30))
        delays = [f.update_delay for f in stats.frames if f.update_delay]
        assert delays and all(d == 2 for d in delays)

    def test_client_student_tracks_server(self):
        client = make_system(forced_delay=1)
        frames = video_frames(20)
        client.run(frames)
        # After the run the client holds the server's latest trainable
        # weights (the last update was applied).
        server_w = client.server.student.sb5.conv1x1.weight.data
        client_w = client.student.sb5.conv1x1.weight.data
        np.testing.assert_allclose(client_w, server_w)

    def test_stride_follows_server_metric(self):
        # A reachable threshold for the small untrained test student:
        # once the metric exceeds it the stride must grow past MIN_STRIDE.
        client = make_system(forced_delay=1, min_stride=4, max_stride=16,
                             threshold=0.3, max_updates=8)
        stats = client.run(video_frames(60))
        assert max(f.stride for f in stats.frames) > 4


class TestUpdateSeries:
    """Armed telemetry records every applied update in the
    ``client.update`` series: the key frame it answered, the metric the
    server reported and the stride that metric produced."""

    @pytest.fixture
    def armed(self):
        from repro import obs

        obs.arm(source="client-test")
        yield obs
        obs.disarm()

    @staticmethod
    def _entries(obs):
        series = obs.registry().series("client.update")
        return [value for _, value in series.entries]

    def test_one_entry_per_applied_update(self, armed):
        stats = make_system().run(video_frames(40))
        entries = self._entries(armed)
        sent = [index for index, _, _ in entries]
        applied = [f for f in stats.frames if f.update_delay is not None]
        # Every update but possibly the last one in flight is applied,
        # in dispatch order, each once.
        assert len(applied) <= len(entries) <= stats.num_key_frames
        assert sent == [k.index for k in stats.key_frames][:len(sent)]

    def test_entry_metric_is_the_key_frames_metric(self, armed):
        stats = make_system().run(video_frames(40))
        metrics = {k.index: k.metric for k in stats.key_frames}
        entries = self._entries(armed)
        assert entries
        for index, metric, _ in entries:
            assert metric == metrics[index]

    def test_entry_stride_within_bounds(self, armed):
        make_system(min_stride=4, max_stride=16).run(video_frames(40))
        entries = self._entries(armed)
        assert entries
        assert all(4 <= stride <= 16 for _, _, stride in entries)

    def test_disarmed_client_records_nothing(self):
        from repro import obs

        assert not obs.enabled()
        make_system().run(video_frames(12))
        assert obs.snapshot() is None


class TestTrafficAccounting:
    def test_bytes_match_keyframe_count(self):
        client = make_system()
        stats = client.run(video_frames(30))
        sizes = client.sizes
        expected_up = stats.num_key_frames * sizes.frame_to_server
        assert stats.total_up_bytes == expected_up

    def test_partial_downlink_smaller_than_full(self):
        partial = make_system(mode=DistillMode.PARTIAL).run(video_frames(30))
        full = make_system(mode=DistillMode.FULL).run(video_frames(30))
        per_kf_partial = partial.total_down_bytes / partial.num_key_frames
        per_kf_full = full.total_down_bytes / full.num_key_frames
        assert per_kf_partial < per_kf_full


class TestStridePolicyIntegration:
    def test_fixed_policy_used(self):
        from repro.striding.baselines import FixedStride

        cfg = DistillConfig(min_stride=4, max_stride=16, max_updates=2)
        server = Server(StudentNet(width=0.25, seed=0), OracleTeacher(), cfg)
        client = Client(
            StudentNet(width=0.25, seed=0), server, cfg,
            stride_policy=FixedStride(cfg, stride=5),
            forced_delay_frames=1,
        )
        stats = client.run(video_frames(26))
        gaps = np.diff([k.index for k in stats.key_frames])
        assert (gaps == 5).all()
