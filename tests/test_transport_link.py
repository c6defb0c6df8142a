"""Tests for trace-driven link shaping.

Traces validate and compile into ``DynamicNetworkModel`` schedules;
the generator is deterministic per seed; the bundled scenarios exist;
asymmetric pairs compile into a direction-aware model the client's
timing consumes.
"""

import pytest

from repro.network.dynamic import DynamicNetworkModel
from repro.transport.link import (
    BUNDLED_TRACES,
    LinkTrace,
    bundled_trace,
    generate_trace,
    lte_trace,
    wifi_trace,
)


class TestLinkTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkTrace("empty", ())
        with pytest.raises(ValueError):
            LinkTrace("late-start", ((1.0, 10.0),))
        with pytest.raises(ValueError):
            LinkTrace("unsorted", ((0.0, 10.0), (2.0, 5.0), (1.0, 8.0)))
        with pytest.raises(ValueError):
            LinkTrace("nonpositive", ((0.0, 0.0),))

    def test_bandwidth_lookup(self):
        trace = LinkTrace("t", ((0.0, 10.0), (5.0, 2.0), (10.0, 40.0)))
        assert trace.bandwidth_at(0.0) == 10.0
        assert trace.bandwidth_at(4.9) == 10.0
        assert trace.bandwidth_at(5.0) == 2.0
        assert trace.bandwidth_at(99.0) == 40.0  # clamped past the end
        assert trace.min_mbps == 2.0
        assert trace.duration_s == 10.0

    def test_compiles_to_dynamic_network_model(self):
        trace = LinkTrace("t", ((0.0, 10.0), (5.0, 2.0)), base_latency_s=0.004)
        model = trace.to_network_model()
        assert isinstance(model, DynamicNetworkModel)
        assert model.base_latency_s == 0.004
        for t in (0.0, 3.0, 5.0, 7.5):
            assert model.bandwidth_at(t) == trace.bandwidth_at(t)
        # A transfer spanning the drop takes longer than at the first
        # rate and shorter than at the dropped rate.
        nbytes = 10_000_000  # 80 Mb: 8 s at 10 Mbps, 40 s at 2 Mbps
        duration = model.transfer_time(nbytes, now=0.0)
        assert 8.0 < duration < 40.0 + model.base_latency_s

    def test_generator_deterministic_per_seed(self):
        a = generate_trace("g", seed=5)
        b = generate_trace("g", seed=5)
        c = generate_trace("g", seed=6)
        assert a.samples == b.samples
        assert a.samples != c.samples

    def test_generator_respects_bounds(self):
        trace = generate_trace(
            "bounded", duration_s=400.0, floor_mbps=5.0, ceil_mbps=50.0,
            dip_probability=0.2, dip_mbps=6.0, seed=1,
        )
        bws = [bw for _, bw in trace.samples]
        assert min(bws) >= 5.0
        assert max(bws) <= 50.0

    def test_bundled_traces(self):
        assert set(BUNDLED_TRACES) == {"lte-drive", "wifi-cafe"}
        for trace in BUNDLED_TRACES.values():
            trace.to_network_model()  # compiles cleanly
        assert bundled_trace("lte-drive").samples == lte_trace().samples
        assert bundled_trace("wifi-cafe").samples == wifi_trace().samples
        with pytest.raises(KeyError, match="lte-drive"):
            bundled_trace("5g-lab")
        # The LTE scenario is genuinely harsher than the Wi-Fi one.
        assert bundled_trace("lte-drive").min_mbps < bundled_trace("wifi-cafe").min_mbps


class TestAsymmetricPairs:
    """Per-direction traces (ISSUE 4): uplink and downlink differ."""

    def test_bundled_pair_compiles_and_is_asymmetric(self):
        from repro.transport.link import (
            BUNDLED_TRACE_PAIRS,
            bundled_trace_pair,
            lte_updown_pair,
        )

        assert set(BUNDLED_TRACE_PAIRS) == {"lte-updown"}
        pair = bundled_trace_pair("lte-updown")
        assert pair.up.samples == lte_updown_pair().up.samples
        with pytest.raises(KeyError, match="lte-updown"):
            bundled_trace_pair("starlink")
        # The scenario's point: uplink is the slow direction.
        assert pair.up.mean_mbps < pair.down.mean_mbps

    def test_compiled_model_is_direction_aware(self):
        from repro.transport.link import LinkTracePair

        pair = LinkTracePair(
            "t",
            up=LinkTrace("up", ((0.0, 8.0),), base_latency_s=0.0),
            down=LinkTrace("down", ((0.0, 80.0),), base_latency_s=0.0),
        )
        model = pair.to_network_model()
        nbytes = 1_000_000
        up_s = model.for_direction("up").transfer_time(nbytes, 0.0)
        down_s = model.for_direction("down").transfer_time(nbytes, 0.0)
        assert up_s == pytest.approx(10 * down_s)
        # Direction-oblivious consumers get the conservative uplink.
        assert model.transfer_time(nbytes, 0.0) == up_s
        assert model.round_trip_time(nbytes, nbytes) == pytest.approx(up_s + down_s)
        with pytest.raises(ValueError, match="direction"):
            model.for_direction("sideways")

    def test_client_timing_consumes_the_asymmetry(self):
        """A simulated run over the pair differs from its mirror: the
        binding direction matters, so both traces are really consumed."""
        from repro.distill.config import DistillConfig
        from repro.runtime.session import SessionConfig, run_shadowtutor
        from repro.transport.link import LinkTracePair
        from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

        pair = LinkTracePair(
            "t",
            up=LinkTrace("up", ((0.0, 4.0),), base_latency_s=0.0),
            down=LinkTrace("down", ((0.0, 80.0),), base_latency_s=0.0),
        )

        def run(network):
            video = make_category_video(
                CATEGORY_BY_KEY["fixed-people"], height=32, width=48
            )
            config = SessionConfig(
                distill=DistillConfig(max_updates=4, threshold=0.7,
                                      min_stride=4, max_stride=16),
                student_width=0.25, pretrain_steps=10, network=network,
            )
            return run_shadowtutor(video, 16, config, label="t")

        slow_up = run(pair.to_network_model())
        slow_down = run(pair.swapped().to_network_model())
        assert slow_up.total_time_s != slow_down.total_time_s
        # Identical serving decisions either way — only timing moves.
        assert slow_up.num_key_frames >= 1
