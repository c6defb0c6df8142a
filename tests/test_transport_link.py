"""Tests for trace-driven link shaping.

Traces validate and compile into ``DynamicNetworkModel`` schedules;
the generator is deterministic per seed; the bundled scenarios exist.
"""

import pytest

from repro.network.dynamic import DynamicNetworkModel
from repro.transport.link import (
    BUNDLED_TRACES,
    LinkTrace,
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
        assert BUNDLED_TRACES["lte-drive"].samples == lte_trace().samples
        assert BUNDLED_TRACES["wifi-cafe"].samples == wifi_trace().samples
        # The LTE scenario is genuinely harsher than the Wi-Fi one.
        lte, wifi = (
            min(bw for _, bw in BUNDLED_TRACES[name].samples)
            for name in ("lte-drive", "wifi-cafe")
        )
        assert lte < wifi
