"""Tests for the trace-driven links.

The generator is deterministic per seed and keeps to its bounds; the
bundled scenarios are instances of it.
"""

import dataclasses

import pytest

from repro.network.model import (
    BUNDLED_TRACES,
    NetworkModel,
    generate_trace,
    lte_trace,
    wifi_trace,
)


class TestTraces:
    def test_generator_deterministic_per_seed(self):
        a = generate_trace(seed=5)
        b = generate_trace(seed=5)
        c = generate_trace(seed=6)
        assert a.schedule == b.schedule
        assert a.schedule != c.schedule

    def test_generator_respects_bounds(self):
        link = generate_trace(
            duration_s=400.0, floor_mbps=5.0, ceil_mbps=50.0,
            dip_probability=0.2, dip_mbps=6.0, seed=1,
        )
        bws = [bw for _, bw in link.schedule]
        assert min(bws) >= 5.0
        assert max(bws) <= 50.0

    def test_bundled_traces(self):
        assert set(BUNDLED_TRACES) == {"lte-drive", "wifi-cafe"}
        for link in BUNDLED_TRACES.values():
            assert isinstance(link, NetworkModel)
        assert BUNDLED_TRACES["lte-drive"].schedule == lte_trace().schedule
        assert BUNDLED_TRACES["wifi-cafe"].schedule == wifi_trace().schedule
        # The LTE scenario is genuinely harsher than the Wi-Fi one.
        lte, wifi = (
            min(bw for _, bw in BUNDLED_TRACES[name].schedule)
            for name in ("lte-drive", "wifi-cafe")
        )
        assert lte < wifi

    def test_bundled_traces_cannot_be_changed(self):
        # Every run of a scenario shares one link object.
        link = BUNDLED_TRACES["lte-drive"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.base_latency_s = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.schedule = ((0.0, 1.0),)
