"""Hypothesis property tests for the time-varying link model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.model import NetworkModel, constant_link


def schedule_strategy():
    """Random valid piecewise-constant schedules starting at t=0."""
    return st.lists(
        st.tuples(
            st.floats(0.1, 100.0),   # segment gap
            st.floats(1.0, 500.0),   # bandwidth
        ),
        min_size=0,
        max_size=5,
    ).map(
        lambda gaps: [(0.0, 80.0)]
        + [
            (round(sum(g for g, _ in gaps[: i + 1]), 6), bw)
            for i, (_, bw) in enumerate(gaps)
        ]
    )


class TestDynamicProperties:
    @given(schedule=schedule_strategy(), nbytes=st.integers(1, 10**8),
           now=st.floats(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_transfer_time_positive_and_finite(self, schedule, nbytes, now):
        net = NetworkModel(schedule, base_latency_s=0.0)
        t = net.transfer_time(nbytes, now)
        assert np.isfinite(t)
        assert t > 0

    @given(schedule=schedule_strategy(), nbytes=st.integers(1, 10**7),
           now=st.floats(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_extreme_bandwidths(self, schedule, nbytes, now):
        # A transfer can never beat the fastest segment or lose to the
        # slowest one.
        net = NetworkModel(schedule, base_latency_s=0.0)
        bandwidths = [bw for _, bw in schedule]
        fastest = NetworkModel(((0.0, max(bandwidths)),), base_latency_s=0.0)
        slowest = NetworkModel(((0.0, min(bandwidths)),), base_latency_s=0.0)
        t = net.transfer_time(nbytes, now)
        assert fastest.transfer_time(nbytes) - 1e-9 <= t
        assert t <= slowest.transfer_time(nbytes) + 1e-9

    @given(schedule=schedule_strategy(),
           small=st.integers(1, 10**6), extra=st.integers(1, 10**6),
           now=st.floats(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_payload(self, schedule, small, extra, now):
        net = NetworkModel(schedule, base_latency_s=0.0)
        assert net.transfer_time(small + extra, now) >= net.transfer_time(
            small, now
        ) - 1e-9

    @given(nbytes=st.integers(1, 10**7), now=st.floats(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_constant_schedule_matches_static(self, nbytes, now):
        """A one-segment link is the first-order model, to the bit,
        whenever the transfer starts."""
        base, bw = 0.002, 42.0
        link = constant_link(bw)
        assert link.base_latency_s == base
        assert link.transfer_time(nbytes, now) == base + nbytes * 8 / (bw * 1e6)

    @given(schedule=schedule_strategy(), up=st.integers(1, 10**6),
           down=st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_sum_of_sequenced_legs(self, schedule, up, down):
        net = NetworkModel(schedule, base_latency_s=0.0)
        t_up = net.transfer_time(up, 0.0)
        t_down = net.transfer_time(down, t_up)
        assert net.round_trip_time(up, down, 0.0) == pytest.approx(
            t_up + t_down, rel=1e-9
        )
