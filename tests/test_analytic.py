"""Tests for the analytic bounds (Eqs. 2-15) and the section 5.3 planner.

The paper's own numbers are the oracle here: with the measured
latencies (t_si=0.143, t_sd=0.013, t_ti=0.044, t_net=0.303) the bounds
must evaluate to traffic in [2.53, 21.2] Mbps, a 6.99 FPS throughput
ceiling, and MAX_UPDATES=8 from the planner.
"""

import pytest

from repro.analytic.bounds import (
    SystemParams,
    tc_bounds,
    throughput_lower_bound,
    throughput_upper_bound,
    total_time,
    traffic_lower_bound,
    traffic_upper_bound,
)
from repro.analytic.planner import choose_max_updates, paper_params


@pytest.fixture(scope="module")
def paper():
    return paper_params()  # defaults: partial, 80 Mbps, MAX_UPDATES=8


class TestPaperParams:
    def test_tnet_matches_section53(self, paper):
        assert paper.t_net == pytest.approx(0.303, abs=0.01)

    def test_snet_is_partial_roundtrip(self, paper):
        assert paper.s_net_bytes / 1_000_000 == pytest.approx(3.032, abs=2e-3)

    def test_latencies(self, paper):
        assert paper.t_si == pytest.approx(0.143)
        assert paper.t_sd == pytest.approx(0.013)
        assert paper.t_ti == pytest.approx(0.044)


class TestBoundsFormulae:
    def test_tc_bounds_ordering(self, paper):
        lo, hi = tc_bounds(paper)
        assert lo <= hi
        assert lo == pytest.approx(max(8 * 0.143, paper.t_net + 0.044))

    def test_total_time_formula(self, paper):
        t = total_time(paper, n=100, k=5, d=20, tc=1.0)
        expected = (100 - 5 * 8) * 0.143 + 20 * 0.013 + 5 * 1.0
        assert t == pytest.approx(expected)

    def test_total_time_rejects_impossible_k(self, paper):
        with pytest.raises(ValueError):
            total_time(paper, n=10, k=5, d=0, tc=1.0)

    def test_traffic_bounds_match_paper(self, paper):
        # Section 6.2: bounds are 2.53 and 21.2 Mbps.
        assert traffic_lower_bound(paper) == pytest.approx(2.53, abs=0.1)
        assert traffic_upper_bound(paper) == pytest.approx(21.2, abs=0.5)

    def test_throughput_upper_matches_paper(self, paper):
        # Section 5.3: maximum throughput 6.99 FPS.
        assert throughput_upper_bound(paper) == pytest.approx(6.99, abs=0.05)

    def test_throughput_lower_above_5fps(self, paper):
        # Section 5.3: MAX_UPDATES=8 keeps the lower bound above 5 FPS.
        assert throughput_lower_bound(paper) > 5.0

    def test_bounds_ordering(self, paper):
        assert traffic_lower_bound(paper) < traffic_upper_bound(paper)
        assert throughput_lower_bound(paper) < throughput_upper_bound(paper)

    def test_lower_bandwidth_lowers_throughput_lower_bound(self):
        from repro.network.model import constant_link

        fast = paper_params(network=constant_link(80))
        slow = paper_params(network=constant_link(8))
        assert throughput_lower_bound(slow) < throughput_lower_bound(fast)

    def test_more_updates_lower_throughput_floor(self):
        few = paper_params(max_updates=2)
        many = paper_params(max_updates=16)
        assert throughput_lower_bound(many) < throughput_lower_bound(few)

    def test_full_distillation_params(self):
        p = paper_params(partial=False)
        assert p.t_sd == pytest.approx(0.018)
        assert p.s_net_bytes / 1_000_000 == pytest.approx(4.483, abs=2e-3)


class TestSystemParamsValidation:
    def test_invalid_strides(self):
        with pytest.raises(ValueError):
            SystemParams(t_si=0.1, t_sd=0.01, t_ti=0.04, t_net=0.3,
                         s_net_bytes=1000, min_stride=10, max_stride=5,
                         max_updates=8)

    def test_negative_latency(self):
        with pytest.raises(ValueError):
            SystemParams(t_si=-0.1, t_sd=0.01, t_ti=0.04, t_net=0.3,
                         s_net_bytes=1000, min_stride=8, max_stride=64,
                         max_updates=8)


class TestPlanner:
    def test_paper_choice_is_eight(self):
        # Section 5.3: largest MAX_UPDATES with FPS gap <= 2 is 8.
        assert choose_max_updates(max_fps_gap=2.0) == 8

    def test_tighter_gap_fewer_updates(self):
        loose = choose_max_updates(max_fps_gap=2.0)
        tight = choose_max_updates(max_fps_gap=1.8)
        assert tight < loose

    def test_impossible_gap_raises(self):
        with pytest.raises(ValueError):
            choose_max_updates(max_fps_gap=1e-9)
