"""Tests for the simulated clock and the paper's component latencies."""

import pytest

from repro.runtime.clock import (
    T_SD_FULL,
    T_SD_PARTIAL,
    T_SI,
    T_TI,
    SimClock,
    serve_time,
    t_sd,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance_to(3.0)
        assert clock.now == 10.0


class TestPaperLatencies:
    def test_paper_defaults(self):
        assert T_SI == pytest.approx(0.143)
        assert T_SD_PARTIAL == pytest.approx(0.013)
        assert T_SD_FULL == pytest.approx(0.018)
        assert T_TI == pytest.approx(0.044)

    def test_t_sd_selector(self):
        assert t_sd(True) == T_SD_PARTIAL
        assert t_sd(False) == T_SD_FULL

    @pytest.mark.parametrize("partial", [True, False])
    def test_serve_time_is_teacher_plus_steps(self, partial):
        assert serve_time(0, partial) == T_TI
        assert serve_time(8, partial) == T_TI + 8 * t_sd(partial)
