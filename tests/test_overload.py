"""Unit tests for the overload-control primitives.

:class:`TokenBucket` is a pure deterministic function of the tick trace
it is fed, so everything here runs without a server process.  The
load-bearing properties:

* determinism — identical traces give identical decisions;
* tokens never go negative, refusals spend nothing;
* retry hints are always >= 1 and honest (waiting them out admits);
* seeded storm plans are reproducible across calls and distinct
  across seeds.
"""

import random

import pytest

from repro.serving.overload import (
    OverloadConfig,
    OverloadController,
    TokenBucket,
)
from repro.serving.storms import STORM_NAMES, storm_plan


class TestTokenBucket:
    def test_burst_then_refuse(self):
        bucket = TokenBucket(rate=0.5, capacity=2.0)
        assert bucket.try_take(0) is None
        assert bucket.try_take(0) is None
        hint = bucket.try_take(0)
        assert hint is not None and hint >= 1

    def test_refill_admits_again(self):
        bucket = TokenBucket(rate=0.5, capacity=1.0)
        assert bucket.try_take(0) is None
        hint = bucket.try_take(0)
        assert hint == 2  # ceil(1 / 0.5) ticks to a whole token
        assert bucket.try_take(2) is None

    def test_hint_is_honest(self):
        # Waiting out the hint always yields an admission, for any
        # drained state the bucket can reach.
        rng = random.Random(1234)
        bucket = TokenBucket(rate=0.3, capacity=4.0)
        now = 0
        for _ in range(500):
            now += rng.choice((0, 0, 1, 3))
            hint = bucket.try_take(now)
            if hint is not None:
                assert hint >= 1
                assert bucket.try_take(now + hint) is None
                now += hint

    def test_tokens_never_negative(self):
        rng = random.Random(99)
        bucket = TokenBucket(rate=0.05, capacity=3.0)
        now = 0
        for _ in range(2000):
            now += rng.choice((0, 0, 0, 1, 2))
            bucket.try_take(now)
            assert 0.0 <= bucket.tokens <= bucket.capacity

    def test_refusal_spends_nothing(self):
        bucket = TokenBucket(rate=0.25, capacity=1.0)
        assert bucket.try_take(0) is None
        before = bucket.tokens
        assert bucket.try_take(0) is not None
        assert bucket.tokens == before

    def test_deterministic_on_identical_traces(self):
        rng = random.Random(7)
        trace = []
        now = 0
        for _ in range(300):
            now += rng.choice((0, 1, 1, 4))
            trace.append(now)
        runs = []
        for _ in range(2):
            bucket = TokenBucket(rate=0.2, capacity=2.5)
            runs.append([bucket.try_take(t) for t in trace])
        assert runs[0] == runs[1]

    def test_capacity_caps_refill(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0)
        bucket.try_take(0)
        bucket.try_take(1000)  # long idle gap refills to capacity, no more
        assert bucket.tokens == pytest.approx(1.0)  # 2.0 cap - 1 spent

    def test_backwards_clock_raises(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0)
        bucket.try_take(5)
        with pytest.raises(ValueError, match="backwards"):
            bucket.try_take(4)

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0, "capacity": 1.0},
        {"rate": -1.0, "capacity": 1.0},
        {"rate": 1.0, "capacity": 0.5},
        {"rate": 1.0, "capacity": 2.0, "initial": -0.5},
        {"rate": 1.0, "capacity": 2.0, "initial": 3.0},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**kwargs)


class TestOverloadController:
    def test_defaults_are_inert(self):
        ctl = OverloadController(OverloadConfig())
        assert ctl.admit() is None  # no bucket configured

    def test_admission_bucket_refuses_and_counts(self):
        ctl = OverloadController(
            OverloadConfig(admission_rate=0.5, admission_burst=2.0)
        )
        assert ctl.admit() is None
        assert ctl.admit() is None
        hint = ctl.admit()
        assert hint is not None and hint >= 1
        assert ctl.refusals["overloaded"] == 1
        # Served messages advance the tick clock and refill the bucket.
        for _ in range(hint):
            ctl.served()
        assert ctl.admit() is None

    def test_capacity_hint_counts(self):
        ctl = OverloadController(OverloadConfig(capacity_retry_after=17))
        assert ctl.capacity_hint() == 17
        assert ctl.refusals["capacity"] == 1

    def test_config_validation(self):
        for kwargs in (
            {"admission_rate": 0.0},
            {"admission_rate": -2.0},
            {"capacity_retry_after": 0},
            {"recv_budget_s": 0.0},
            {"reap_idle_s": -1.0},
        ):
            with pytest.raises(ValueError):
                OverloadConfig(**kwargs)


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTickCalibration:
    """The retry_after unit fix: ticks are *produced* by the bucket but
    *consumed* as wall-clock backoff, so the controller measures
    seconds-per-tick and converts at REJECT-encode time."""

    def test_tick_s_converges_to_the_serve_gap(self):
        clock = FakeClock()
        ctl = OverloadController(OverloadConfig(), clock=clock)
        assert ctl.tick_s is None  # nothing measured yet
        for _ in range(60):
            ctl.served()
            clock.advance(0.02)
        assert ctl.tick_s == pytest.approx(0.02, rel=1e-6)

    def test_idle_stretch_is_clamped_not_poisonous(self):
        clock = FakeClock()
        ctl = OverloadController(OverloadConfig(), clock=clock)
        ctl.served()
        clock.advance(0.01)
        ctl.served()
        assert ctl.tick_s == pytest.approx(0.01)
        clock.advance(3600.0)  # one quiet hour
        ctl.served()
        # The gap enters as the 1 s clamp, not 3600 s.
        assert ctl.tick_s <= 0.01 + OverloadController.TICK_EWMA_ALPHA * 1.0

    def test_backwards_clock_gap_is_ignored(self):
        clock = FakeClock()
        ctl = OverloadController(OverloadConfig(), clock=clock)
        ctl.served()
        clock.advance(0.01)
        ctl.served()
        before = ctl.tick_s
        clock.advance(-5.0)
        ctl.served()
        assert ctl.tick_s == before

    def test_ticks_to_ms_uses_fallback_then_measurement(self):
        clock = FakeClock()
        ctl = OverloadController(OverloadConfig(), clock=clock)
        nominal = OverloadController.FALLBACK_TICK_S
        assert ctl.ticks_to_ms(64) == round(64 * nominal * 1000)
        assert ctl.ticks_to_ms(0) == 1  # a REJECT hint is never zero
        for _ in range(80):
            ctl.served()
            clock.advance(0.1)
        assert ctl.ticks_to_ms(10) == pytest.approx(1000, abs=5)

    def test_hint_is_honest_in_wall_clock(self):
        """Sleep the advertised milliseconds while the server keeps
        serving at its measured rate and the re-ADMIT must succeed:
        hint_ms / (ms per tick) ticks elapse during the sleep, which is
        exactly the tick-denominated refill the bucket asked for."""
        dt = 0.02
        clock = FakeClock()
        ctl = OverloadController(
            OverloadConfig(admission_rate=0.25, admission_burst=2.0),
            clock=clock,
        )
        # Calibrate: serve steadily at dt seconds per message.
        for _ in range(100):
            ctl.served()
            clock.advance(dt)
        # Drain the burst, then get refused with a hint.
        while ctl.admit() is None:
            pass
        hint_ticks = ctl.bucket.try_take(ctl.tick)
        hint_ms = ctl.ticks_to_ms(hint_ticks)
        # A client sleeping hint_ms while the server serves one message
        # every dt seconds sees this many ticks pass:
        for _ in range(round(hint_ms / 1000.0 / dt)):
            ctl.served()
            clock.advance(dt)
        assert ctl.admit() is None


class TestStormPlans:
    @pytest.mark.parametrize("name", STORM_NAMES)
    def test_plans_deterministic_per_seed(self, name):
        assert storm_plan(name, seed=7) == storm_plan(name, seed=7)
        assert storm_plan(name, seed=7) != storm_plan(name, seed=8)

    @pytest.mark.parametrize("name", STORM_NAMES)
    def test_plans_are_well_formed(self, name):
        plan = storm_plan(name, seed=0, frames=3)
        assert plan.name == name
        assert plan.jobs  # every storm carries honest traffic
        assert plan.n_clients == (
            len(plan.jobs) + len(plan.loris_slots) + len(plan.ghost_slots)
        )
        for delay, config, hw, video_key, num_frames, label in plan.jobs:
            assert delay >= 0.0
            assert num_frames >= 1
            assert label

    def test_unknown_storm_raises(self):
        with pytest.raises(KeyError):
            storm_plan("category-5-hurricane")
