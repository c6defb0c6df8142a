"""Unit tests for the overload-control primitives (ISSUE 6).

:class:`TokenBucket` and :class:`LoadTracker` are pure deterministic
functions of the tick / sweep traces they are fed, so everything here
runs without a server process.  The load-bearing properties:

* determinism — identical traces give identical decisions;
* tokens never go negative, refusals spend nothing;
* retry hints are always >= 1 and honest (waiting them out admits);
* the load level and both degradation maps are *monotone* in a
  pointwise-heavier trace — more load can shrink serve budgets and
  stretch strides, never the reverse;
* at ``metric_floor`` the Algorithm-2 stride ratio is exactly
  ``1 + level/max_level`` (the stride-escalation identity the server's
  graduated degradation is built on);
* seeded storm plans are reproducible across calls and distinct
  across seeds.
"""

import random

import pytest

from repro.serving.overload import (
    LoadTracker,
    OverloadConfig,
    OverloadController,
    TokenBucket,
    metric_floor,
    serve_budget,
)
from repro.serving.storms import STORM_NAMES, storm_plan
from repro.striding.adaptive import next_stride


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


class TestLoadTracker:
    def test_idle_stays_level_zero(self):
        tracker = LoadTracker(high_water=2.0)
        for _ in range(100):
            assert tracker.observe(0) == 0
        assert tracker.level == 0 and tracker.peak_level == 0

    def test_sustained_load_escalates_and_decays(self):
        tracker = LoadTracker(high_water=2.0, alpha=0.2, max_level=4)
        for _ in range(200):
            tracker.observe(20)
        assert tracker.level == 4
        assert tracker.peak_level == 4
        for _ in range(200):
            tracker.observe(0)
        assert tracker.level == 0
        assert tracker.peak_level == 4  # peak is a high-water mark

    def test_level_clamped_to_max(self):
        tracker = LoadTracker(high_water=0.5, alpha=1.0, max_level=3)
        tracker.observe(10_000)
        assert tracker.level == 3

    def test_deterministic_on_identical_traces(self):
        rng = random.Random(11)
        trace = [rng.randrange(0, 12) for _ in range(400)]
        ewmas = []
        for _ in range(2):
            tracker = LoadTracker(high_water=2.0, alpha=0.1)
            levels = [tracker.observe(n) for n in trace]
            ewmas.append((levels, tracker.ewma))
        assert ewmas[0] == ewmas[1]

    def test_level_monotone_in_pointwise_heavier_trace(self):
        # A trace that is >= another trace at every sweep can never
        # produce a lower level at any sweep — the guarantee that makes
        # "more load => longer strides" an actual escalation.
        rng = random.Random(42)
        light = [rng.randrange(0, 8) for _ in range(300)]
        heavy = [n + rng.randrange(0, 5) for n in light]
        a = LoadTracker(high_water=1.5, alpha=0.1)
        b = LoadTracker(high_water=1.5, alpha=0.1)
        for lo, hi in zip(light, heavy):
            assert b.observe(hi) >= a.observe(lo)

    def test_negative_pending_raises(self):
        with pytest.raises(ValueError):
            LoadTracker(high_water=1.0).observe(-1)

    @pytest.mark.parametrize("kwargs", [
        {"high_water": 0.0},
        {"high_water": -1.0},
        {"high_water": 1.0, "alpha": 0.0},
        {"high_water": 1.0, "alpha": 1.5},
        {"high_water": 1.0, "max_level": 0},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            LoadTracker(**kwargs)


class TestDegradationMaps:
    def test_serve_budget_monotone_and_bounded(self):
        for max_updates in (1, 4, 16, 100):
            budgets = [serve_budget(max_updates, lvl) for lvl in range(8)]
            assert budgets[0] == max_updates
            assert all(b >= 1 for b in budgets)
            assert budgets == sorted(budgets, reverse=True)

    def test_metric_floor_monotone_in_level(self):
        floors = [metric_floor(0.7, lvl, 4) for lvl in range(5)]
        assert floors[0] == 0.0
        assert floors == sorted(floors)
        assert floors[-1] == pytest.approx(1.0)

    def test_metric_floor_stride_ratio_identity(self):
        # At the floored metric, Algorithm 2's ratio is exactly
        # 1 + level/max_level: level 0 leaves strides alone, full level
        # doubles them every key frame.
        threshold, max_level = 0.7, 4
        for level in range(1, max_level + 1):
            floor = metric_floor(threshold, level, max_level)
            stride = next_stride(4.0, floor, threshold,
                                 min_stride=1, max_stride=1000)
            assert stride / 4.0 == pytest.approx(1.0 + level / max_level)

    def test_stride_escalation_monotone_in_load(self):
        # End-to-end monotonicity: heavier load -> higher level ->
        # higher floored metric -> longer next stride (until clamp).
        threshold = 0.7
        strides = [
            next_stride(4.0, metric_floor(threshold, lvl, 4), threshold,
                        min_stride=1, max_stride=1000)
            for lvl in range(1, 5)
        ]
        assert strides == sorted(strides)
        assert len(set(strides)) == len(strides)


class TestOverloadController:
    def test_defaults_are_inert(self):
        ctl = OverloadController(OverloadConfig())
        assert ctl.admit() is None  # no bucket configured
        assert ctl.degraded_budget(4) is None
        assert ctl.degraded_metric(0.31, 0.7) == 0.31
        for _ in range(50):
            ctl.observe_sweep(100)
        # Load tracking runs, but without degrade=True it changes nothing.
        assert ctl.level > 0
        assert ctl.degraded_budget(4) is None
        assert ctl.degraded_metric(0.31, 0.7) == 0.31

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

    def test_degrade_floors_metric_and_caps_budget(self):
        ctl = OverloadController(
            OverloadConfig(degrade=True, high_water=1.0,
                           ewma_alpha=1.0, max_level=4)
        )
        assert ctl.degraded_budget(8) is None  # level 0: pristine
        ctl.observe_sweep(2)  # alpha=1.0 -> ewma jumps straight to 2
        assert ctl.level == 2
        assert ctl.degraded_budget(8) == serve_budget(8, 2)
        floored = ctl.degraded_metric(0.2, 0.7)
        assert floored == pytest.approx(metric_floor(0.7, 2, 4))
        # A metric already above the floor passes through untouched.
        assert ctl.degraded_metric(0.999, 0.7) == 0.999

    def test_a_runtime_going_to_sleep_has_no_load(self):
        """A loop that sleeps when idle runs no empty sweeps for the
        EWMA to decay over: going idle zeroes it, and the next burst
        starts from level 0."""
        ctl = OverloadController(
            OverloadConfig(degrade=True, high_water=1.0, ewma_alpha=0.05)
        )
        for _ in range(200):
            ctl.observe_sweep(8)
        assert ctl.level == 4
        ctl.observe_sweep(0)  # one empty sweep barely moves it ...
        assert ctl.level == 4
        ctl.tracker.reset()   # ... nothing left anywhere does
        assert ctl.level == 0 and ctl.tracker.ewma == 0.0
        assert ctl.degraded_budget(8) is None

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
