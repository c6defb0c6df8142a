"""Scheduler determinism: the pool's cooperative interleaving is a pure
function of its specs.  Same seed + config ⇒ identical interleaving
trace and identical BENCH-relevant counters across two runs — including
pools mixing a forced-delay session with fast sessions, late joiners,
and slow-feed (tick_interval > 1) sessions."""

import numpy as np
import pytest

from repro.distill.config import DistillConfig
from repro.runtime.session import SessionConfig
from repro.serving.pool import SessionPool, SessionSpec
from repro.serving.scheduler import TickScheduler
from repro.video.generator import SyntheticVideo, VideoConfig

HW = (32, 48)
PRETRAIN_STEPS = 16


def make_video(seed):
    return SyntheticVideo(
        VideoConfig(
            name=f"v{seed}", seed=seed, height=HW[0], width=HW[1], num_objects=2
        )
    )


def mixed_specs():
    """A forced-delay session mixed with fast sessions, one late joiner
    and one half-rate feed."""
    base = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
    forced = SessionConfig(
        distill=DistillConfig(min_stride=4, max_stride=12, max_updates=2),
        student_width=0.25,
        pretrain_steps=PRETRAIN_STEPS,
        forced_delay_frames=2,
    )
    return [
        SessionSpec(video=make_video(1), num_frames=18, config=base),
        SessionSpec(video=make_video(2), num_frames=18, config=forced),
        SessionSpec(video=make_video(3), num_frames=12, config=base, start_tick=4),
        SessionSpec(video=make_video(4), num_frames=9, config=base, tick_interval=2),
    ]


class TestTickScheduler:
    def test_cohorts_pop_in_session_order(self):
        sched = TickScheduler()
        for idx in (3, 1, 2):
            sched.arm(0, idx)
        sched.arm(1, 0)
        tick, due = sched.next_due()
        assert (tick, due) == (0, [1, 2, 3])
        tick, due = sched.next_due()
        assert (tick, due) == (1, [0])
        assert not sched

    def test_ticks_always_advance_monotonically(self):
        sched = TickScheduler()
        rng = np.random.default_rng(0)
        for _ in range(50):
            sched.arm(int(rng.integers(0, 20)), int(rng.integers(0, 8)))
        last = -1
        while sched:
            tick, due = sched.next_due()
            assert tick > last
            assert due == sorted(due)
            last = tick

    def test_empty_scheduler_raises(self):
        with pytest.raises(IndexError):
            TickScheduler().next_due()


class TestPoolDeterminism:
    def test_two_runs_produce_identical_traces_and_counters(self):
        first = SessionPool(mixed_specs()).run()
        second = SessionPool(mixed_specs()).run()
        assert first.schedule == second.schedule
        assert first.counters == second.counters
        for a, b in zip(first.stats, second.stats):
            assert [(f.index, f.miou, f.sim_time) for f in a.frames] == [
                (f.index, f.miou, f.sim_time) for f in b.frames
            ]
            assert [(k.index, k.metric, k.steps) for k in a.key_frames] == [
                (k.index, k.metric, k.steps) for k in b.key_frames
            ]

    def test_schedule_covers_every_frame_exactly_once(self):
        result = SessionPool(mixed_specs()).run()
        seen = {}
        for tick, session, frame, route in result.schedule:
            assert (session, frame) not in seen
            seen[(session, frame)] = tick
        per_session = {}
        for session, frame in seen:
            per_session[session] = per_session.get(session, 0) + 1
        assert per_session == {0: 18, 1: 18, 2: 12, 3: 9}

    def test_virtual_clock_honours_start_and_interval(self):
        result = SessionPool(mixed_specs()).run()
        by_session = {}
        for tick, session, frame, _ in result.schedule:
            by_session.setdefault(session, []).append((frame, tick))
        # Late joiner: first frame at its start tick.
        assert by_session[2][0] == (0, 4)
        # Half-rate feed: frames 2 ticks apart.
        ticks = [t for _, t in by_session[3]]
        assert ticks == list(range(0, 18, 2))
        # Fast sessions: one frame per tick from tick 0.
        assert [t for _, t in by_session[0]] == list(range(18))

    def test_forced_delay_session_behaves_as_alone(self):
        """The mixed pool's forced-delay session reports exactly the
        pinned update delays it would report in a solo run."""
        result = SessionPool(mixed_specs()).run()
        forced_stats = result.stats[1]
        delays = [f.update_delay for f in forced_stats.frames if f.update_delay]
        assert delays and all(d == 2 for d in delays)
