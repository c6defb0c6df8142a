"""Property-test harness for the multi-session serving runtime.

The contract under test: a pooled run of N sessions produces
**bit-identical** ``RunStats`` — per-frame records, metrics, key-frame
decisions, timing, traffic — to N independent single-session runs,
across randomized configurations (widths, strides, forced delays,
distill modes, noisy teachers) and across every amortisation switch of
the pool.  This pins the batching/sharing layer to exactly the
semantics the paper's tables are computed from.
"""

import numpy as np
import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.runtime.session import SessionConfig, run_shadowtutor
from repro.serving.pool import SessionPool, SessionSpec
from repro.video.generator import SyntheticVideo, VideoConfig

HW = (32, 48)
PRETRAIN_STEPS = 16


def signature(stats, include_label=True):
    """Everything RunStats observes (one shared definition — see
    RunStats.signature)."""
    return stats.signature(include_label=include_label)


def make_video(seed, num_objects=2):
    return SyntheticVideo(
        VideoConfig(
            name=f"v{seed}", seed=seed, height=HW[0], width=HW[1],
            num_objects=num_objects, class_pool=(1, 3),
        )
    )


def random_session(rng, index):
    """One randomized (video, config) pair, rebuildable on demand."""
    mode = DistillMode.PARTIAL if rng.random() < 0.7 else DistillMode.FULL
    min_stride = int(rng.choice([2, 3, 4]))
    max_stride = int(rng.choice([8, 12, 16]))
    distill = DistillConfig(
        mode=mode,
        min_stride=min_stride,
        max_stride=max_stride,
        max_updates=int(rng.choice([2, 4])),
        threshold=float(rng.choice([0.5, 0.8])),
    )
    forced = rng.choice([None, 1, 2]) if rng.random() < 0.5 else None
    config = SessionConfig(
        distill=distill,
        student_width=float(rng.choice([0.25, 0.4])),
        pretrain_steps=PRETRAIN_STEPS,
        forced_delay_frames=None if forced is None else int(forced),
        teacher_boundary_noise=float(rng.choice([0.0, 0.2])),
    )
    video_seed = int(rng.integers(0, 10))
    return video_seed, config, f"rand{index}"


class TestPooledEqualsSingle:
    def test_pool_of_eight_randomized_sessions_is_bit_identical(self):
        """The acceptance property: N = 8 randomized sessions, pooled,
        == the same 8 sessions run independently."""
        rng = np.random.default_rng(2020)
        params = [random_session(rng, i) for i in range(8)]

        specs = [
            SessionSpec(
                video=make_video(seed), num_frames=24, config=config, label=label
            )
            for seed, config, label in params
        ]
        pooled = SessionPool(specs).run()

        singles = [
            run_shadowtutor(make_video(seed), 24, config, label=label)
            for seed, config, label in params
        ]
        for pool_stats, single_stats in zip(pooled.stats, singles):
            assert signature(pool_stats) == signature(single_stats)

    def test_identical_sessions_share_and_stay_identical(self):
        """The fan-out scenario: N viewers of one stream.  Everything is
        shared (predict dedup + memoised distillation) and every session
        still reports exactly the single-session numbers."""
        config = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
        specs = [
            SessionSpec(video=make_video(5), num_frames=20, config=config)
            for _ in range(4)
        ]
        pooled = SessionPool(specs).run()
        single = run_shadowtutor(make_video(5), 20, config)

        reference = signature(single, include_label=False)
        for stats in pooled.stats:
            assert signature(stats, include_label=False) == reference
        counters = pooled.counters
        assert counters["deduped_frames"] > 0, "duplicate frames must be shared"
        assert counters["distill_hits"] > 0, "identical training must be shared"
        # Shared training really ran once per distinct key frame.
        assert counters["distill_misses"] == pooled.stats[0].num_key_frames

    def test_key_frames_of_identical_sessions_share_one_predict(self, monkeypatch):
        """Key frames ride the tick's predictor call: a weight-identical
        cohort at a key frame predicts once, every session still
        reports the single-session numbers, and the route counters
        reconcile with the schedule and the stats."""
        from repro.models.student import StudentNet

        device_predicts = []
        original = StudentNet.predict
        monkeypatch.setattr(
            StudentNet, "predict",
            lambda self, frame: (device_predicts.append(1), original(self, frame))[1],
        )
        config = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
        specs = [
            SessionSpec(video=make_video(5), num_frames=20, config=config)
            for _ in range(4)
        ]
        pooled = SessionPool(specs).run()
        pooled_predicts = len(device_predicts)
        singles = [run_shadowtutor(make_video(5), 20, config) for _ in range(4)]

        for stats, single in zip(pooled.stats, singles):
            assert signature(stats, include_label=False) == signature(
                single, include_label=False
            )
        c = pooled.counters
        assert c["predicts"] == 80 == (
            c["single_frames"] + c["deduped_frames"] + c["key_frames"]
        )
        assert c["key_frames"] == sum(s.num_key_frames for s in pooled.stats) > 0
        routes = [route for *_, route in pooled.schedule]
        assert {r: routes.count(r) for r in ("single", "dedup", "key")} == {
            "single": c["single_frames"], "dedup": c["deduped_frames"],
            "key": c["key_frames"],
        }
        # four viewers of one stream: one real predict per tick, key
        # frames included (they used to cost four)
        assert pooled_predicts == c["ticks"] == 20
        assert len(device_predicts) - pooled_predicts == 80

    def test_run_shadowtutor_is_the_n1_pool_case(self):
        """N = 1 keeps the classic path: no digest bookkeeping, no
        shared caches, identical output object shape."""
        config = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
        stats = run_shadowtutor(make_video(3), 15, config)
        assert stats.num_frames == 15
        assert stats.frames[0].is_key
        pool = SessionPool(
            [SessionSpec(video=make_video(3), num_frames=15, config=config)]
        )
        result = pool.run()
        assert signature(result.stats[0], include_label=False) == signature(
            stats, include_label=False
        )
        assert result.counters["sessions"] == 1
        assert "distill_hits" not in result.counters  # no sharing machinery


class TestPoolSpecValidation:
    def test_shared_video_instance_rejected(self):
        video = make_video(0)
        with pytest.raises(ValueError, match="share one video"):
            SessionPool(
                [
                    SessionSpec(video=video, num_frames=4),
                    SessionSpec(video=video, num_frames=4),
                ]
            )

    def test_shared_stateful_components_rejected(self):
        """A stride policy or teacher shared between specs would be
        consumed interleaved, silently breaking bit-identity."""
        from repro.models.teacher import OracleTeacher
        from repro.striding.adaptive import AdaptiveStride

        policy = AdaptiveStride(DistillConfig())
        with pytest.raises(ValueError, match="share one stride_policy"):
            SessionPool(
                [
                    SessionSpec(video=make_video(1), num_frames=4, stride_policy=policy),
                    SessionSpec(video=make_video(2), num_frames=4, stride_policy=policy),
                ]
            )
        teacher = OracleTeacher(0.1)
        with pytest.raises(ValueError, match="share one teacher"):
            SessionPool(
                [
                    SessionSpec(video=make_video(1), num_frames=4, teacher=teacher),
                    SessionSpec(video=make_video(2), num_frames=4, teacher=teacher),
                ]
            )

    def test_short_source_stops_gracefully(self):
        """A source yielding fewer than num_frames truncates the run —
        the classic client-loop behaviour — instead of raising."""
        video = make_video(6)
        video.reset()
        frames = list(video.frames(5))
        config = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
        specs = [
            SessionSpec(frames=frames, num_frames=9, config=config),
            SessionSpec(video=make_video(7), num_frames=5, config=config),
        ]
        result = SessionPool(specs).run()
        assert result.stats[0].num_frames == 5
        assert result.stats[1].num_frames == 5

    def test_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            SessionSpec(video=None, frames=None, num_frames=4)
        video = make_video(0)
        with pytest.raises(ValueError, match="exactly one"):
            SessionSpec(video=video, frames=[(None, None)], num_frames=4)

    def test_prerendered_frames_are_shareable(self):
        video = make_video(4)
        video.reset()
        frames = list(video.frames(10))
        config = SessionConfig(student_width=0.25, pretrain_steps=PRETRAIN_STEPS)
        specs = [
            SessionSpec(frames=frames, config=config) for _ in range(3)
        ]
        result = SessionPool(specs).run()
        assert all(s.num_frames == 10 for s in result.stats)
        first = signature(result.stats[0], include_label=False)
        assert all(
            signature(s, include_label=False) == first for s in result.stats[1:]
        )
