"""Integration tests: full system runs reproducing the paper's headline
claims at reduced scale."""

import numpy as np
import pytest

from repro import (
    DistillConfig,
    DistillMode,
    LVS_CATEGORIES,
    SessionConfig,
    make_category_video,
    run_naive,
    run_shadowtutor,
    run_wild,
)
from repro.runtime.session import pretrained_student

FRAMES = 150
CFG = SessionConfig(student_width=0.35, pretrain_steps=40)


@pytest.fixture(scope="module")
def easy_video():
    return make_category_video(LVS_CATEGORIES[1], height=48, width=64)


@pytest.fixture(scope="module")
def shadow_stats(easy_video):
    return run_shadowtutor(easy_video, FRAMES, CFG)


@pytest.fixture(scope="module")
def naive_stats(easy_video):
    return run_naive(easy_video, FRAMES, CFG)


class TestHeadlineClaims:
    def test_throughput_improvement_over_3x(self, shadow_stats, naive_stats):
        # Abstract: "throughput of the system is improved by over three times".
        assert shadow_stats.throughput_fps > 3 * naive_stats.throughput_fps

    def test_network_transfer_reduced_over_90pct(self, shadow_stats, naive_stats):
        # Abstract: "network data transfer is reduced by 95% on average".
        assert shadow_stats.total_bytes < 0.1 * naive_stats.total_bytes

    def test_key_frames_sparse(self, shadow_stats):
        assert shadow_stats.key_frame_ratio < 0.2

    def test_accuracy_far_above_wild(self, easy_video, shadow_stats):
        wild = run_wild(easy_video, FRAMES, CFG)
        assert shadow_stats.mean_miou > wild.mean_miou + 0.2

    def test_naive_accuracy_perfect(self, naive_stats):
        # Accuracy is measured against the teacher, so naive scores 1.0.
        assert naive_stats.mean_miou == pytest.approx(1.0)

    def test_traffic_within_analytic_bounds(self, shadow_stats):
        from repro.analytic.bounds import traffic_lower_bound, traffic_upper_bound
        from repro.analytic.planner import paper_params

        p = paper_params()
        assert (
            traffic_lower_bound(p) * 0.9
            <= shadow_stats.network_traffic_mbps
            <= traffic_upper_bound(p) * 1.1
        )

    def test_throughput_within_analytic_bounds(self, shadow_stats):
        from repro.analytic.bounds import (
            throughput_lower_bound,
            throughput_upper_bound,
        )
        from repro.analytic.planner import paper_params

        p = paper_params()
        assert (
            throughput_lower_bound(p) * 0.95
            <= shadow_stats.throughput_fps
            <= throughput_upper_bound(p) * 1.05
        )


class TestDeterminism:
    def test_same_config_same_results(self, easy_video):
        a = run_shadowtutor(easy_video, 60, CFG)
        b = run_shadowtutor(easy_video, 60, CFG)
        assert a.total_time_s == b.total_time_s
        assert [k.index for k in a.key_frames] == [k.index for k in b.key_frames]
        assert a.mean_miou == pytest.approx(b.mean_miou)


class TestPretrainedStudentCache:
    def test_cache_returns_equal_weights(self):
        a = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        b = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_cache_instances_independent(self):
        a = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        b = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        a.out3.weight.data += 1.0
        assert not np.allclose(a.out3.weight.data, b.out3.weight.data)

    def test_loaded_students_never_alias_the_cache(self):
        """Pooled-serving regression: a session mutating its student's
        weights *in place* must leave the shared checkpoint — and every
        concurrently loaded session — untouched."""
        from repro.runtime.session import _PRETRAINED_CACHE

        key_args = dict(width=0.35, steps=5, frame_hw=(48, 64))
        mutated = pretrained_student(**key_args)
        cache_entry = _PRETRAINED_CACHE[(0.35, 0, 5, (48, 64))]
        snapshot = {k: v.copy() for k, v in cache_entry.items()}

        for _, param in mutated.named_parameters():
            param.data[...] = 123.0

        for name, value in cache_entry.items():
            np.testing.assert_array_equal(
                value, snapshot[name],
                err_msg=f"cache entry {name} was corrupted by a session",
            )
        fresh = pretrained_student(**key_args)
        for name, value in fresh.state_dict().items():
            np.testing.assert_array_equal(value, snapshot[name], err_msg=name)

    def test_sibling_sessions_share_no_arrays(self):
        """Two sessions loaded from one checkpoint share zero storage."""
        a = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        b = pretrained_student(width=0.35, steps=5, frame_hw=(48, 64))
        a_arrays = {name: arr for name, arr in a.state_dict().items()}
        for name, arr in b.state_dict().items():
            assert not np.shares_memory(arr, a_arrays[name]), name


class TestModesCompared:
    def test_partial_no_worse_traffic_than_full(self, easy_video):
        partial = run_shadowtutor(
            easy_video, 100,
            SessionConfig(distill=DistillConfig(mode=DistillMode.PARTIAL),
                          student_width=0.35, pretrain_steps=40),
        )
        full = run_shadowtutor(
            easy_video, 100,
            SessionConfig(distill=DistillConfig(mode=DistillMode.FULL),
                          student_width=0.35, pretrain_steps=40),
        )
        per_kf_partial = partial.total_bytes / partial.num_key_frames
        per_kf_full = full.total_bytes / full.num_key_frames
        assert per_kf_partial < per_kf_full

    def test_forced_delay_degrades_gracefully(self, easy_video):
        p1 = run_shadowtutor(
            easy_video, 100,
            SessionConfig(student_width=0.35, pretrain_steps=40,
                          forced_delay_frames=1),
        )
        p8 = run_shadowtutor(
            easy_video, 100,
            SessionConfig(student_width=0.35, pretrain_steps=40,
                          forced_delay_frames=8),
        )
        # Stale weights may hurt, but only mildly (temporal coherence).
        assert p8.mean_miou > p1.mean_miou - 0.15
