"""Tests for Algorithm 1 (student training) and the distill config."""

import numpy as np
import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.distill.trainer import StudentTrainer
from repro.models.student import StudentNet
from repro.segmentation.metrics import mean_iou
from repro.video.generator import SyntheticVideo, VideoConfig


@pytest.fixture
def frame_and_label():
    video = SyntheticVideo(VideoConfig(seed=9, height=32, width=48,
                                       num_objects=2, class_pool=(1,)))
    frame, label = next(iter(video.frames(1)))
    return frame, label


class TestDistillConfig:
    def test_paper_defaults(self):
        cfg = DistillConfig()
        assert cfg.threshold == 0.8
        assert cfg.max_updates == 8
        assert cfg.min_stride == 8
        assert cfg.max_stride == 64
        assert cfg.mode is DistillMode.PARTIAL
        assert cfg.lr == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"max_updates": -1},
        {"min_stride": 0},
        {"min_stride": 10, "max_stride": 5},
        {"lr": 0.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DistillConfig(**kwargs)

    def test_frozen_dataclass(self):
        cfg = DistillConfig()
        with pytest.raises(Exception):
            cfg.threshold = 0.5


class TestStudentTrainer:
    def test_partial_mode_freezes_front(self):
        student = StudentNet(width=0.25)
        trainer = StudentTrainer(student, DistillConfig(mode=DistillMode.PARTIAL))
        assert 0 < trainer.trainable_fraction < 0.5
        assert student.in1.weight.frozen

    def test_full_mode_trains_everything(self):
        student = StudentNet(width=0.25)
        trainer = StudentTrainer(student, DistillConfig(mode=DistillMode.FULL))
        assert trainer.trainable_fraction == 1.0
        assert not student.in1.weight.frozen

    def test_training_improves_metric(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(max_updates=20, threshold=0.95)
        )
        result = trainer.train(frame, label)
        assert result.metric >= result.initial_metric
        assert result.steps > 0

    def test_skips_training_above_threshold(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        # Threshold below the untrained metric: loop must not run.
        trainer = StudentTrainer(student, DistillConfig(threshold=0.01))
        before = student.state_dict()
        result = trainer.train(frame, label)
        assert result.steps == 0
        assert result.metric == result.initial_metric
        after = student.state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_respects_max_updates(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(max_updates=3, threshold=0.99)
        )
        result = trainer.train(frame, label)
        assert result.steps == 3
        assert len(result.losses) == 3

    def test_early_exit_on_threshold(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(max_updates=50, threshold=0.6)
        )
        result = trainer.train(frame, label)
        assert result.steps < 50
        assert result.metric > 0.6

    def test_best_checkpoint_returned(self, frame_and_label):
        # The student left in the trainer must achieve the reported
        # best metric (Algorithm 1 returns best_student).
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(max_updates=12, threshold=0.9)
        )
        result = trainer.train(frame, label)
        final = mean_iou(student.predict(frame), label)
        assert final == pytest.approx(result.metric, abs=1e-6)

    def test_max_updates_zero_never_trains(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(student, DistillConfig(max_updates=0))
        result = trainer.train(frame, label)
        assert result.steps == 0

    def test_repeated_training_converges(self, frame_and_label):
        # Distilling the same frame repeatedly must reach the threshold.
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(max_updates=8, threshold=0.8)
        )
        metrics = [trainer.train(frame, label).metric for _ in range(5)]
        assert metrics[-1] > 0.8 or metrics[-1] >= max(metrics[:-1]) - 1e-6

    def test_full_distillation_also_learns(self, frame_and_label):
        frame, label = frame_and_label
        student = StudentNet(width=0.25, seed=1)
        trainer = StudentTrainer(
            student, DistillConfig(mode=DistillMode.FULL, max_updates=20,
                                   threshold=0.95)
        )
        result = trainer.train(frame, label)
        assert result.metric > result.initial_metric

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="Algorithm 1 restores no checkpoint when no step improves: "
        "the student keeps the last iterate's weights",
    )
    def test_unimproved_call_leaves_the_weights(self):
        """A call that reports ``improved=False`` after taking steps
        should hand back the student it was given — the metric it
        reports is the pre-update one.  Today the last iterate stays."""
        from repro.nn.serialize import state_dict_digest
        from repro.runtime.session import pretrained_student
        from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

        student = pretrained_student(0.5, 0, 80, (64, 96))
        trainer = StudentTrainer(student, DistillConfig(threshold=0.999))
        video = make_category_video(CATEGORY_BY_KEY["fixed-animals"], height=64, width=96)
        for i, (frame, label) in enumerate(video.frames(20)):
            if i % 2:
                continue  # every second frame is a key frame
            before = state_dict_digest(student.state_dict())
            result = trainer.train(frame, label)
            if result.steps and not result.improved:
                assert result.metric == result.initial_metric
                assert state_dict_digest(student.state_dict()) == before
                return
        pytest.fail("no key frame trained without improving")
