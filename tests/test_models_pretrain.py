"""Tests for the pre-training recipes ("public education")."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine import plan_cache, training
from repro.models.pretrain import PretrainResult, generic_corpus, pretrain_student
from repro.models.student import StudentNet
from repro.nn.serialize import state_dict_digest
from repro.runtime import session
from tests.helpers import interpreted


class TestGenericCorpus:
    def test_yields_frame_label_pairs(self):
        corpus = generic_corpus(height=32, width=48, seed=1)
        frame, label = next(corpus)
        assert frame.shape == (3, 32, 48)
        assert label.shape == (32, 48)

    def test_deterministic_given_seed(self):
        a = generic_corpus(height=32, width=48, seed=7)
        b = generic_corpus(height=32, width=48, seed=7)
        for _ in range(6):
            fa, la = next(a)
            fb, lb = next(b)
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(la, lb)

    def test_covers_multiple_classes(self):
        corpus = generic_corpus(height=32, width=48, seed=2)
        seen = set()
        for _ in range(40):
            _, label = next(corpus)
            seen |= set(np.unique(label))
        assert len(seen) >= 4  # background + several object classes

    def test_scene_changes_between_bursts(self):
        corpus = generic_corpus(height=32, width=48, seed=3)
        frames = [next(corpus)[0] for _ in range(8)]
        # Within a 4-frame burst: coherent; across bursts: scene cut.
        within = np.abs(frames[1] - frames[0]).mean()
        across = np.abs(frames[4] - frames[3]).mean()
        assert across > within


class TestPretrainStudent:
    def test_loss_decreases(self):
        student = StudentNet(width=0.25, seed=0)
        result = pretrain_student(student, steps=30, height=32, width=48)
        assert isinstance(result, PretrainResult)
        assert result.steps == 30
        first = np.mean(result.loss_history[:5])
        last = np.mean(result.loss_history[-5:])
        assert last < first

    def test_reports_final_miou(self):
        student = StudentNet(width=0.25, seed=0)
        result = pretrain_student(student, steps=10, height=32, width=48)
        assert 0.0 <= result.final_miou <= 1.0

    def test_zero_steps_no_training(self):
        student = StudentNet(width=0.25, seed=0)
        before = {k: v.copy() for k, v in student.state_dict().items()}
        result = pretrain_student(student, steps=0, height=32, width=48)
        assert np.isnan(result.final_loss)
        after = student.state_dict()
        for k in before:
            if "running" not in k:  # eval of mIoU does not touch weights
                np.testing.assert_array_equal(before[k], after[k])


@pytest.fixture
def train_steps(monkeypatch):
    """Weak references to every train step compiled during the test."""
    refs = []
    init = training.CompiledTrainStep.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(training.CompiledTrainStep, "__init__", spy)
    return refs


class TestCompiledPretrainIsExact:
    """Pre-training rides the compiled full-mode train step; the
    interpreted loop (no plan to be had) is its reference to the last
    bit — weights, batch-norm running statistics, loss history."""

    @staticmethod
    def _pretrain(width, hw):
        student = StudentNet(width=width, seed=0)
        result = pretrain_student(student, steps=6, height=hw[0], width=hw[1])
        state = student.state_dict()
        assert any("running_mean" in name for name in state)
        return state_dict_digest(state), result

    # 28x44 is 7x11 at quarter resolution: odd GEMM widths, where BLAS
    # picks other kernels than at the two bench geometries' multiples.
    @pytest.mark.parametrize("hw", [(32, 48), (64, 96), (28, 44)])
    @pytest.mark.parametrize("width", [0.25, 0.5, 1.0])
    def test_matches_interpreted_loop(self, width, hw, train_steps):
        got_digest, got = self._pretrain(width, hw)
        assert len(train_steps) == 1, "pre-training did not take the compiled step"
        with interpreted():
            want_digest, want = self._pretrain(width, hw)
        assert len(train_steps) == 1
        assert got_digest == want_digest
        assert got.loss_history == want.loss_history
        assert got.final_miou == want.final_miou


class TestPretrainLeavesNothingResident:
    """The pre-training plan is transient.  Left in the process-wide
    cache it kept ~130 MB of scratch at 96x144 in the process and in
    every server forked from it (``peak_rss_mb`` 626 vs 497 MB on
    ``busy-street``, bound 10 %)."""

    def test_no_train_plan_in_the_cache_or_alive(self, train_steps, monkeypatch):
        monkeypatch.setattr(session, "_PRETRAINED_CACHE", {})
        plan_cache.clear()
        session.pretrained_student(width=0.25, steps=3, frame_hw=(32, 48))
        assert len(train_steps) == 1
        kinds = [kind for _, kind, _ in plan_cache._PLANS]
        assert kinds == ["forward"]  # the closing eval's; the device reuses it
        gc.collect()
        assert train_steps[0]() is None

    def test_no_train_handle_on_the_student(self):
        student = StudentNet(width=0.25, seed=0)
        pretrain_student(student, steps=2, height=32, width=48)
        assert [kind for kind, _ in student._engine_plans] == ["forward"]
