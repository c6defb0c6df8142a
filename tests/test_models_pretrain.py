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

    def test_zero_steps_no_training(self):
        student = StudentNet(width=0.25, seed=0)
        before = {k: v.copy() for k, v in student.state_dict().items()}
        result = pretrain_student(student, steps=0, height=32, width=48)
        assert np.isnan(result.final_loss)
        after = student.state_dict()
        assert before.keys() == after.keys()
        for k in before:  # nothing runs
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
    define-by-run loop of ``tests.helpers.interpreted`` is its reference
    to the last bit — weights and loss history."""

    @staticmethod
    def _pretrain(width, hw):
        student = StudentNet(width=width, seed=0)
        result = pretrain_student(student, steps=6, height=hw[0], width=hw[1])
        return state_dict_digest(student.state_dict()), result

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


class TestPretrainLeavesNothingResident:
    """Pre-training leaves no plan behind.  Its train plan is transient:
    left in the process-wide cache it kept ~130 MB of scratch at 96x144
    in the process and in every server forked from it (``peak_rss_mb``
    626 vs 497 MB on ``busy-street``, bound 10 %).  Nor does it run a
    forward: nothing scores the checkpoint, so the device compiles its
    ``forward`` plan at its first predict, and a server forked before
    that inherits no plan it never runs."""

    def test_no_train_plan_in_the_cache_or_alive(self, train_steps, monkeypatch):
        monkeypatch.setattr(session, "_PRETRAINED_CACHE", {})
        plan_cache.clear()
        session.pretrained_student(width=0.25, steps=3, frame_hw=(32, 48))
        assert len(train_steps) == 1
        assert not plan_cache._PLANS
        gc.collect()
        assert train_steps[0]() is None

    def test_the_train_plans_memory_goes_with_the_call(self, monkeypatch):
        """The plan's buffers are one allocation, and nothing outside
        the call holds a view of it — not even the gradients the last
        step installed — so it is freed when ``pretrain_student``
        returns, by reference counting alone, not at a later GC."""
        memories = []
        init = training.CompiledTrainStep.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            memories.append(weakref.ref(self.layout.memory))

        monkeypatch.setattr(training.CompiledTrainStep, "__init__", spy)
        student = StudentNet(width=0.25, seed=0)
        gc.disable()
        try:
            pretrain_student(student, steps=2, height=32, width=48)
            assert len(memories) == 1
            assert memories[0]() is None
        finally:
            gc.enable()
        assert all(p.grad is None for p in student.parameters())

    def test_no_train_handle_on_the_student(self):
        student = StudentNet(width=0.25, seed=0)
        pretrain_student(student, steps=2, height=32, width=48)
        assert not student._engine_plans
