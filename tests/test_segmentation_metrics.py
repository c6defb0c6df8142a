"""Tests for IoU / mIoU (paper Eq. 1), including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.segmentation.metrics import (
    RunningMeanIoU,
    confusion_matrix,
    iou_per_class,
    mean_iou,
    pixel_accuracy,
)


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self, rng):
        label = rng.integers(0, 4, size=(8, 8))
        cm = confusion_matrix(label, label, num_classes=4)
        assert cm.sum() == 64
        assert np.all(cm == np.diag(np.diag(cm)))

    def test_entry_semantics(self):
        label = np.array([0, 0, 1])
        pred = np.array([0, 1, 1])
        cm = confusion_matrix(pred, label, num_classes=2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[1, 0] == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(4))


class TestIoU:
    def test_perfect_iou_is_one(self, rng):
        label = rng.integers(0, 3, size=(6, 6))
        ious = iou_per_class(label, label, num_classes=3)
        assert all(v == pytest.approx(1.0) for v in ious.values())

    def test_only_present_classes_scored(self):
        label = np.zeros((4, 4), dtype=np.int64)  # only background
        pred = np.zeros((4, 4), dtype=np.int64)
        pred[0, 0] = 3  # false positive for class 3
        ious = iou_per_class(pred, label, num_classes=4)
        assert set(ious) == {0}  # class 3 absent from label -> not scored

    def test_known_overlap_value(self):
        # pred covers 2x4, label covers 4x2, overlap 2x2 -> IoU = 4/12.
        label = np.zeros((4, 4), dtype=np.int64)
        label[:, :2] = 1
        pred = np.zeros((4, 4), dtype=np.int64)
        pred[:2, :] = 1
        iou = iou_per_class(pred, label, num_classes=2)[1]
        assert iou == pytest.approx(4 / 12)

    def test_eq1_definition(self, rng):
        # Cross-check against a direct set-based computation of Eq. 1.
        label = rng.integers(0, 3, size=(10, 10))
        pred = rng.integers(0, 3, size=(10, 10))
        ious = iou_per_class(pred, label, num_classes=3)
        for c, value in ious.items():
            inter = np.sum((pred == c) & (label == c))
            union = np.sum((pred == c) | (label == c))
            assert value == pytest.approx(inter / union)

    def test_missed_class_iou_zero(self):
        label = np.ones((4, 4), dtype=np.int64)
        pred = np.zeros((4, 4), dtype=np.int64)
        assert iou_per_class(pred, label, num_classes=2)[1] == 0.0


class TestMeanIoU:
    def test_range(self, rng):
        pred = rng.integers(0, 9, size=(8, 8))
        label = rng.integers(0, 9, size=(8, 8))
        assert 0.0 <= mean_iou(pred, label) <= 1.0

    def test_perfect_is_one(self, rng):
        label = rng.integers(0, 9, size=(8, 8))
        assert mean_iou(label, label) == pytest.approx(1.0)

    def test_mean_over_present_classes(self):
        # Background perfect, class 1 half-covered: mean of {1.0, 1/3}.
        label = np.zeros((4, 4), dtype=np.int64)
        label[:2, :] = 1
        pred = np.zeros((4, 4), dtype=np.int64)
        pred[0, :] = 1
        # bg: inter 8, union 12 -> 2/3 ; cls1: inter 4, union 8+4-4... compute:
        bg = np.sum((pred == 0) & (label == 0)) / np.sum((pred == 0) | (label == 0))
        c1 = np.sum((pred == 1) & (label == 1)) / np.sum((pred == 1) | (label == 1))
        assert mean_iou(pred, label) == pytest.approx((bg + c1) / 2)

    @given(
        seed=st.integers(0, 10_000),
        num_classes=st.integers(2, 9),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_property(self, seed, num_classes):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, num_classes, size=(6, 6))
        label = rng.integers(0, num_classes, size=(6, 6))
        m = mean_iou(pred, label, num_classes=num_classes)
        assert 0.0 <= m <= 1.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        # mIoU must not depend on pixel ordering.
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, size=36)
        label = rng.integers(0, 4, size=36)
        perm = rng.permutation(36)
        a = mean_iou(pred.reshape(6, 6), label.reshape(6, 6), num_classes=4)
        b = mean_iou(pred[perm].reshape(6, 6), label[perm].reshape(6, 6), num_classes=4)
        assert a == pytest.approx(b)


class TestRunningMeanIoU:
    def test_averages_per_frame(self, rng):
        tracker = RunningMeanIoU(num_classes=3)
        values = []
        for _ in range(5):
            pred = rng.integers(0, 3, size=(6, 6))
            label = rng.integers(0, 3, size=(6, 6))
            values.append(tracker.update(pred, label))
        assert tracker.value == pytest.approx(np.mean(values))

    def test_empty_tracker_zero(self):
        assert RunningMeanIoU().value == 0.0


class TestPixelAccuracy:
    def test_perfect(self, rng):
        label = rng.integers(0, 5, size=(4, 4))
        assert pixel_accuracy(label, label) == 1.0

    def test_fraction(self):
        pred = np.array([0, 0, 1, 1])
        label = np.array([0, 1, 1, 0])
        assert pixel_accuracy(pred, label) == 0.5


# ----------------------------------------------------------------------
# Vectorised IoU == the per-class loop, to the last bit
# ----------------------------------------------------------------------
def _loop_confusion_matrix(pred, label, num_classes):
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, l in zip(np.asarray(pred).ravel(), np.asarray(label).ravel()):
        if 0 <= l < num_classes:
            cm[int(l), int(p)] += 1
    return cm


def _loop_iou_per_class(pred, label, num_classes):
    """Eq. 1 as the metric was first written: one class at a time."""
    cm = _loop_confusion_matrix(pred, label, num_classes)
    out = {}
    for c in np.flatnonzero(cm.sum(axis=1) > 0):
        inter = cm[c, c]
        union = cm[c, :].sum() + cm[:, c].sum() - inter
        out[int(c)] = float(inter / union) if union > 0 else 1.0
    return out


def _loop_mean_iou(pred, label, num_classes):
    ious = _loop_iou_per_class(pred, label, num_classes)
    return float(np.mean(list(ious.values()))) if ious else 1.0


class TestVectorisedIoUIsTheLoop:
    @given(
        seed=st.integers(0, 100_000),
        num_classes=st.integers(1, 9),
        pixels=st.integers(0, 60),
        label_dtype=st.sampled_from([np.int64, np.int32, np.int8]),
        # how far labels may stray outside [0, num_classes): 0 keeps
        # them all valid, large makes most of them invalid
        stray=st.sampled_from([0, 1, 3, 50]),
        # few distinct predictions leave many classes absent
        pred_classes=st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_values_same_classes(self, seed, num_classes, pixels, label_dtype,
                                      stray, pred_classes):
        rng = np.random.default_rng(seed)
        label = rng.integers(-stray, num_classes + stray, size=pixels).astype(label_dtype)
        pred = rng.integers(0, min(pred_classes, num_classes), size=pixels)
        want = _loop_iou_per_class(pred, label, num_classes)
        got = iou_per_class(pred, label, num_classes)
        assert got == want and list(got) == list(want)
        assert all(type(k) is int and type(v) is float for k, v in got.items())
        assert np.array_equal(
            confusion_matrix(pred, label, num_classes),
            _loop_confusion_matrix(pred, label, num_classes),
        )
        m = mean_iou(pred, label, num_classes)
        assert type(m) is float
        assert m.hex() == _loop_mean_iou(pred, label, num_classes).hex()

    def test_no_valid_label_scores_one(self):
        label = np.full((4, 4), 200)
        assert iou_per_class(np.zeros((4, 4), np.int64), label) == {}
        assert mean_iou(np.zeros((4, 4), np.int64), label) == 1.0
        assert mean_iou(np.zeros(0, np.int64), np.zeros(0, np.int64)) == 1.0
