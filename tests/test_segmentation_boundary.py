"""Tests for boundary metrics and error decomposition."""

import numpy as np
import pytest

from repro.segmentation.boundary import boundary_mask, error_decomposition


def square_label(size=16, lo=5, hi=11, cls=2):
    label = np.zeros((size, size), dtype=np.int64)
    label[lo:hi, lo:hi] = cls
    return label


class TestBoundaryMask:
    def test_empty_label_no_boundary(self):
        assert not boundary_mask(np.zeros((8, 8), dtype=np.int64)).any()

    def test_square_boundary_ring(self):
        mask = boundary_mask(square_label())
        # The object's interior is not boundary.
        assert not mask[7:9, 7:9].any()
        # Pixels on either side of the edge are.
        assert mask[5, 5] and mask[4, 5]

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            boundary_mask(np.zeros((2, 3, 4)))

    def test_every_change_detected(self, rng):
        label = rng.integers(0, 3, size=(12, 12))
        mask = boundary_mask(label)
        # Any 4-neighbour pair with differing labels must both be marked.
        diff_h = label[:-1, :] != label[1:, :]
        assert mask[:-1, :][diff_h].all() and mask[1:, :][diff_h].all()


class TestErrorDecomposition:
    def test_perfect_no_error(self):
        label = square_label()
        out = error_decomposition(label, label)
        assert out["boundary_error"] == 0.0
        assert out["interior_error"] == 0.0

    def test_edge_jitter_is_boundary_error(self):
        label = square_label()
        pred = np.roll(label, 1, axis=0)  # 1-pixel jitter
        out = error_decomposition(pred, label, band=2)
        assert out["boundary_error"] > 0.0
        assert out["interior_error"] == 0.0

    def test_gross_miss_is_interior_error(self):
        label = square_label(size=24, lo=4, hi=10)
        pred = np.zeros_like(label)
        pred[14:20, 14:20] = 2  # hallucinated far-away object
        out = error_decomposition(pred, label, band=1)
        assert out["interior_error"] > 0.0

    def test_fractions_bounded(self, rng):
        pred = rng.integers(0, 3, size=(16, 16))
        label = rng.integers(0, 3, size=(16, 16))
        out = error_decomposition(pred, label)
        total_error = out["boundary_error"] + out["interior_error"]
        assert 0.0 <= total_error <= 1.0
        assert 0.0 <= out["boundary_fraction"] <= 1.0
