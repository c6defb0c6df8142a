"""Tests for log-softmax and the cross-entropy loss."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F

from tests.helpers import assert_grad_close, numeric_gradient


class TestLogSoftmax:
    def test_normalisation(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 3, 3)))
        logp = F.log_softmax(x, axis=1)
        np.testing.assert_allclose(
            np.exp(logp.data).sum(axis=1), np.ones((2, 3, 3)), rtol=1e-5
        )

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(1, 4, 2, 2)).astype(np.float32)
        a = F.log_softmax(Tensor(x), axis=1).data
        b = F.log_softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-4)

    def test_numerical_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1001.0]], dtype=np.float32))
        out = F.log_softmax(x, axis=1)
        assert np.isfinite(out.data).all()

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True)
        w = rng.normal(size=(1, 4, 2, 2)).astype(np.float32)
        (F.log_softmax(x, axis=1) * Tensor(w)).sum().backward()

        def f():
            return float((F.log_softmax(Tensor(x.data), axis=1).data * w).sum())

        assert_grad_close(x.grad, numeric_gradient(x, f))


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = Tensor(rng.normal(size=(1, 3, 2, 2)))
        target = rng.integers(0, 3, size=(1, 2, 2))
        loss = F.cross_entropy(logits, target)
        logp = F.log_softmax(logits, axis=1).data
        manual = -np.mean(
            [logp[0, target[0, i, j], i, j] for i in range(2) for j in range(2)]
        )
        assert loss.item() == pytest.approx(manual, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        target = np.zeros((1, 2, 2), dtype=np.int64)
        logits_data = np.zeros((1, 2, 2, 2), dtype=np.float32)
        logits_data[0, 0] = 50.0  # huge margin for class 0
        loss = F.cross_entropy(Tensor(logits_data), target)
        assert loss.item() < 1e-4

    def test_weight_map_emphasis(self, rng):
        # Up-weighting the wrong pixels must increase the loss.
        logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
        logits[0, 0, :, :] = 2.0  # predicts class 0 everywhere
        target = np.array([[[0, 1], [0, 0]]])  # one wrong pixel (class 1)
        flat = F.cross_entropy(Tensor(logits), target).item()
        weights = np.ones((1, 2, 2), dtype=np.float32)
        weights[0, 0, 1] = 5.0
        weighted = F.cross_entropy(Tensor(logits), target, weights).item()
        assert weighted > flat

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        target = rng.integers(0, 4, size=(2, 3, 3))
        wmap = np.where(target > 0, 5.0, 1.0).astype(np.float32)
        F.cross_entropy(logits, target, wmap).backward()

        def f():
            return float(F.cross_entropy(Tensor(logits.data), target, wmap).item())

        assert_grad_close(logits.grad, numeric_gradient(logits, f, eps=5e-3), rtol=5e-2)

    def test_gradient_channel_sums_zero(self, rng):
        # Softmax CE gradients sum to zero across the class axis.
        logits = Tensor(rng.normal(size=(1, 5, 4, 4)), requires_grad=True)
        target = rng.integers(0, 5, size=(1, 4, 4))
        F.cross_entropy(logits, target).backward()
        np.testing.assert_allclose(
            logits.grad.sum(axis=1), np.zeros((1, 4, 4)), atol=1e-5
        )

    def test_shape_mismatch_raises(self, rng):
        logits = Tensor(rng.normal(size=(1, 3, 2, 2)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros((1, 3, 3), dtype=np.int64))
