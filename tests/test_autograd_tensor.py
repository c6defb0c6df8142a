"""Unit tests for the core Tensor autograd engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.autograd.tensor import stack

from tests.helpers import assert_grad_close, numeric_gradient


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_from_ndarray_casts_to_float32(self):
        t = Tensor(np.arange(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_from_tensor_shares_no_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor(a)
        assert not b.requires_grad

    def test_scalar_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_numpy_returns_underlying(self):
        a = Tensor([1.0, 2.0])
        assert a.numpy() is a.data


class TestArithmetic:
    def test_add_backward(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.ones((3, 4)))

    def test_add_broadcast_backward(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((4,), 3.0))

    def test_mul_backward(self, rng):
        a = Tensor(rng.normal(size=(5,)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data, rtol=1e-6)
        np.testing.assert_allclose(b.grad, a.data, rtol=1e-6)

    def test_div_backward(self, rng):
        a = Tensor(rng.uniform(1, 2, size=(4,)), requires_grad=True)
        b = Tensor(rng.uniform(1, 2, size=(4,)), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / b.data, rtol=1e-5)
        np.testing.assert_allclose(b.grad, -a.data / b.data**2, rtol=1e-5)

    def test_pow_backward(self, rng):
        a = Tensor(rng.uniform(0.5, 2, size=(6,)), requires_grad=True)
        (a**3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data**2, rtol=1e-5)

    def test_neg_and_sub(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, -np.ones(3))

    def test_rsub_rdiv_radd_rmul(self):
        a = Tensor([2.0], requires_grad=True)
        assert (3.0 - a).item() == pytest.approx(1.0)
        assert (4.0 / a).item() == pytest.approx(2.0)
        assert (3.0 + a).item() == pytest.approx(5.0)
        assert (3.0 * a).item() == pytest.approx(6.0)

    def test_gradient_accumulates_on_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        (a * a).backward()  # d(a^2)/da = 2a
        np.testing.assert_allclose(a.grad, [2.0])

    def test_diamond_graph(self):
        # a -> b, c -> d: gradient flows through both paths once each.
        a = Tensor([3.0], requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [7.0])


class TestMatmulShapes:
    def test_matmul_grad_matches_numeric(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        def f():
            return float(((a.data @ b.data) ** 2).sum())

        assert_grad_close(a.grad, numeric_gradient(a, f))
        assert_grad_close(b.grad, numeric_gradient(b, f))

    def test_reshape_roundtrip_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)
        np.testing.assert_allclose(a.grad, np.ones((2, 6)))

    def test_reshape_accepts_tuple(self, rng):
        a = Tensor(rng.normal(size=(4,)))
        assert a.reshape((2, 2)).shape == (2, 2)

    def test_transpose_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        (a.transpose(2, 0, 1) * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 2.0))

    def test_transpose_default_reverses(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        assert a.transpose().shape == (3, 2)


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 5)))

    def test_sum_axis_no_keepdims(self, rng):
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = a.sum(axis=0)
        assert out.shape == (5,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 5)))

    def test_mean_grad(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 5), 1 / 20), rtol=1e-6)

    def test_mean_axis(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 5), 1 / 5), rtol=1e-6)


class TestNonlinearities:
    @pytest.mark.parametrize("op,deriv", [
        ("relu", lambda x: (x > 0).astype(np.float32)),
        ("exp", lambda x: np.exp(x)),
        ("sigmoid", lambda x: 1 / (1 + np.exp(-x)) * (1 - 1 / (1 + np.exp(-x)))),
        ("tanh", lambda x: 1 - np.tanh(x) ** 2),
    ])
    def test_elementwise_derivatives(self, rng, op, deriv):
        a = Tensor(rng.normal(size=(10,)), requires_grad=True)
        getattr(a, op)().sum().backward()
        np.testing.assert_allclose(a.grad, deriv(a.data), rtol=1e-4, atol=1e-6)

    def test_log_grad(self, rng):
        a = Tensor(rng.uniform(0.5, 3, size=(8,)), requires_grad=True)
        a.log().sum().backward()
        np.testing.assert_allclose(a.grad, 1 / a.data, rtol=1e-5)

    def test_relu_zeroes_negatives(self):
        a = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(a.relu().data, [0.0, 0.0, 2.0])


class TestStructuralOps:
    def test_concat_forward_backward(self, rng):
        a = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (1, 6, 3, 3)
        (out * 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(a.shape, 3.0))
        np.testing.assert_allclose(b.grad, np.full(b.shape, 3.0))

    def test_upsample2x_forward(self):
        a = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = a.upsample2x()
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(
            out.data[0, 0],
            [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
        )

    def test_upsample2x_backward_sums(self, rng):
        a = Tensor(rng.normal(size=(1, 1, 2, 2)), requires_grad=True)
        a.upsample2x().sum().backward()
        np.testing.assert_allclose(a.grad, np.full((1, 1, 2, 2), 4.0))

    def test_stack(self, rng):
        parts = [Tensor(rng.normal(size=(2,)), requires_grad=True) for _ in range(3)]
        out = stack(parts, axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        for p in parts:
            np.testing.assert_allclose(p.grad, np.ones(2))


class TestGradControl:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_backward_requires_grad(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_frozen_parent_skipped(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=False)
        (a * b).backward()
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [2.0])

    def test_deep_chain_backward(self):
        # Deep graphs must not hit recursion limits (iterative toposort).
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(2000):
            x = x + 1.0
        x.backward()
        np.testing.assert_allclose(a.grad, [1.0])
