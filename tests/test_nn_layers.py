"""Tests for Conv2d, the batch norms and container layers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import BatchNorm2d, Conv2d, FrozenBatchNorm2d, ReLU, Sequential

from tests.helpers import assert_grad_close, numeric_gradient


class TestConv2dLayer:
    def test_same_padding_preserves_size(self, rng):
        layer = Conv2d(3, 5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 5, 8, 8)

    def test_asymmetric_kernels(self, rng):
        for k in [(3, 1), (1, 3)]:
            layer = Conv2d(2, 2, k, rng=rng)
            out = layer(Tensor(rng.normal(size=(1, 2, 6, 6))))
            assert out.shape == (1, 2, 6, 6)

    def test_stride_halves_resolution(self, rng):
        layer = Conv2d(2, 4, 3, stride=2, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 2, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_no_bias_option(self, rng):
        layer = Conv2d(2, 2, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_weight_init_scale(self, rng):
        # He init std = sqrt(2 / fan_in); check within loose bounds.
        layer = Conv2d(16, 64, 3, rng=rng)
        std = layer.weight.data.std()
        expected = np.sqrt(2.0 / (16 * 9))
        assert 0.7 * expected < std < 1.3 * expected


class TestBatchNorm:
    def test_train_normalises_batch(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)))
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-3)

    def test_every_call_uses_its_own_batch_statistics(self, rng):
        """No state survives a call: a batch normalises the same way
        whatever batches came before it."""
        bn = BatchNorm2d(2)
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        first = bn(Tensor(x)).data
        bn(Tensor(np.full((2, 2, 3, 3), 4.0, dtype=np.float32)))
        assert bn(Tensor(x)).data.tobytes() == first.tobytes()
        assert bn.state_dict().keys() == {"weight", "bias"}

    def test_channel_mismatch_raises(self, rng):
        bn = BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(rng.normal(size=(1, 2, 3, 3))))

    def test_train_backward_matches_numeric(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        (bn(x) ** 2).sum().backward()

        def f():
            bn2 = BatchNorm2d(2)
            bn2.weight.data = bn.weight.data
            bn2.bias.data = bn.bias.data
            return float((bn2(Tensor(x.data)).data ** 2).sum())

        assert_grad_close(x.grad, numeric_gradient(x, f, eps=5e-3), rtol=5e-2)

    def test_affine_params_get_grads(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None
        # d(sum)/d(bias) = number of pixels per channel
        np.testing.assert_allclose(bn.bias.grad, np.full(3, 2 * 16), rtol=1e-5)

    def test_frozen_bn_still_backprops_to_input(self, rng):
        bn = BatchNorm2d(2)
        bn.freeze()
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.weight.grad is None


class TestFrozenBatchNorm:
    def test_is_batch_norm_at_mean_0_variance_1_bit_for_bit(self, rng):
        """``(x * s) * weight + bias`` equals normalising with the
        statistics a fresh batch norm starts from, in its own order."""
        bn = FrozenBatchNorm2d(3)
        bn.weight.data = rng.normal(size=3).astype(np.float32)
        bn.bias.data = rng.normal(size=3).astype(np.float32)
        x = rng.normal(size=(1, 3, 4, 5)).astype(np.float32)
        c = (1, 3, 1, 1)
        inv_std = 1.0 / np.sqrt(np.ones(3, np.float32) + bn.eps)
        x_hat = (x - np.zeros(3, np.float32).reshape(c)) * inv_std.reshape(c)
        want = x_hat * bn.weight.data.reshape(c) + bn.bias.data.reshape(c)
        assert bn(Tensor(x)).data.tobytes() == want.tobytes()

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            FrozenBatchNorm2d(3)(Tensor(rng.normal(size=(1, 2, 3, 3))))

    def test_has_no_backward(self, rng):
        """The teacher is never trained: the output is a root even when
        the input and the layer's own parameters require gradients."""
        bn = FrozenBatchNorm2d(2)
        assert bn.weight.requires_grad and bn.bias.requires_grad
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        assert not bn(x).requires_grad
        assert bn.state_dict().keys() == {"weight", "bias"}


class TestContainers:
    def test_sequential_order(self, rng):
        net = Sequential(Conv2d(2, 3, 3, rng=rng), ReLU(), Conv2d(3, 1, 1, rng=rng))
        out = net(Tensor(rng.normal(size=(1, 2, 4, 4))))
        assert out.shape == (1, 1, 4, 4)

    def test_sequential_len_getitem(self, rng):
        net = Sequential(ReLU(), ReLU())
        assert len(net) == 2
        assert isinstance(net[0], ReLU)

    def test_sequential_registers_children(self, rng):
        net = Sequential(Conv2d(1, 1, 1, rng=rng), Conv2d(1, 1, 1, rng=rng))
        assert len(net.parameters()) == 4  # two weights + two biases

    def test_relu_module(self):
        out = ReLU()(Tensor(np.array([-1.0, 1.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0])
