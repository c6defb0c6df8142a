"""Hypothesis property-based tests on core data structures and
invariants spanning multiple modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.conv import conv2d
from repro.distill.config import DistillConfig
from repro.network.model import constant_link
from repro.nn.serialize import apply_state_dict, clone_state_dict, state_dict_diff
from repro.models.student import StudentNet, partial_freeze
from repro.segmentation.metrics import mean_iou
from repro.striding.adaptive import AdaptiveStride


small_floats = st.floats(-3.0, 3.0, allow_nan=False, width=32)


class TestAutogradProperties:
    @given(data=st.lists(small_floats, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sum_grad_is_ones(self, data):
        t = Tensor(np.array(data, dtype=np.float32), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(len(data)))

    @given(
        a=st.lists(small_floats, min_size=4, max_size=4),
        b=st.lists(small_floats, min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_addition_commutes(self, a, b):
        ta, tb = Tensor(np.array(a)), Tensor(np.array(b))
        np.testing.assert_allclose((ta + tb).data, (tb + ta).data)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_log_softmax_is_log_distribution(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 7)).astype(np.float32) * 5)
        s = np.exp(F.log_softmax(x, axis=1).data)
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=1), np.ones(2), rtol=1e-4)

    @given(seed=st.integers(0, 1000), scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_conv_linearity(self, seed, scale):
        # conv(scale * x) == scale * conv(x) for bias-free convolution.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        a = conv2d(Tensor(x * scale), w, None, padding=1).data
        b = conv2d(Tensor(x), w, None, padding=1).data * scale
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-4)


class TestMetricProperties:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_miou_symmetric_when_classes_match(self, seed):
        # If pred and label use the same class set, swapping them keeps
        # the per-class IoU (intersection and union are symmetric) —
        # but only classes present in the label are scored, so restrict
        # to full-coverage cases.
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 2, size=(8, 8))
        label = rng.integers(0, 2, size=(8, 8))
        if set(np.unique(pred)) == set(np.unique(label)) == {0, 1}:
            assert mean_iou(pred, label, 2) == pytest.approx(
                mean_iou(label, pred, 2)
            )

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_miou_identity_is_one(self, seed):
        rng = np.random.default_rng(seed)
        label = rng.integers(0, 9, size=(10, 10))
        assert mean_iou(label.copy(), label) == pytest.approx(1.0)


class TestSerializationProperties:
    @given(seed=st.integers(0, 100), delta=st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_diff_apply_roundtrip(self, seed, delta):
        # Perturb the server's trainable weights arbitrarily; applying
        # the diff must make the client's trainable weights identical.
        src = StudentNet(width=0.25, seed=seed % 5)
        dst = StudentNet(width=0.25, seed=seed % 5)
        partial_freeze(src)
        for p in src.trainable_parameters():
            p.data += np.float32(delta)
        apply_state_dict(dst, state_dict_diff(src, trainable_only=True))
        for (name, ps), (_, pd) in zip(
            src.named_parameters(), dst.named_parameters()
        ):
            np.testing.assert_array_equal(ps.data, pd.data, err_msg=name)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_clone_never_aliases(self, seed):
        student = StudentNet(width=0.25, seed=seed % 5)
        state = student.state_dict()
        cloned = clone_state_dict(state)
        for key in state:
            assert not np.shares_memory(state[key], cloned[key])


class TestStrideProperties:
    @given(metrics=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_stride_always_clamped(self, metrics):
        policy = AdaptiveStride(DistillConfig())
        for m in metrics:
            s = policy.update(m)
            assert 8.0 <= s <= 64.0
            assert 8 <= policy.frames_to_next() <= 64


class TestNetworkProperties:
    @given(
        nbytes=st.integers(0, 10**8),
        bw=st.floats(1.0, 1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_transfer_time_monotone_in_size(self, nbytes, bw):
        net = constant_link(bw)
        assert net.transfer_time(nbytes + 1000) >= net.transfer_time(nbytes)

    @given(nbytes=st.integers(1, 10**8))
    @settings(max_examples=50, deadline=None)
    def test_transfer_time_monotone_in_bandwidth(self, nbytes):
        slow = constant_link(8.0)
        fast = constant_link(80.0)
        assert fast.transfer_time(nbytes) <= slow.transfer_time(nbytes)
