"""Gradient and shape tests for the tap-gather convolution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd.conv import ConvGeometry, ConvTaps, _out_dim, conv2d, conv_forward

from tests.helpers import (
    assert_grad_close, fancy_index_im2col, numeric_gradient, slice_loop_col2im,
)


class TestShapes:
    @pytest.mark.parametrize("kh,kw,stride,pad", [
        (3, 3, 1, (1, 1)),
        (3, 3, 2, (1, 1)),
        (1, 1, 1, (0, 0)),
        (3, 1, 1, (1, 0)),
        (1, 3, 1, (0, 1)),
        (5, 5, 2, (2, 2)),
    ])
    def test_output_shape(self, rng, kh, kw, stride, pad):
        x = Tensor(rng.normal(size=(2, 3, 8, 10)))
        w = Tensor(rng.normal(size=(4, 3, kh, kw)).astype(np.float32))
        out = conv2d(x, w, None, stride=stride, padding=pad)
        eh = _out_dim(8, kh, pad[0], stride)
        ew = _out_dim(10, kw, pad[1], stride)
        assert out.shape == (2, 4, eh, ew)

    def test_int_padding_accepted(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32))
        out = conv2d(x, w, None, padding=1)
        assert out.shape == (1, 2, 6, 6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 6, 6)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError):
            conv2d(x, w, None, padding=1)

    def test_matches_manual_convolution(self, rng):
        # Cross-check a 1x1 conv against an explicit einsum.
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor(rng.normal(size=(5, 3, 1, 1)).astype(np.float32))
        out = conv2d(x, w, None, padding=0)
        expected = np.einsum("nchw,oc->nohw", x.data, w.data[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
        b = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        out = conv2d(x, w, b, padding=1)
        for c in range(3):
            np.testing.assert_allclose(out.data[0, c], c + 1.0)


class TestGradients:
    @pytest.mark.parametrize("kh,kw,stride,pad", [
        (3, 3, 1, (1, 1)),
        (3, 1, 1, (1, 0)),
        (1, 3, 2, (0, 1)),
        (3, 3, 2, (1, 1)),
    ])
    def test_weight_and_input_grads(self, rng, kh, kw, stride, pad):
        x = Tensor(rng.normal(size=(2, 2, 6, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, kh, kw)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        out = conv2d(x, w, b, stride=stride, padding=pad)
        (out * out).sum().backward()

        def f():
            o = conv2d(x, w, b, stride=stride, padding=pad)
            return float((o.data**2).sum())

        assert_grad_close(w.grad, numeric_gradient(w, f))
        assert_grad_close(x.grad, numeric_gradient(x, f))
        assert_grad_close(b.grad, numeric_gradient(b, f))

    def test_frozen_weight_gets_no_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32), requires_grad=False)
        conv2d(x, w, None, padding=1).sum().backward()
        assert w.grad is None
        assert x.grad is not None

    def test_frozen_input_gets_no_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=False)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32), requires_grad=True)
        conv2d(x, w, None, padding=1).sum().backward()
        assert x.grad is None
        assert w.grad is not None


def _columns(x, kh, kw, pad_h, pad_w, stride):
    """The column matrix ``conv_forward`` multiplies, gathered on fresh
    zeroed scratch as ``conv2d`` does, and the geometry."""
    g = ConvGeometry(x.shape, (kh, kw), (pad_h, pad_w), stride)
    nl = x.shape[0] * g.L
    cols = np.empty((g.K, nl), np.float32)
    taps = None if g.is_1x1 else ConvTaps(g, np.zeros(g.pad_shape, np.float32), cols)
    w_mat = np.zeros((1, g.K), np.float32)
    return conv_forward(g, x, w_mat, None, cols, taps, np.empty((1, nl), np.float32)), g


def _scattered(g, gcols):
    """The taps' scatter of ``gcols`` on fresh zeroed float64 scratch."""
    taps = ConvTaps(g, np.zeros(g.pad_shape, np.float64), gcols.copy())
    return taps.scatter(np.empty(g.x_shape, np.float32))


class TestTaps:
    def test_roundtrip_counts_overlaps(self, rng):
        # The scatter of the gather multiplies each pixel by its patch
        # multiplicity.
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        cols, g = _columns(x, 3, 3, 1, 1, 1)
        back = _scattered(g, cols)
        # Interior pixels appear in 9 patches, corners in 4.
        assert back[0, 0, 1, 1] == pytest.approx(9 * x[0, 0, 1, 1], rel=1e-4)
        assert back[0, 0, 0, 0] == pytest.approx(4 * x[0, 0, 0, 0], rel=1e-4)

    def test_column_layout(self, rng):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols, _ = _columns(x, 2, 2, 0, 0, 1)
        assert cols.shape == (4, 9)
        # First column is the top-left 2x2 patch, flattened row-major.
        np.testing.assert_allclose(cols[:, 0], [0, 1, 4, 5])

    def test_batched(self, rng):
        x = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        cols, _ = _columns(x, 3, 3, 1, 1, 1)
        assert cols.shape == (2 * 9, 3 * 25)


class TestTapsAreTheReferenceGatherAndScatter:
    @given(
        n=st.integers(1, 3), c=st.integers(1, 4),
        h=st.integers(3, 9), w=st.integers(3, 9),
        kh=st.integers(1, 3), kw=st.integers(1, 3),
        pad_h=st.integers(0, 2), pad_w=st.integers(0, 2),
        stride=st.integers(1, 2), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal(self, n, c, h, w, kh, kw, pad_h, pad_w, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        got, g = _columns(x, kh, kw, pad_h, pad_w, stride)
        want = fancy_index_im2col(x, kh, kw, pad_h, pad_w, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if not g.is_1x1:
            gcols = rng.normal(size=want.shape).astype(np.float32)
            want = slice_loop_col2im(gcols, x.shape, kh, kw, pad_h, pad_w, stride)
            assert _scattered(g, gcols).tobytes() == want.tobytes()

    def test_fresh_geometry_retains_nothing(self, rng):
        # A geometry no other test uses, so nothing could be cached yet.
        x = Tensor(rng.normal(size=(2, 5, 37, 41)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 5, 3, 3)).astype(np.float32))
        conv2d(Tensor(x.data[:, :, :9, :9]), w, None, padding=1)  # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, None, padding=1)
            assert out.data.nbytes > 40_000
            del out
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4096, f"conv2d kept {retained} bytes after its result died"
