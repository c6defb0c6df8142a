"""Gradient and shape tests for the im2col convolution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd.conv import col2im, conv2d, im2col, _out_dim

from tests.helpers import assert_grad_close, numeric_gradient


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


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self, rng):
        # col2im(im2col(x)) multiplies each pixel by its patch multiplicity.
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1, 1)
        back = col2im(cols, (1, 1, 4, 4), 3, 3, 1, 1, 1)
        # Interior pixels appear in 9 patches, corners in 4.
        assert back[0, 0, 1, 1] == pytest.approx(9 * x[0, 0, 1, 1], rel=1e-4)
        assert back[0, 0, 0, 0] == pytest.approx(4 * x[0, 0, 0, 0], rel=1e-4)

    def test_im2col_column_layout(self, rng):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, 0, 0, 1)
        assert cols.shape == (4, 9)
        # First column is the top-left 2x2 patch, flattened row-major.
        np.testing.assert_allclose(cols[:, 0], [0, 1, 4, 5])

    def test_im2col_batched(self, rng):
        x = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1, 1)
        assert cols.shape == (2 * 9, 3 * 25)


def _fancy_index_im2col(x, kh, kw, pad_h, pad_w, stride):
    """The original gather: one fancy-index read through (channel, row,
    col) index arrays.  Kept here as the reference the sliced gather
    must reproduce byte for byte."""
    n, c, h, w = x.shape
    out_h = _out_dim(h, kh, pad_h, stride)
    out_w = _out_dim(w, kw, pad_w, stride)
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    x_padded = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    patches = x_padded[:, chans, rows, cols]
    return patches.transpose(1, 0, 2).reshape(patches.shape[1], n * patches.shape[2])


class TestIm2ColIsTheFancyIndexGather:
    @given(
        n=st.integers(1, 3), c=st.integers(1, 4),
        h=st.integers(3, 9), w=st.integers(3, 9),
        kh=st.integers(1, 3), kw=st.integers(1, 3),
        pad_h=st.integers(0, 2), pad_w=st.integers(0, 2),
        stride=st.integers(1, 2), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal(self, n, c, h, w, kh, kw, pad_h, pad_w, stride, seed):
        x = np.random.default_rng(seed).normal(size=(n, c, h, w)).astype(np.float32)
        got = im2col(x, kh, kw, pad_h, pad_w, stride)
        want = _fancy_index_im2col(x, kh, kw, pad_h, pad_w, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_fresh_geometry_retains_nothing(self, rng):
        # A geometry no other test uses, so nothing could be cached yet.
        x = rng.normal(size=(2, 5, 37, 41)).astype(np.float32)
        im2col(x[:, :, :9, :9], 3, 3, 1, 1, 1)  # warm np.pad and friends
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cols = im2col(x, 3, 3, 1, 1, 1)
            assert cols.nbytes > 500_000
            del cols
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4096, f"im2col kept {retained} bytes after its result died"
