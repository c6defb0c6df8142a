"""Tests for weight initialisation schemes."""

import numpy as np
import pytest

from repro.nn.init import _fan_in_out, kaiming_normal


class TestFanComputation:
    def test_linear_shape(self):
        fan_in, fan_out = _fan_in_out((8, 4))  # (out, in)
        assert fan_in == 4 and fan_out == 8

    def test_conv_shape(self):
        fan_in, fan_out = _fan_in_out((16, 3, 3, 3))
        assert fan_in == 3 * 9 and fan_out == 16 * 9

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError):
            _fan_in_out((4,))


class TestKaiming:
    def test_std_matches_he_formula(self, rng):
        w = kaiming_normal(rng, (64, 32, 3, 3))
        expected = np.sqrt(2.0 / (32 * 9))
        assert w.std() == pytest.approx(expected, rel=0.05)

    def test_zero_mean(self, rng):
        w = kaiming_normal(rng, (64, 64, 3, 3))
        assert abs(w.mean()) < 0.01

    def test_dtype_float32(self, rng):
        assert kaiming_normal(rng, (4, 4)).dtype == np.float32

    def test_deterministic_given_rng(self):
        a = kaiming_normal(np.random.default_rng(3), (8, 8))
        b = kaiming_normal(np.random.default_rng(3), (8, 8))
        np.testing.assert_array_equal(a, b)

