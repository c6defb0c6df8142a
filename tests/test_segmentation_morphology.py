"""The NumPy morphology equals the SciPy calls it replaced.

``dilate_square`` is ``binary_dilation`` with the 8-connected 3x3
structure iterated ``radius`` times.  SciPy is not a dependency, so
this module runs only where it is installed.
"""

import numpy as np
import pytest

import repro
from repro.segmentation.boundary import dilate_square
from repro.segmentation.losses import lvs_weight_map

ndimage = pytest.importorskip("scipy.ndimage")
# SciPy maps an OpenBLAS of its own, after the import of ``repro`` sized
# the pools it found: size this one too, so the rest of the process
# (and the perf records the suite writes) runs one-thread pools.
repro._one_blas_thread()

SQUARE = ndimage.generate_binary_structure(2, 2)


def _masks(rng):
    """Random masks of every density, plus the degenerate shapes."""
    for _ in range(150):
        h, w = rng.integers(1, 14, size=2)
        yield rng.random((h, w)) < rng.random()
    for shape in [(1, 9), (9, 1), (1, 1), (7, 5)]:
        yield rng.random(shape) < 0.5
        yield np.zeros(shape, dtype=bool)
        yield np.ones(shape, dtype=bool)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_dilation_matches_scipy(rng, radius):
    for mask in _masks(rng):
        want = ndimage.binary_dilation(mask, structure=SQUARE, iterations=radius)
        np.testing.assert_array_equal(dilate_square(mask, radius), want)


def _scipy_weight_map(label, object_weight, near_radius):
    weights = np.ones(label.shape, dtype=np.float32)
    for i in range(label.shape[0]):
        mask = label[i] > 0
        if near_radius > 0 and mask.any():
            mask = ndimage.binary_dilation(mask, structure=SQUARE, iterations=near_radius)
        weights[i][mask] = object_weight
    return weights


@pytest.mark.parametrize("near_radius", [0, 1, 2, 3])
def test_lvs_weight_map_matches_scipy(rng, near_radius):
    for _ in range(20):
        n, h, w = rng.integers(1, 4), rng.integers(1, 20), rng.integers(1, 20)
        label = rng.integers(0, 3, size=(n, h, w)) * (rng.random((n, h, w)) < 0.2)
        got = lvs_weight_map(label, 5.0, near_radius)
        assert got.tobytes() == _scipy_weight_map(label, 5.0, near_radius).tobytes()
