"""The NumPy morphology pair equals the SciPy calls it replaced.

``dilate_square`` is ``binary_dilation`` with the 8-connected 3x3
structure iterated ``radius`` times; ``erode_cross`` is
``binary_erosion``'s default (4-neighbour cross, zero border).  SciPy is
not a dependency, so this module runs only where it is installed.
"""

import numpy as np
import pytest

from repro.models.teacher import OracleTeacher
from repro.segmentation.boundary import dilate_square, erode_cross
from repro.segmentation.losses import lvs_weight_map

ndimage = pytest.importorskip("scipy.ndimage")

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


def test_erosion_matches_scipy(rng):
    for mask in _masks(rng):
        np.testing.assert_array_equal(erode_cross(mask), ndimage.binary_erosion(mask))


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


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_noisy_oracle_matches_scipy(rng, seed):
    teacher = OracleTeacher(boundary_noise=0.4, seed=seed)
    ref_rng = np.random.default_rng(seed)
    for _ in range(10):
        h, w = rng.integers(1, 24, size=2)
        label = rng.integers(1, 4, size=(h, w)) * (rng.random((h, w)) < 0.6)
        fg = label > 0
        boundary = fg ^ ndimage.binary_erosion(fg)
        want = label.copy()
        want[boundary & (ref_rng.random(label.shape) < 0.4)] = 0
        np.testing.assert_array_equal(teacher.infer(np.zeros((3, h, w)), label), want)
