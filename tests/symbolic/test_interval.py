"""Tests for the Box (interval vector) abstract domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ShapeError
from repro.symbolic.interval import Box

from ..oracles.symbolic import box_affine, box_elementwise_monotone


class TestConstruction:
    def test_from_center_and_radius(self):
        box = Box.from_center(np.array([1.0, -1.0]), 0.5)
        np.testing.assert_array_equal(box.low, [0.5, -1.5])
        np.testing.assert_array_equal(box.high, [1.5, -0.5])

    def test_from_point_is_degenerate(self):
        box = Box.from_point(np.array([2.0, 3.0]))
        np.testing.assert_array_equal(box.widths, [0.0, 0.0])
        assert box.width_sum() == 0.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ShapeError):
            Box(np.array([1.0]), np.array([0.0]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            Box(np.zeros(2), np.zeros(3))

    def test_negative_radius_rejected(self):
        with pytest.raises(ShapeError):
            Box.from_center(np.zeros(2), -0.1)


class TestGeometry:
    def test_center_radius_widths(self):
        box = Box(np.array([0.0, -2.0]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(box.center, [1.0, 0.0])
        np.testing.assert_array_equal(box.radius, [1.0, 2.0])
        np.testing.assert_array_equal(box.widths, [2.0, 4.0])
        assert box.width_sum() == 6.0

    def test_contains_point(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert box.contains(np.array([0.5, 0.99]))
        assert box.contains(np.array([1.0, 1.0]))
        assert not box.contains(np.array([1.1, 0.5]))

    def test_contains_dimension_mismatch_rejected(self):
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            box.contains(np.zeros(3))


class TestSetOperations:
    def test_join_is_smallest_enclosing_box(self):
        a = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = Box(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        joined = a.join(b)
        np.testing.assert_array_equal(joined.low, [0.0, -1.0])
        np.testing.assert_array_equal(joined.high, [3.0, 1.0])

    def test_join_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Box(np.zeros(1), np.ones(1)).join(Box(np.zeros(2), np.ones(2)))


class TestArithmetic:
    """The single-box arithmetic of the oracle layer walk (``tests/oracles``)."""

    def test_affine_known_result(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        weights = np.array([[1.0, 2.0], [-1.0, 0.5]])
        bias = np.array([0.0, 1.0])
        image = box_affine(box, weights, bias)
        # dim0: x0 - x1 with x0 in [0,1], x1 in [-1,1] -> [-1, 2]
        np.testing.assert_allclose(image.low, [-1.0, 0.5])
        np.testing.assert_allclose(image.high, [2.0, 3.5])

    @settings(max_examples=40, deadline=None)
    @given(
        low=hnp.arrays(np.float64, 3, elements=st.floats(-5, 5)),
        width=hnp.arrays(np.float64, 3, elements=st.floats(0, 3)),
        sample=hnp.arrays(np.float64, 3, elements=st.floats(0, 1)),
        seed=st.integers(0, 1000),
    )
    def test_affine_soundness_property(self, low, width, sample, seed):
        """The affine image of any point of the box lies in the affine box image."""
        box = Box(low, low + width)
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        point = low + sample * width
        image = box_affine(box, weights, bias)
        assert image.contains(point @ weights + bias, tolerance=1e-7)

    def test_affine_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            box_affine(Box(np.zeros(2), np.ones(2)), np.zeros((3, 2)), np.zeros(2))

    def test_elementwise_monotone(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        image = box_elementwise_monotone(box, np.tanh)
        np.testing.assert_allclose(image.low, np.tanh([-1.0, 0.0]))
        np.testing.assert_allclose(image.high, np.tanh([1.0, 4.0]))


class TestSamplingAndMisc:
    def test_samples_lie_inside(self):
        box = Box(np.array([-1.0, 2.0]), np.array([0.0, 5.0]))
        samples = box.sample(100, rng=np.random.default_rng(0))
        assert samples.shape == (100, 2)
        assert all(box.contains(sample) for sample in samples)

    def test_equality_and_hash(self):
        a = Box(np.array([0.0]), np.array([1.0]))
        b = Box(np.array([0.0]), np.array([1.0]))
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_yields_pairs(self):
        box = Box(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert list(box) == [(0.0, 2.0), (1.0, 3.0)]
