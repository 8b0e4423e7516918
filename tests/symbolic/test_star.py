"""Tests for the star-set abstract domain (LP-backed bounds and ReLU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.symbolic.interval import Box
from repro.symbolic.star import StarSet

from ..oracles.symbolic import box_affine, box_elementwise_monotone, star_relu_loop


def contains_box(outer: Box, inner: Box, tolerance: float = 1e-9) -> bool:
    """True when ``inner`` lies entirely inside ``outer`` up to ``tolerance``."""
    return bool(
        np.all(inner.low >= outer.low - tolerance) and np.all(inner.high <= outer.high + tolerance)
    )


class TestConstruction:
    def test_from_box_bounds_match_box(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        star = StarSet.from_box(box)
        low, high = star.bounds()
        np.testing.assert_allclose(low, box.low, atol=1e-7)
        np.testing.assert_allclose(high, box.high, atol=1e-7)

    def test_from_point_is_degenerate(self):
        star = StarSet.from_point(np.array([3.0, -2.0]))
        low, high = star.bounds()
        np.testing.assert_allclose(low, [3.0, -2.0])
        np.testing.assert_allclose(high, [3.0, -2.0])

    def test_bad_basis_shape_rejected(self):
        with pytest.raises(ShapeError):
            StarSet(np.zeros(2), np.zeros((1, 3)))

    def test_constraint_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            StarSet(np.zeros(2), np.eye(2), np.zeros((1, 3)), np.zeros(1))

    def test_is_empty_detects_infeasible_constraints(self):
        # alpha <= -1 and alpha >= +1 simultaneously.
        star = StarSet(
            np.zeros(1),
            np.ones((1, 1)),
            np.array([[1.0], [-1.0]]),
            np.array([-1.0, -1.0]),
        )
        assert star.is_empty()
        assert not StarSet.from_point(np.zeros(1)).is_empty()

    def test_is_empty_on_hypercube_domain_skips_the_lp(self, monkeypatch):
        """The default [-1, 1]^m polytope is trivially non-empty: no linprog."""

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("is_empty ran an LP on a hypercube domain")

        # Patched where the solve imports it from, at call time.
        monkeypatch.setattr("scipy.optimize.linprog", _forbidden)
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert not StarSet.from_box(box).is_empty()
        assert not StarSet.from_point(np.zeros(3)).is_empty()

    def test_from_box_basis_is_diagonal_radius(self):
        """Vectorised from_box builds the same basis as the seed row loop."""
        low = np.array([-1.0, 2.0, 0.5, 3.0])
        high = np.array([1.0, 2.0, 1.5, 3.0])
        star = StarSet.from_box(Box(low, high))
        radius = (high - low) / 2.0
        nonzero = np.nonzero(radius)[0]
        expected = np.zeros((nonzero.size, low.size))
        for row, j in enumerate(nonzero):
            expected[row, j] = radius[j]
        np.testing.assert_array_equal(star.basis, expected)
        assert star.is_hypercube_domain
        lo, hi = star.bounds()
        np.testing.assert_allclose(lo, low, atol=1e-12)
        np.testing.assert_allclose(hi, high, atol=1e-12)


class TestAffine:
    def test_affine_exactness_matches_interval_arithmetic_for_single_layer(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        star = StarSet.from_box(box)
        weights = np.array([[1.0, 2.0], [1.0, -1.0]])
        bias = np.array([0.0, 0.5])
        low, high = star.affine(weights, bias).bounds()
        expected = box_affine(box, weights, bias)
        np.testing.assert_allclose(low, expected.low, atol=1e-7)
        np.testing.assert_allclose(high, expected.high, atol=1e-7)

    def test_affine_dimension_mismatch_rejected(self):
        star = StarSet.from_point(np.zeros(2))
        with pytest.raises(ShapeError):
            star.affine(np.zeros((3, 1)), np.zeros(1))

    def test_star_tighter_or_equal_to_box_after_two_layers(self):
        rng = np.random.default_rng(11)
        box = Box.from_center(rng.normal(size=3), 0.4)
        w1, b1 = rng.normal(size=(3, 5)), rng.normal(size=5)
        w2, b2 = rng.normal(size=(5, 2)), rng.normal(size=2)
        box_image = box_affine(box_affine(box, w1, b1), w2, b2)
        star_image = StarSet.from_box(box).affine(w1, b1).affine(w2, b2).to_box()
        assert star_image.width_sum() <= box_image.width_sum() + 1e-6
        assert contains_box(box_image, star_image, tolerance=1e-6)


class TestReLU:
    def test_stable_negative_dimension_is_zeroed(self):
        star = StarSet(np.array([-3.0]), np.array([[0.5]]))
        low, high = star.relu(star.bounds()).bounds()
        np.testing.assert_allclose(low, [0.0], atol=1e-9)
        np.testing.assert_allclose(high, [0.0], atol=1e-9)

    def test_stable_positive_dimension_unchanged(self):
        star = StarSet(np.array([3.0]), np.array([[0.5]]))
        low, high = star.relu(star.bounds()).bounds()
        np.testing.assert_allclose(low, [2.5], atol=1e-7)
        np.testing.assert_allclose(high, [3.5], atol=1e-7)

    def test_unstable_dimension_triangle_relaxation_bounds(self):
        star = StarSet(np.array([0.5]), np.array([[1.5]]))  # pre-activation [-1, 2]
        low, high = star.relu(star.bounds()).bounds()
        assert low[0] <= 1e-7
        assert high[0] >= 2.0 - 1e-7

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_relu_soundness_property(self, seed):
        rng = np.random.default_rng(seed)
        box = Box.from_center(rng.normal(size=3), rng.uniform(0.1, 1.0, size=3))
        star = StarSet.from_box(box)
        weights = rng.normal(size=(3, 3))
        bias = rng.normal(size=3)
        image = star.affine(weights, bias)
        transformed = image.relu(image.bounds())
        out_box = transformed.to_box()
        for point in box.sample(30, rng=rng):
            concrete = np.maximum(point @ weights + bias, 0.0)
            assert out_box.contains(concrete, tolerance=1e-6)

    def test_star_relu_at_least_as_tight_as_box_relu(self):
        rng = np.random.default_rng(23)
        box = Box.from_center(rng.normal(size=4), 0.6)
        weights, bias = rng.normal(size=(4, 4)), rng.normal(size=4)
        box_out = box_elementwise_monotone(
            box_affine(box, weights, bias), lambda x: np.maximum(x, 0.0)
        )
        image = StarSet.from_box(box).affine(weights, bias)
        star_out = image.relu(image.bounds()).to_box()
        assert star_out.width_sum() <= box_out.width_sum() + 1e-6


def _relu_bounds(rng, dimension, mode):
    """Pre-activation bounds whose every neuron is stable or unstable per ``mode``."""
    if mode == "unstable":
        return -rng.uniform(0.05, 1.0, dimension), rng.uniform(0.05, 1.0, dimension)
    width = rng.uniform(0.0, 2.0, size=dimension)
    if mode == "stable":
        # Each neuron either positive (low >= 0) or negative (high <= 0).
        low = np.where(rng.random(dimension) < 0.5, rng.uniform(0.0, 1.0, dimension), -3.0)
        return low, np.where(low < 0.0, -rng.uniform(0.0, 1.0, dimension), low + width)
    low = rng.normal(size=dimension)
    return low, low + width


class TestVectorisedReLU:
    """:meth:`StarSet.relu` is pinned bit for bit to the seed per-neuron loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        predicates=st.integers(0, 5),
        dimension=st.integers(1, 6),
        mode=st.sampled_from(["mixed", "stable", "unstable"]),
        constrained=st.booleans(),
    )
    def test_relu_matches_loop_bitwise(self, seed, predicates, dimension, mode, constrained):
        rng = np.random.default_rng(seed)
        star = StarSet(rng.normal(size=dimension), rng.normal(size=(predicates, dimension)))
        if constrained:
            # An earlier unstable ReLU: a constrained polytope with a box.
            star = star.relu(_relu_bounds(rng, dimension, "unstable")).affine(
                rng.normal(size=(dimension, dimension)), rng.normal(size=dimension)
            )
        bounds = _relu_bounds(rng, dimension, mode)
        result = star.relu(bounds)
        reference = star_relu_loop(star, bounds)
        for name in ("center", "basis", "constraints_a", "constraints_b"):
            np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
        assert result.is_hypercube_domain == reference.is_hypercube_domain

        unstable = (bounds[0] < 0.0) & (bounds[1] > 0.0)
        box_low, box_high = result.predicate_box
        np.testing.assert_array_equal(
            box_low, np.concatenate([star.predicate_box[0], np.zeros(unstable.sum())])
        )
        np.testing.assert_array_equal(
            box_high, np.concatenate([star.predicate_box[1], bounds[1][unstable]])
        )
        if mode == "stable":
            assert result.constraints_a is star.constraints_a
        if mode == "unstable":
            assert result.num_predicates == star.num_predicates + dimension

    def test_relu_keeps_an_unbounded_box_unbounded(self):
        star = StarSet(
            np.zeros(2), np.eye(2), np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
        )
        assert star.predicate_box is None
        result = star.relu((np.array([-1.0, 0.5]), np.array([1.0, 1.5])))
        assert result.predicate_box is None
        assert result.num_predicates == 3

    def test_default_domain_box_is_the_hypercube(self):
        star = StarSet.from_box(Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])))
        np.testing.assert_array_equal(star.predicate_box[0], [-1.0, -1.0])
        np.testing.assert_array_equal(star.predicate_box[1], [1.0, 1.0])
        with pytest.raises(ShapeError):
            StarSet(
                np.zeros(2),
                np.eye(2),
                np.vstack([np.eye(2), -np.eye(2)]),
                np.ones(4),
                predicate_box=(np.zeros(1), np.ones(1)),
            )


class TestMonotone:
    def test_elementwise_monotone_matches_box_transform(self):
        star = StarSet.from_box(Box(np.array([-1.0]), np.array([2.0])))
        image = star.elementwise_monotone(
            lambda lo, hi: (np.tanh(lo), np.tanh(hi)), star.bounds()
        )
        low, high = image.bounds()
        np.testing.assert_allclose(low, np.tanh([-1.0]), atol=1e-7)
        np.testing.assert_allclose(high, np.tanh([2.0]), atol=1e-7)
