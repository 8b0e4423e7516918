"""Batched-vs-single equivalence and soundness of the batched domains.

The batched box must agree with the single-sample box to floating-point
round-off (the arithmetic per row is identical; only BLAS kernel selection
differs between matrix-vector and matrix-matrix products).  The batched
zonotope introduces zero generator slots for batch uniformity, which
reassociates bound sums, so its agreement is pinned at a tight tolerance.
The star back-end walks all rows in lockstep and answers bound queries
through the star-LP backends: bit-identical to the single-row walk while
every polytope is still a hypercube (closed-form tier), and LP-tolerance
close once unstable ReLUs make the bounds come from stacked HiGHS solves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import ActivationLayer, Dense, Dropout, Flatten, Scale
from repro.nn.network import Sequential, mlp
from repro.symbolic.batched import BatchedBox, BatchedZonotope
from repro.symbolic.interval import Box
from repro.symbolic.propagation import (
    perturbation_bounds,
    perturbation_bounds_batch,
    propagate_bounds,
    propagate_bounds_batch,
)

from ..oracles.symbolic import Zonotope

#: Tight agreement tolerance: identical arithmetic, possibly different
#: BLAS kernels / summation groupings.
RTOL = 1e-10
ATOL = 1e-12


def assert_rowwise_close(batched, single, label=""):
    np.testing.assert_allclose(batched, single, rtol=RTOL, atol=ATOL, err_msg=label)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(4242)


@pytest.fixture(scope="module")
def relu_network():
    return mlp(6, [12, 9], 3, activation="relu", seed=21)


@pytest.fixture(scope="module")
def tanh_network():
    return mlp(5, [8, 6], 2, activation="tanh", seed=22)


@pytest.fixture(scope="module")
def mixed_network():
    """Network exercising Scale, Dropout and Flatten propagation rules."""
    return Sequential(
        [
            Scale(scale=0.5, shift=0.1),
            Dense(10),
            ActivationLayer("relu"),
            Dropout(rate=0.3),
            Flatten(),
            Dense(4),
        ],
        input_dim=6,
        seed=23,
    )


# ----------------------------------------------------------------------
# BatchedBox unit behaviour
# ----------------------------------------------------------------------
class TestBatchedBox:
    def test_from_centers_and_points(self, rng):
        centers = rng.normal(size=(7, 4))
        box = BatchedBox.from_centers(centers, 0.25)
        assert box.batch_size == 7 and box.dimension == 4
        assert_rowwise_close(box.centers, centers)
        assert_rowwise_close(box.radii, np.full((7, 4), 0.25))
        points = BatchedBox.from_points(centers)
        np.testing.assert_array_equal(points.lows, points.highs)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ShapeError):
            BatchedBox(np.ones((2, 3)), np.zeros((2, 3)))

    def test_rejects_negative_radius(self):
        with pytest.raises(ShapeError):
            BatchedBox.from_centers(np.zeros((2, 3)), -0.1)

    def test_affine_matches_single_box(self, rng):
        lows = rng.normal(size=(5, 4))
        highs = lows + rng.uniform(0, 1, size=(5, 4))
        weights = rng.normal(size=(4, 6))
        bias = rng.normal(size=6)
        batched = BatchedBox(lows, highs).affine(weights, bias)
        for i in range(5):
            single = Box(lows[i], highs[i]).affine(weights, bias)
            assert_rowwise_close(batched.lows[i], single.low, f"row {i} low")
            assert_rowwise_close(batched.highs[i], single.high, f"row {i} high")

    def test_contains_points_rowwise(self, rng):
        centers = rng.normal(size=(6, 3))
        box = BatchedBox.from_centers(centers, 0.5)
        inside = box.contains_points(centers)
        assert inside.all()
        outside = np.array(centers, copy=True)
        outside[2] += 10.0
        flags = box.contains_points(outside)
        assert not flags[2] and flags[[0, 1, 3, 4, 5]].all()

    def test_dimension_mismatch_raises(self):
        box = BatchedBox(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            box.affine(np.eye(4), np.zeros(4))


# ----------------------------------------------------------------------
# BatchedZonotope unit behaviour
# ----------------------------------------------------------------------
class TestBatchedZonotope:
    def test_from_batched_box_bounds_roundtrip(self, rng):
        centers = rng.normal(size=(4, 5))
        box = BatchedBox.from_centers(centers, 0.2)
        zono = BatchedZonotope.from_batched_box(box)
        lows, highs = zono.bounds()
        assert_rowwise_close(lows, box.lows)
        assert_rowwise_close(highs, box.highs)

    def test_affine_matches_single_zonotope(self, rng):
        centers = rng.normal(size=(5, 4))
        box = BatchedBox.from_centers(centers, 0.3)
        weights = rng.normal(size=(4, 7))
        bias = rng.normal(size=7)
        batched = BatchedZonotope.from_batched_box(box).affine(weights, bias)
        b_lows, b_highs = batched.bounds()
        for i in range(5):
            single = Zonotope.from_box(Box(box.lows[i], box.highs[i])).affine(
                weights, bias
            )
            s_low, s_high = single.bounds()
            assert_rowwise_close(b_lows[i], s_low, f"row {i} low")
            assert_rowwise_close(b_highs[i], s_high, f"row {i} high")

    def test_relu_matches_single_zonotope(self, rng):
        # Centers straddling zero so all three ReLU cases occur.
        centers = rng.normal(scale=0.5, size=(8, 6))
        box = BatchedBox.from_centers(centers, 0.4)
        weights = rng.normal(size=(6, 6))
        bias = rng.normal(size=6)
        batched = (
            BatchedZonotope.from_batched_box(box).affine(weights, bias).relu()
        )
        b_lows, b_highs = batched.bounds()
        for i in range(8):
            single = (
                Zonotope.from_box(Box(box.lows[i], box.highs[i]))
                .affine(weights, bias)
                .relu()
            )
            s_low, s_high = single.bounds()
            assert_rowwise_close(b_lows[i], s_low, f"row {i} low")
            assert_rowwise_close(b_highs[i], s_high, f"row {i} high")

    def test_zero_slot_pruning_preserves_bounds(self, rng):
        centers = rng.normal(size=(3, 4))
        radii = np.zeros((3, 4))
        radii[:, 1] = 0.5  # only one active dimension -> 3 prunable slots
        box = BatchedBox(centers - radii, centers + radii)
        zono = BatchedZonotope.from_batched_box(box)
        assert zono.num_generators == 1
        lows, highs = zono.bounds()
        assert_rowwise_close(lows, box.lows)
        assert_rowwise_close(highs, box.highs)

    def test_generator_shape_validation(self):
        with pytest.raises(ShapeError):
            BatchedZonotope(np.zeros((2, 3)), np.zeros((2, 4, 2)))

    def test_degenerate_box_round_trip(self):
        low, high = np.array([[-1.0, 2.0, 0.0]]), np.array([[1.0, 3.0, 0.0]])
        zono = BatchedZonotope.from_batched_box(BatchedBox(low, high))
        assert zono.num_generators == 2  # no symbol for the degenerate dimension
        lows, highs = zono.bounds()
        np.testing.assert_allclose(lows, low)
        np.testing.assert_allclose(highs, high)

    def test_points_have_no_generators(self):
        zono = BatchedZonotope.from_batched_box(BatchedBox.from_points(np.ones((2, 3))))
        assert zono.num_generators == 0
        np.testing.assert_array_equal(zono.radii(), np.zeros((2, 3)))

    def test_affine_is_exact_for_linear_maps(self):
        box = BatchedBox(np.array([[0.0, -1.0]]), np.array([[2.0, 1.0]]))
        weights = np.array([[1.0, 1.0], [1.0, -1.0]])
        image = BatchedZonotope.from_batched_box(box).affine(weights, np.array([0.5, 0.0]))
        lows, highs = image.bounds()
        # dim 0: x0 + x1 + 0.5 with x0 in [0,2], x1 in [-1,1] -> [-0.5, 3.5]
        # dim 1: x0 - x1                                      -> [-1.0, 3.0]
        np.testing.assert_allclose(lows, [[-0.5, -1.0]])
        np.testing.assert_allclose(highs, [[3.5, 3.0]])

    def test_affine_dimension_mismatch_rejected(self):
        zono = BatchedZonotope.from_batched_box(BatchedBox.from_points(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            zono.affine(np.zeros((3, 2)), np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_affine_soundness_property(self, seed):
        """Concrete affine images of sampled points stay in the bounds."""
        rng = np.random.default_rng(seed)
        box = BatchedBox.from_centers(rng.normal(size=(2, 3)), rng.uniform(0.0, 1.0, size=3))
        weights, bias = rng.normal(size=(3, 4)), rng.normal(size=4)
        lows, highs = BatchedZonotope.from_batched_box(box).affine(weights, bias).bounds()
        for row in range(2):
            points = rng.uniform(box.lows[row], box.highs[row], size=(50, 3))
            images = points @ weights + bias
            assert np.all(images >= lows[row] - 1e-7) and np.all(images <= highs[row] + 1e-7)

    def test_tighter_than_box_after_two_affine_layers(self):
        """Correlation tracking makes zonotopes at least as tight as boxes."""
        rng = np.random.default_rng(3)
        box = BatchedBox.from_centers(rng.normal(size=(1, 4)), 0.5)
        w1, b1 = rng.normal(size=(4, 6)), rng.normal(size=6)
        w2, b2 = rng.normal(size=(6, 3)), rng.normal(size=3)
        box_image = box.affine(w1, b1).affine(w2, b2)
        lows, highs = (
            BatchedZonotope.from_batched_box(box).affine(w1, b1).affine(w2, b2).bounds()
        )
        assert np.sum(highs - lows) <= np.sum(box_image.highs - box_image.lows) + 1e-9
        assert np.all(lows >= box_image.lows - 1e-9) and np.all(highs <= box_image.highs + 1e-9)

    @pytest.mark.parametrize(
        "center,expected",
        [(2.0, ([1.5], [2.5])), (-2.0, ([0.0], [0.0]))],
        ids=["stable-positive-unchanged", "stable-negative-zero"],
    )
    def test_relu_stable_neurons(self, center, expected):
        zono = BatchedZonotope(np.array([[center]]), np.array([[[0.5]]]))
        lows, highs = zono.relu().bounds()
        np.testing.assert_allclose(lows[0], expected[0])
        np.testing.assert_allclose(highs[0], expected[1])

    def test_relu_unstable_neuron_contains_image(self):
        zono = BatchedZonotope(np.array([[0.0]]), np.array([[[1.0]]]))  # [-1, 1]
        lows, highs = zono.relu().bounds()
        assert lows[0, 0] <= 1e-12 and highs[0, 0] >= 1.0 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_relu_soundness_property(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(2, 4))
        generators = rng.normal(size=(2, 3, 4)) * 0.5
        lows, highs = BatchedZonotope(centers, generators).relu().bounds()
        eps = rng.uniform(-1, 1, size=(60, 3))
        for row in range(2):
            outputs = np.maximum(centers[row] + eps @ generators[row], 0.0)
            assert np.all(outputs >= lows[row] - 1e-9)
            assert np.all(outputs <= highs[row] + 1e-9)

    def test_elementwise_monotone_uses_bound_transform(self):
        zono = BatchedZonotope(np.array([[0.0]]), np.array([[[2.0]]]))
        image = zono.elementwise_monotone(lambda lo, hi: (np.tanh(lo), np.tanh(hi)))
        lows, highs = image.bounds()
        np.testing.assert_allclose(lows[0], np.tanh([-2.0]))
        np.testing.assert_allclose(highs[0], np.tanh([2.0]))


# ----------------------------------------------------------------------
# Whole-network batched propagation vs the single-sample back-ends
# ----------------------------------------------------------------------
NETWORK_CASES = [
    ("relu_network", 6, 4),
    ("tanh_network", 5, 4),
    ("mixed_network", 6, 6),
]


@pytest.mark.parametrize("method", ["box", "zonotope", "star"])
@pytest.mark.parametrize("fixture_name,input_dim,to_layer", NETWORK_CASES)
def test_propagate_bounds_batch_matches_single(
    request, rng, method, fixture_name, input_dim, to_layer
):
    network = request.getfixturevalue(fixture_name)
    batch = 6 if method == "star" else 16
    centers = rng.uniform(-1.0, 1.0, size=(batch, input_dim))
    delta = 0.05
    lows, highs = propagate_bounds_batch(
        network, centers - delta, centers + delta, 0, to_layer, method=method
    )
    assert lows.shape == (batch, network.layer_output_dim(to_layer))
    for i in range(batch):
        single = propagate_bounds(
            network, Box.from_center(centers[i], delta), 0, to_layer, method=method
        )
        assert_rowwise_close(lows[i], single.low, f"{method} row {i} low")
        assert_rowwise_close(highs[i], single.high, f"{method} row {i} high")


@pytest.mark.parametrize("method", ["box", "zonotope", "star"])
@pytest.mark.parametrize("delta", [0.0, 0.03])
@pytest.mark.parametrize("perturbation_layer", [0, 2])
def test_perturbation_bounds_batch_matches_single(
    relu_network, rng, method, delta, perturbation_layer
):
    batch = 5 if method == "star" else 12
    inputs = rng.uniform(-1.0, 1.0, size=(batch, 6))
    monitored = 4
    lows, highs = perturbation_bounds_batch(
        relu_network, inputs, monitored, perturbation_layer, delta, method
    )
    for i in range(batch):
        single = perturbation_bounds(
            relu_network, inputs[i], monitored, perturbation_layer, delta, method
        )
        assert_rowwise_close(lows[i], single.low, f"{method} row {i} low")
        assert_rowwise_close(highs[i], single.high, f"{method} row {i} high")


def test_star_batched_rows_match_single_exactly_on_hypercube_walk(tanh_network, rng):
    """Monotone activations keep every star a hypercube: closed-form tier only.

    The closed-form tier is pure (identical) arithmetic per row whether rows
    are computed singly or stacked, so agreement is bitwise.
    """
    inputs = rng.uniform(-1.0, 1.0, size=(7, 5))
    lows, highs = perturbation_bounds_batch(tanh_network, inputs, 4, 0, 0.05, "star")
    for i in range(inputs.shape[0]):
        single = perturbation_bounds(tanh_network, inputs[i], 4, 0, 0.05, "star")
        np.testing.assert_array_equal(lows[i], single.low)
        np.testing.assert_array_equal(highs[i], single.high)


def test_star_batched_rows_match_single_on_lp_walk(relu_network, rng):
    """Unstable ReLUs constrain the polytopes: stacked-LP tier, 1e-6 pin."""
    inputs = rng.uniform(-1.0, 1.0, size=(7, 6))
    lows, highs = perturbation_bounds_batch(relu_network, inputs, 4, 0, 0.02, "star")
    for i in range(inputs.shape[0]):
        single = perturbation_bounds(relu_network, inputs[i], 4, 0, 0.02, "star")
        np.testing.assert_allclose(lows[i], single.low, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(highs[i], single.high, rtol=0.0, atol=1e-6)


def test_zonotope_chunked_walk_matches_unchunked(relu_network, rng, monkeypatch):
    """Row chunking (memory bound) must not change zonotope bounds."""
    from repro.symbolic import propagation as propagation_module

    inputs = rng.uniform(-1.0, 1.0, size=(11, 6))
    reference = perturbation_bounds_batch(relu_network, inputs, 4, 0, 0.05, "zonotope")
    # Force a tiny element budget so the walk splits into several chunks.
    monkeypatch.setattr(propagation_module, "ZONOTOPE_CHUNK_ELEMENTS", 1)
    chunked = perturbation_bounds_batch(relu_network, inputs, 4, 0, 0.05, "zonotope")
    assert_rowwise_close(chunked[0], reference[0])
    assert_rowwise_close(chunked[1], reference[1])


def test_anchor_override_matches_recomputation(relu_network, rng):
    inputs = rng.uniform(-1.0, 1.0, size=(9, 6))
    anchors = relu_network.forward_to(2, inputs)
    direct = perturbation_bounds_batch(relu_network, inputs, 4, 2, 0.05, "box")
    via_anchors = perturbation_bounds_batch(
        relu_network, inputs, 4, 2, 0.05, "box", anchors=anchors
    )
    np.testing.assert_array_equal(direct[0], via_anchors[0])
    np.testing.assert_array_equal(direct[1], via_anchors[1])


def test_anchor_row_count_mismatch_raises(relu_network, rng):
    inputs = rng.uniform(-1.0, 1.0, size=(4, 6))
    anchors = relu_network.forward_to(2, inputs)[:3]
    with pytest.raises(ConfigurationError):
        perturbation_bounds_batch(
            relu_network, inputs, 4, 2, 0.05, "box", anchors=anchors
        )


# ----------------------------------------------------------------------
# Property-based soundness: batched bounds contain concrete perturbations
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.floats(min_value=1e-4, max_value=0.3),
    method=st.sampled_from(["box", "zonotope"]),
)
def test_batched_bounds_contain_perturbed_outputs(
    relu_network, seed, delta, method
):
    """Soundness: every Δ-perturbation of every row lands inside its bound."""
    local_rng = np.random.default_rng(seed)
    inputs = local_rng.uniform(-1.0, 1.0, size=(6, 6))
    monitored = 4
    lows, highs = perturbation_bounds_batch(
        relu_network, inputs, monitored, 0, delta, method
    )
    noise = local_rng.uniform(-delta, delta, size=(5,) + inputs.shape)
    for perturbed in inputs[None, :, :] + noise:
        outputs = np.atleast_2d(relu_network.forward_to(monitored, perturbed))
        assert np.all(outputs >= lows - 1e-9), "lower bound violated"
        assert np.all(outputs <= highs + 1e-9), "upper bound violated"


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.floats(min_value=1e-4, max_value=0.2),
)
def test_batched_feature_level_bounds_contain_outputs(tanh_network, seed, delta):
    """Soundness at a feature-level perturbation layer (k_p > 0)."""
    local_rng = np.random.default_rng(seed)
    inputs = local_rng.uniform(-1.0, 1.0, size=(5, 5))
    monitored, k_p = 4, 2
    lows, highs = perturbation_bounds_batch(
        tanh_network, inputs, monitored, k_p, delta, "box"
    )
    anchors = np.atleast_2d(tanh_network.forward_to(k_p, inputs))
    noise = local_rng.uniform(-delta, delta, size=(4,) + anchors.shape)
    for perturbed in anchors[None, :, :] + noise:
        outputs = np.atleast_2d(
            tanh_network.forward_from_to(k_p + 1, monitored, perturbed)
        )
        assert np.all(outputs >= lows - 1e-9)
        assert np.all(outputs <= highs + 1e-9)
