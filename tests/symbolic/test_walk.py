"""The one layer walk against the seed single-sample walk, and its layer rules.

:func:`repro.symbolic.propagation.propagate_bounds_batch` is the only layer
walk in the library; the single-sample entry points are its N=1 case.  The
property below pins it against the seed single-sample walk kept in
``tests/oracles/symbolic.py`` (its own ``Box`` / ``Zonotope`` / ``StarSet``
walk, no code shared with the batched one) on random small networks built
from every layer type.

* Box: the N=1 call is bit-identical to the oracle.  Across batch sizes
  BLAS picks a matrix-vector kernel for one row and a matrix-matrix kernel
  for many, whose summation orders differ in the last bits, so batched rows
  are pinned to the N=1 call at the tight round-off tolerance.
* Zonotope: tight round-off tolerance (batch-uniform zero generator slots
  reassociate the bound sums).
* Star: the LP-tier tolerance against the seed per-dimension LP loop.

The remaining tests pin the per-layer box rules the walk applies and its
input checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    LayerIndexError,
    PropagationError,
    ShapeError,
)
from repro.nn.layers import ActivationLayer, Dense, Dropout, Flatten, Layer, Scale
from repro.nn.network import Sequential
from repro.symbolic.interval import Box
from repro.symbolic.propagation import propagate_bounds, propagate_bounds_batch

from ..oracles.symbolic import propagate_single

RTOL = 1e-10
ATOL = 1e-12
LP_ATOL = 1e-6


def random_network(rng: np.random.Generator) -> Sequential:
    """A small network mixing every layer type the walk has a rule for."""
    layers = []
    for _ in range(int(rng.integers(2, 7))):
        kind = rng.choice(["dense", "relu", "tanh", "sigmoid", "scale", "dropout", "flatten"])
        if kind == "dense":
            layers.append(Dense(int(rng.integers(1, 6))))
        elif kind in ("relu", "tanh", "sigmoid"):
            layers.append(ActivationLayer(str(kind)))
        elif kind == "scale":
            magnitude = rng.uniform(0.5, 2.0)
            layers.append(Scale(scale=magnitude * rng.choice([-1.0, 1.0]), shift=rng.normal()))
        elif kind == "dropout":
            layers.append(Dropout(rate=0.3))
        else:
            layers.append(Flatten())
    return Sequential(layers, input_dim=int(rng.integers(1, 5)), seed=int(rng.integers(1000)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(["box", "zonotope", "star"]),
    batch=st.integers(1, 4),
    delta=st.floats(1e-3, 0.5),
)
def test_batched_walk_matches_single_sample_oracle(seed, method, batch, delta):
    rng = np.random.default_rng(seed)
    network = random_network(rng)
    from_layer = int(rng.integers(0, network.num_layers))
    to_layer = int(rng.integers(from_layer + 1, network.num_layers + 1))
    width = network.layer_output_dim(from_layer)
    centers = rng.uniform(-1.5, 1.5, size=(batch, width))
    lows, highs = propagate_bounds_batch(
        network, centers - delta, centers + delta, from_layer, to_layer, method
    )
    assert lows.shape == highs.shape == (batch, network.layer_output_dim(to_layer))
    for i in range(batch):
        box = Box(centers[i] - delta, centers[i] + delta)
        single = propagate_bounds(network, box, from_layer, to_layer, method)
        ref_low, ref_high = propagate_single(network, box, from_layer, to_layer, method)
        if method == "box":
            np.testing.assert_array_equal(single.low, ref_low)
            np.testing.assert_array_equal(single.high, ref_high)
            rtol, atol = RTOL, ATOL
        else:
            rtol, atol = (RTOL, ATOL) if method == "zonotope" else (0.0, LP_ATOL)
            np.testing.assert_allclose(single.low, ref_low, rtol=rtol, atol=atol)
            np.testing.assert_allclose(single.high, ref_high, rtol=rtol, atol=atol)
        np.testing.assert_allclose(lows[i], single.low, rtol=rtol, atol=atol)
        np.testing.assert_allclose(highs[i], single.high, rtol=rtol, atol=atol)


def one_layer(layer, input_dim: int) -> Sequential:
    return Sequential([layer], input_dim=input_dim, seed=0)


def box_bounds(network, low, high):
    """Box-walk bounds of one box through the whole network."""
    result = propagate_bounds(
        network, Box(np.asarray(low, float), np.asarray(high, float)), 0, network.num_layers
    )
    return result.low, result.high


class TestBoxLayerRules:
    def test_dense_is_sound_on_samples(self):
        rng = np.random.default_rng(3)
        network = one_layer(Dense(5), 6)
        low = rng.normal(size=6) - 0.5
        high = low + rng.uniform(0.1, 1.0, size=6)
        out_low, out_high = box_bounds(network, low, high)
        outputs = network.forward(rng.uniform(low, high, size=(200, 6)))
        assert np.all(outputs >= out_low[None, :] - 1e-9)
        assert np.all(outputs <= out_high[None, :] + 1e-9)

    def test_dense_is_exact_for_affine(self):
        network = one_layer(Dense(2), 2)
        network.layers[0].set_weights(
            [np.array([[2.0, -1.0], [0.0, 3.0]]), np.array([1.0, -1.0])]
        )
        out_low, out_high = box_bounds(network, [0.0, 0.0], [1.0, 1.0])
        # Exact image bounds: x1*2 in [0,2]; -x1 + 3*x2 in [-1, 3]; plus bias.
        np.testing.assert_allclose(out_low, [1.0, -2.0])
        np.testing.assert_allclose(out_high, [3.0, 2.0])

    def test_activation_uses_monotone_transform(self):
        network = one_layer(ActivationLayer("tanh"), 2)
        low, high = box_bounds(network, [-1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(low, np.tanh([-1.0, 0.0]))
        np.testing.assert_allclose(high, np.tanh([1.0, 2.0]))

    @pytest.mark.parametrize("layer", [Dropout(0.3), Flatten()], ids=["dropout", "flatten"])
    def test_inference_identity_layers(self, layer):
        network = one_layer(layer, 3)
        low, high = box_bounds(network, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(low, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(high, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("method", ["box", "zonotope", "star"])
    def test_scale_and_negative_scale(self, method):
        network = one_layer(Scale(scale=2.0, shift=1.0), 1)
        result = propagate_bounds(network, Box(np.array([-1.0]), np.array([1.0])), 0, 1, method)
        np.testing.assert_allclose((result.low, result.high), ([-1.0], [3.0]))
        network = one_layer(Scale(scale=-1.0), 1)
        result = propagate_bounds(network, Box(np.array([0.0]), np.array([2.0])), 0, 1, method)
        assert result.low[0] == -2.0 and result.high[0] == 0.0


class TestWalkInputChecks:
    @pytest.mark.parametrize("method", ["box", "zonotope", "star"])
    def test_bad_slice_rejected(self, tiny_network, method):
        x = np.zeros((1, tiny_network.input_dim))
        for from_layer, to_layer in ((3, 3), (5, 3), (-1, 2), (0, tiny_network.num_layers + 1)):
            with pytest.raises(LayerIndexError):
                propagate_bounds_batch(tiny_network, x, x, from_layer, to_layer, method)

    def test_wrong_width_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            propagate_bounds_batch(tiny_network, np.zeros((1, 2)), np.zeros((1, 2)), 0, 1)

    def test_low_above_high_rejected(self, tiny_network):
        x = np.zeros((2, tiny_network.input_dim))
        with pytest.raises(ShapeError):
            propagate_bounds_batch(tiny_network, x + 1.0, x, 0, 1)

    def test_unknown_layer_type_rejected(self):
        network = one_layer(Layer(), 2)
        with pytest.raises(PropagationError):
            propagate_bounds_batch(network, np.zeros((1, 2)), np.ones((1, 2)), 0, 1)
