"""Tests for layer forward/backward passes and box propagation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.activations import ReLU
from repro.nn.layers import (
    ActivationLayer,
    Dense,
    Dropout,
    Flatten,
    Scale,
    layer_from_config,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1)


def build(layer, input_dim, rng):
    layer.build(input_dim, rng)
    return layer


class TestDense:
    def test_forward_matches_manual_affine(self, rng):
        layer = build(Dense(3), 2, rng)
        layer.set_weights(
            [np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 1.0]]), np.array([0.1, 0.2, 0.3])]
        )
        x = np.array([[2.0, 4.0]])
        expected = x @ layer.weights + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_forward_rejects_wrong_feature_count(self, rng):
        layer = build(Dense(3), 4, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_gradients_match_finite_differences(self, rng):
        layer = build(Dense(3), 4, rng)
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))

        layer.zero_gradients()
        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)

        # Finite-difference check of dL/dW for L = sum(output * grad_out).
        h = 1e-6
        numeric = np.zeros_like(layer.weights)
        for i in range(layer.weights.shape[0]):
            for j in range(layer.weights.shape[1]):
                layer.weights[i, j] += h
                up = np.sum(layer.forward(x) * grad_out)
                layer.weights[i, j] -= 2 * h
                down = np.sum(layer.forward(x) * grad_out)
                layer.weights[i, j] += h
                numeric[i, j] = (up - down) / (2 * h)
        np.testing.assert_allclose(layer.gradients()["weights"], numeric, atol=1e-4)
        # Gradient w.r.t. the input equals grad_out @ W^T.
        np.testing.assert_allclose(grad_in, grad_out @ layer.weights.T)

    def test_backward_without_training_forward_raises(self, rng):
        layer = build(Dense(2), 2, rng)
        layer.forward(np.zeros((1, 2)), training=False)
        with pytest.raises(ConfigurationError):
            layer.backward(np.zeros((1, 2)))

    def test_invalid_units_rejected(self):
        with pytest.raises(ConfigurationError):
            Dense(0)

    def test_set_weights_validates_shapes(self, rng):
        layer = build(Dense(3), 2, rng)
        with pytest.raises(ShapeError):
            layer.set_weights([np.zeros((2, 3)), np.zeros(4)])


class TestActivationLayer:
    def test_accepts_name_or_instance(self):
        assert isinstance(ActivationLayer("relu").activation, ReLU)
        assert isinstance(ActivationLayer(ReLU()).activation, ReLU)

    def test_rejects_other_objects(self):
        with pytest.raises(ConfigurationError):
            ActivationLayer(42)

    def test_forward_and_backward(self, rng):
        layer = build(ActivationLayer("relu"), 3, rng)
        x = np.array([[-1.0, 0.5, 2.0]])
        np.testing.assert_array_equal(layer.forward(x, training=True), [[0.0, 0.5, 2.0]])
        grad = layer.backward(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 1.0]])


class TestDropout:
    def test_inference_is_identity(self, rng):
        layer = build(Dropout(0.5, seed=0), 4, rng)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_some_entries_and_rescales(self, rng):
        layer = build(Dropout(0.5, seed=0), 100, rng)
        x = np.ones((1, 100))
        out = layer.forward(x, training=True)
        dropped = np.sum(out == 0.0)
        assert 20 < dropped < 80
        kept_values = out[out != 0.0]
        np.testing.assert_allclose(kept_values, 2.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestFlattenAndScale:
    def test_flatten_reshapes_images(self, rng):
        layer = build(Flatten(), 9, rng)
        x = rng.normal(size=(2, 3, 3))
        assert layer.forward(x).shape == (2, 9)

    def test_scale_forward(self, rng):
        layer = build(Scale(scale=2.0, shift=1.0), 3, rng)
        x = np.array([[1.0, -1.0, 0.0]])
        np.testing.assert_allclose(layer.forward(x), [[3.0, -1.0, 1.0]])

    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            Scale(scale=0.0)


class TestSerializationRoundTrip:
    @pytest.mark.parametrize(
        "layer",
        [
            Dense(4),
            ActivationLayer("sigmoid"),
            Dropout(0.25),
            Flatten(),
            Scale(scale=0.5, shift=-1.0),
        ],
        ids=lambda layer: type(layer).__name__,
    )
    def test_config_round_trip(self, layer, rng):
        config = layer.get_config()
        rebuilt = layer_from_config(config)
        assert type(rebuilt) is type(layer)
        assert rebuilt.get_config() == config

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ConfigurationError):
            layer_from_config({"type": "Conv9D"})
