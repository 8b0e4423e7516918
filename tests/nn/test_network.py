"""Tests for the Sequential network: slicing, gradients and serialization."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, LayerIndexError
from repro.nn.layers import ActivationLayer, Dense
from repro.nn.network import Sequential, mlp


class TestConstruction:
    def test_mlp_layer_structure(self):
        network = mlp(4, [8, 6], 2, activation="relu", seed=0)
        assert network.num_layers == 5
        assert network.input_dim == 4
        assert network.output_dim == 2
        assert [network.layer_output_dim(k) for k in range(6)] == [4, 8, 8, 6, 6, 2]

    def test_mlp_with_output_activation(self):
        network = mlp(3, [4], 2, output_activation="sigmoid", seed=0)
        assert network.num_layers == 4
        assert isinstance(network.layers[-1], ActivationLayer)

    def test_mlp_requires_hidden_layers(self):
        with pytest.raises(ConfigurationError):
            mlp(3, [], 2)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([], input_dim=3)

    def test_invalid_input_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([Dense(2)], input_dim=0)

    def test_num_parameters_counts_dense_weights(self):
        network = mlp(4, [8], 2, seed=0)
        # (4*8 + 8) + (8*2 + 2)
        assert network.num_parameters() == 40 + 18


class TestForwardSlicing:
    def test_forward_to_zero_is_identity(self, tiny_network, tiny_inputs):
        np.testing.assert_array_equal(
            tiny_network.forward_to(0, tiny_inputs), tiny_inputs
        )

    def test_forward_to_full_equals_forward(self, tiny_network, tiny_inputs):
        np.testing.assert_allclose(
            tiny_network.forward_to(tiny_network.num_layers, tiny_inputs),
            tiny_network.forward(tiny_inputs),
        )

    def test_composition_identity(self, tiny_network, tiny_inputs):
        """G^k followed by G^{k+1 -> n} equals the full network G."""
        k = 2
        partial = tiny_network.forward_to(k, tiny_inputs)
        completed = tiny_network.forward_from_to(
            k + 1, tiny_network.num_layers, partial
        )
        np.testing.assert_allclose(completed, tiny_network.forward(tiny_inputs))

    def test_single_vector_input_keeps_vector_shape(self, tiny_network, tiny_inputs):
        single = tiny_network.forward(tiny_inputs[0])
        assert single.shape == (tiny_network.output_dim,)

    def test_activations_returns_every_layer(self, tiny_network, tiny_inputs):
        activations = tiny_network.activations(tiny_inputs[0])
        assert len(activations) == tiny_network.num_layers
        for k, value in enumerate(activations, start=1):
            assert value.shape == (tiny_network.layer_output_dim(k),)

    def test_invalid_layer_indices_raise(self, tiny_network, tiny_inputs):
        with pytest.raises(LayerIndexError):
            tiny_network.forward_to(99, tiny_inputs)
        with pytest.raises(LayerIndexError):
            tiny_network.forward_from_to(3, 2, tiny_inputs)
        with pytest.raises(LayerIndexError):
            tiny_network.layer_output_dim(-1)

    def test_predict_classes_shape(self, tiny_network, tiny_inputs):
        classes = tiny_network.predict_classes(tiny_inputs)
        assert classes.shape == (tiny_inputs.shape[0],)
        assert classes.min() >= 0
        assert classes.max() < tiny_network.output_dim

    def test_known_network_computes_expected_value(self, two_layer_affine_relu):
        # x = (1, 1): dense1 -> (1*1 + 1*2, -1*1 + 1*1 + 0.5) = (3, 0.5)
        # relu -> (3, 0.5); dense2 -> 3 + 0.5 - 0.25 = 3.25
        value = two_layer_affine_relu.forward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(value, [3.25])


class TestGradientsAndParameters:
    def test_parameters_and_gradients_share_keys(self, tiny_network):
        assert set(tiny_network.parameters()) == set(tiny_network.gradients())

    def test_backward_accumulates_then_zero_clears(self, tiny_network, tiny_inputs):
        tiny_network.zero_gradients()
        out = tiny_network.forward(tiny_inputs, training=True)
        tiny_network.backward(np.ones_like(out))
        grads = tiny_network.gradients()
        assert any(np.any(g != 0) for g in grads.values())
        tiny_network.zero_gradients()
        assert all(np.all(g == 0) for g in tiny_network.gradients().values())


class TestConfigRoundTrip:
    def test_copy_preserves_behaviour(self, tiny_network, tiny_inputs):
        clone = tiny_network.copy()
        np.testing.assert_allclose(
            clone.forward(tiny_inputs), tiny_network.forward(tiny_inputs)
        )

    def test_copy_is_independent(self, tiny_network, tiny_inputs):
        clone = tiny_network.copy()
        for weight in clone.get_weights():
            weight += 1.0
        clone.set_weights(clone.get_weights())
        assert not np.allclose(
            clone.forward(tiny_inputs), tiny_network.forward(tiny_inputs)
        )

    def test_set_weights_rejects_wrong_count(self, tiny_network):
        with pytest.raises(ConfigurationError):
            tiny_network.set_weights(tiny_network.get_weights()[:-1])
