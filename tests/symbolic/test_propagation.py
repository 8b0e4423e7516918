"""Tests for unified network bound propagation and the perturbation estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, LayerIndexError
from repro.symbolic.interval import Box
from repro.symbolic.propagation import (
    PROPAGATION_METHODS,
    perturbation_bounds,
    propagate_bounds,
)


class TestPropagateBounds:
    @pytest.mark.parametrize("method", PROPAGATION_METHODS)
    def test_degenerate_box_equals_concrete_output(self, tiny_network, tiny_inputs, method):
        x = tiny_inputs[0]
        box = Box.from_point(x)
        result = propagate_bounds(tiny_network, box, 0, tiny_network.num_layers, method)
        concrete = tiny_network.forward(x)
        assert result.contains(concrete, tolerance=1e-6)
        assert result.width_sum() < 1e-6

    @pytest.mark.parametrize("method", PROPAGATION_METHODS)
    def test_soundness_on_sampled_perturbations(self, tiny_network, tiny_inputs, method):
        x = tiny_inputs[1]
        delta = 0.1
        box = Box.from_center(x, delta)
        result = propagate_bounds(tiny_network, box, 0, 4, method)
        rng = np.random.default_rng(0)
        for perturbed in box.sample(40, rng=rng):
            value = tiny_network.forward_to(4, perturbed)
            assert result.contains(value, tolerance=1e-6)

    def test_zonotope_no_looser_than_box(self, tiny_network, tiny_inputs):
        box = Box.from_center(tiny_inputs[2], 0.05)
        box_result = propagate_bounds(tiny_network, box, 0, tiny_network.num_layers, "box")
        zonotope_result = propagate_bounds(
            tiny_network, box, 0, tiny_network.num_layers, "zonotope"
        )
        assert zonotope_result.width_sum() <= box_result.width_sum() + 1e-9

    def test_star_no_looser_than_box(self, tiny_network, tiny_inputs):
        box = Box.from_center(tiny_inputs[3], 0.05)
        box_result = propagate_bounds(tiny_network, box, 0, 4, "box")
        star_result = propagate_bounds(tiny_network, box, 0, 4, "star")
        assert star_result.width_sum() <= box_result.width_sum() + 1e-6

    def test_tanh_network_supported_by_all_backends(self, tiny_tanh_network):
        x = np.zeros(tiny_tanh_network.input_dim)
        box = Box.from_center(x, 0.1)
        for method in PROPAGATION_METHODS:
            result = propagate_bounds(
                tiny_tanh_network, box, 0, tiny_tanh_network.num_layers, method
            )
            concrete = tiny_tanh_network.forward(x)
            assert result.contains(concrete, tolerance=1e-6)

    def test_unknown_method_rejected(self, tiny_network, tiny_inputs):
        box = Box.from_point(tiny_inputs[0])
        with pytest.raises(ConfigurationError):
            propagate_bounds(tiny_network, box, 0, 2, method="octagon")

    def test_unknown_method_is_a_value_error_listing_backends(
        self, tiny_network, tiny_inputs
    ):
        """An unknown back-end must fail as a ValueError naming the choices."""
        box = Box.from_point(tiny_inputs[0])
        with pytest.raises(ValueError) as excinfo:
            propagate_bounds(tiny_network, box, 0, 2, method="octagon")
        message = str(excinfo.value)
        assert "octagon" in message
        for backend in PROPAGATION_METHODS:
            assert backend in message

    @pytest.mark.parametrize("method", PROPAGATION_METHODS)
    def test_invalid_slice_rejected(self, tiny_network, tiny_inputs, method):
        box = Box.from_point(tiny_inputs[0])
        with pytest.raises(LayerIndexError):
            propagate_bounds(tiny_network, box, 2, 2, method)
        with pytest.raises(LayerIndexError):
            propagate_bounds(tiny_network, box, 5, 3, method)


class TestPerturbationBounds:
    def test_zero_delta_gives_point_box(self, tiny_network, tiny_inputs):
        x = tiny_inputs[0]
        result = perturbation_bounds(tiny_network, x, monitored_layer=4, delta=0.0)
        concrete = tiny_network.forward_to(4, x)
        np.testing.assert_allclose(result.low, concrete, atol=1e-12)
        np.testing.assert_allclose(result.high, concrete, atol=1e-12)

    def test_bounds_contain_unperturbed_feature(self, tiny_network, tiny_inputs):
        x = tiny_inputs[4]
        result = perturbation_bounds(tiny_network, x, monitored_layer=4, delta=0.05)
        assert result.contains(tiny_network.forward_to(4, x), tolerance=1e-9)

    def test_bounds_widen_monotonically_with_delta(self, tiny_network, tiny_inputs):
        x = tiny_inputs[5]
        widths = [
            perturbation_bounds(tiny_network, x, monitored_layer=4, delta=delta).width_sum()
            for delta in (0.01, 0.05, 0.1)
        ]
        assert widths[0] <= widths[1] <= widths[2]

    def test_feature_level_perturbation_layer(self, tiny_network, tiny_inputs):
        """Perturbation at a hidden layer (k_p > 0) also yields sound bounds."""
        x = tiny_inputs[6]
        delta = 0.1
        k_p, k = 2, 4
        result = perturbation_bounds(
            tiny_network, x, monitored_layer=k, perturbation_layer=k_p, delta=delta
        )
        anchor = tiny_network.forward_to(k_p, x)
        rng = np.random.default_rng(1)
        for _ in range(30):
            perturbed_feature = anchor + rng.uniform(-delta, delta, size=anchor.shape)
            value = tiny_network.forward_from_to(k_p + 1, k, perturbed_feature)
            assert result.contains(value, tolerance=1e-6)

    def test_negative_delta_rejected(self, tiny_network, tiny_inputs):
        with pytest.raises(ConfigurationError):
            perturbation_bounds(tiny_network, tiny_inputs[0], monitored_layer=3, delta=-0.1)

    def test_perturbation_layer_after_monitored_layer_rejected(self, tiny_network, tiny_inputs):
        with pytest.raises(ConfigurationError):
            perturbation_bounds(
                tiny_network,
                tiny_inputs[0],
                monitored_layer=2,
                perturbation_layer=3,
                delta=0.1,
            )

    @settings(max_examples=15, deadline=None)
    @given(delta=st.floats(0.0, 0.2), seed=st.integers(0, 10_000))
    def test_definition1_property(self, tiny_network, tiny_inputs, delta, seed):
        """Definition 1: every Δ-perturbation of the input maps inside the estimate."""
        x = tiny_inputs[7]
        k = tiny_network.num_layers
        estimate = perturbation_bounds(tiny_network, x, monitored_layer=k, delta=delta)
        rng = np.random.default_rng(seed)
        perturbed = x + rng.uniform(-delta, delta, size=x.shape)
        value = tiny_network.forward(perturbed)
        assert estimate.contains(value, tolerance=1e-6)
