"""Tests for PerturbationSpec and the Definition-1 perturbation estimate."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.monitors.perturbation import (
    PerturbationSpec,
    collect_bound_arrays,
    perturbation_estimate,
)


class TestPerturbationSpec:
    def test_defaults(self):
        spec = PerturbationSpec()
        assert spec.delta == 0.0
        assert spec.layer == 0
        assert spec.method == "box"
        assert spec.is_trivial

    def test_nontrivial_spec(self):
        spec = PerturbationSpec(delta=0.1, layer=2, method="zonotope")
        assert not spec.is_trivial
        assert "0.1" in spec.describe()
        assert "zonotope" in spec.describe()

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(delta=-0.5)

    def test_negative_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(layer=-1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(method="polyhedron")

    def test_spec_is_hashable_and_frozen(self):
        spec = PerturbationSpec(delta=0.1)
        assert hash(spec) == hash(PerturbationSpec(delta=0.1))
        with pytest.raises(AttributeError):
            spec.delta = 0.2


class TestPerturbationEstimate:
    def test_estimate_contains_unperturbed_feature(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.05)
        estimate = perturbation_estimate(tiny_network, tiny_inputs[0], 4, spec)
        feature = tiny_network.forward_to(4, tiny_inputs[0])
        assert estimate.contains(feature, tolerance=1e-9)

    def test_trivial_spec_gives_point_estimate(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.0)
        estimate = perturbation_estimate(tiny_network, tiny_inputs[1], 3, spec)
        assert estimate.width_sum() == 0.0

    def test_estimate_soundness_on_samples(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.08, layer=0, method="box")
        x = tiny_inputs[2]
        estimate = perturbation_estimate(tiny_network, x, 4, spec)
        rng = np.random.default_rng(0)
        for _ in range(40):
            perturbed = x + rng.uniform(-spec.delta, spec.delta, size=x.shape)
            assert estimate.contains(tiny_network.forward_to(4, perturbed), tolerance=1e-6)

    def test_feature_level_spec(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.1, layer=2)
        estimate = perturbation_estimate(tiny_network, tiny_inputs[3], 4, spec)
        anchor = tiny_network.forward_to(2, tiny_inputs[3])
        rng = np.random.default_rng(1)
        for _ in range(20):
            feature = anchor + rng.uniform(-0.1, 0.1, size=anchor.shape)
            value = tiny_network.forward_from_to(3, 4, feature)
            assert estimate.contains(value, tolerance=1e-6)

    def test_layer_at_or_after_monitored_layer_rejected(self, tiny_network, tiny_inputs):
        with pytest.raises(ConfigurationError):
            perturbation_estimate(
                tiny_network, tiny_inputs[0], 3, PerturbationSpec(delta=0.1, layer=3)
            )

    def test_zonotope_estimate_no_looser_than_box(self, tiny_network, tiny_inputs):
        x = tiny_inputs[4]
        box_estimate = perturbation_estimate(
            tiny_network, x, tiny_network.num_layers, PerturbationSpec(delta=0.05, method="box")
        )
        zonotope_estimate = perturbation_estimate(
            tiny_network,
            x,
            tiny_network.num_layers,
            PerturbationSpec(delta=0.05, method="zonotope"),
        )
        assert zonotope_estimate.width_sum() <= box_estimate.width_sum() + 1e-9


class TestBatchEstimates:
    def test_trivial_spec_batch_matches_features(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.0)
        lows, highs = collect_bound_arrays(tiny_network, tiny_inputs[:5], 4, spec)
        features = tiny_network.forward_to(4, tiny_inputs[:5])
        assert lows.shape == highs.shape == features.shape
        np.testing.assert_allclose(lows, features, atol=1e-9)
        np.testing.assert_allclose(highs, features, atol=1e-9)

    def test_nontrivial_batch_count(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec(delta=0.02)
        lows, highs = collect_bound_arrays(tiny_network, tiny_inputs[:4], 4, spec)
        assert lows.shape[0] == highs.shape[0] == 4
        assert np.all((highs - lows).sum(axis=1) > 0)

    @pytest.mark.parametrize("method", ["box", "zonotope", "star"])
    def test_estimate_is_row_of_batch(self, tiny_network, tiny_inputs, method):
        """The single-input estimate is the N=1 case of the batched walk."""
        spec = PerturbationSpec(delta=0.03, method=method)
        # Star rows come from LP solves batched with other rows: LP tolerance.
        atol = 1e-6 if method == "star" else 1e-12
        lows, highs = collect_bound_arrays(tiny_network, tiny_inputs[:3], 4, spec)
        for i in range(3):
            estimate = perturbation_estimate(tiny_network, tiny_inputs[i], 4, spec)
            np.testing.assert_allclose(estimate.low, lows[i], rtol=1e-10, atol=atol)
            np.testing.assert_allclose(estimate.high, highs[i], rtol=1e-10, atol=atol)
