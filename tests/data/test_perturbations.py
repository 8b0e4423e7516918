"""Tests for Δ-bounded input perturbation samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.perturbations import (
    corner_perturbations,
    gaussian_perturbations,
    perturb_dataset_inputs,
    uniform_perturbations,
)
from repro.exceptions import DataError

SAMPLERS = [uniform_perturbations, corner_perturbations, gaussian_perturbations]


class TestSamplers:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
    def test_shapes(self, sampler):
        vector = np.zeros(5)
        samples = sampler(vector, 0.1, 7, rng=np.random.default_rng(0))
        assert samples.shape == (7, 5)

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
    @settings(max_examples=25, deadline=None)
    @given(delta=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_perturbations_stay_within_delta(self, sampler, delta, seed):
        vector = np.linspace(-1, 1, 6)
        samples = sampler(vector, delta, 10, rng=np.random.default_rng(seed))
        assert np.all(np.abs(samples - vector[None, :]) <= delta + 1e-12)

    def test_corner_perturbations_hit_exactly_delta(self):
        vector = np.zeros(4)
        samples = corner_perturbations(vector, 0.2, 10, rng=np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(samples), 0.2)

    def test_uniform_clip_range(self):
        vector = np.full(3, 0.99)
        samples = uniform_perturbations(
            vector, 0.5, 20, rng=np.random.default_rng(0), clip_range=(0.0, 1.0)
        )
        assert samples.max() <= 1.0

    def test_zero_delta_returns_original(self):
        vector = np.array([1.0, -2.0])
        for sampler in SAMPLERS:
            samples = sampler(vector, 0.0, 3, rng=np.random.default_rng(0))
            np.testing.assert_allclose(samples, np.tile(vector, (3, 1)))

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
    def test_invalid_parameters_rejected(self, sampler):
        with pytest.raises(DataError):
            sampler(np.zeros(3), -0.1, 5)
        with pytest.raises(DataError):
            sampler(np.zeros(3), 0.1, 0)


class TestDatasetPerturbation:
    def test_one_perturbed_copy_per_row(self):
        inputs = np.arange(12, dtype=float).reshape(4, 3)
        perturbed = perturb_dataset_inputs(inputs, 0.05, rng=np.random.default_rng(0))
        assert perturbed.shape == inputs.shape
        assert np.all(np.abs(perturbed - inputs) <= 0.05 + 1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "corner", "gaussian"])
    def test_kinds(self, kind):
        inputs = np.zeros((3, 4))
        perturbed = perturb_dataset_inputs(
            inputs, 0.1, rng=np.random.default_rng(0), kind=kind
        )
        assert np.all(np.abs(perturbed) <= 0.1 + 1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            perturb_dataset_inputs(np.zeros((2, 2)), 0.1, kind="adversarial")
