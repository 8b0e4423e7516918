"""Tests for threshold (cut-point) selection strategies."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.monitors.thresholds import (
    equal_width_thresholds,
    get_threshold_strategy,
    mean_thresholds,
    median_thresholds,
    percentile_thresholds,
    range_extension_thresholds,
    validate_cut_points,
    zero_thresholds,
)

ALL_STRATEGIES = [
    zero_thresholds,
    mean_thresholds,
    median_thresholds,
    percentile_thresholds,
    equal_width_thresholds,
]


@pytest.fixture
def activations():
    rng = np.random.default_rng(0)
    return rng.normal(loc=[0.0, 2.0, -1.0], scale=[1.0, 0.5, 2.0], size=(200, 3))


class TestShapesAndMonotonicity:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("num_cuts", [1, 2, 3, 7])
    def test_output_shape(self, strategy, num_cuts, activations):
        cuts = strategy(activations, num_cuts)
        assert cuts.shape == (3, num_cuts)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda f: f.__name__)
    def test_rows_strictly_increasing(self, strategy, activations):
        cuts = strategy(activations, 5)
        assert np.all(np.diff(cuts, axis=1) > 0)

    def test_range_extension_rows_increasing(self, activations):
        cuts = range_extension_thresholds(activations, 3)
        assert np.all(np.diff(cuts, axis=1) > 0)

    def test_constant_neuron_does_not_break_monotonicity(self):
        activations = np.ones((50, 2))
        cuts = percentile_thresholds(activations, 3)
        assert np.all(np.diff(cuts, axis=1) > 0)


    @pytest.mark.parametrize(
        "strategy", ALL_STRATEGIES + [range_extension_thresholds], ids=lambda f: f.__name__
    )
    def test_cut_points_do_not_depend_on_memory_layout(self, strategy):
        """A row-major view and a gathered column copy give the same bits."""
        rng = np.random.default_rng(5)
        wide = rng.normal(size=(1000, 12))
        view = wide[:, 2:9]
        gathered = wide[:, np.arange(2, 9)]
        np.testing.assert_array_equal(strategy(view, 3), strategy(gathered, 3))
        np.testing.assert_array_equal(strategy(view, 3), strategy(np.ascontiguousarray(view), 3))


class TestSemantics:
    def test_zero_thresholds_are_zero(self, activations):
        cuts = zero_thresholds(activations, 1)
        np.testing.assert_array_equal(cuts, np.zeros((3, 1)))

    def test_mean_thresholds_match_column_means(self, activations):
        cuts = mean_thresholds(activations, 1)
        np.testing.assert_allclose(cuts[:, 0], activations.mean(axis=0))

    def test_percentile_single_cut_is_median(self, activations):
        cuts = percentile_thresholds(activations, 1)
        np.testing.assert_allclose(cuts[:, 0], np.median(activations, axis=0), atol=1e-9)

    def test_equal_width_cuts_lie_inside_range(self, activations):
        cuts = equal_width_thresholds(activations, 4)
        low = activations.min(axis=0)
        high = activations.max(axis=0)
        assert np.all(cuts >= low[:, None] - 1e-9)
        assert np.all(cuts <= high[:, None] + 1e-9)

    def test_range_extension_top_two_cuts_are_min_and_max(self, activations):
        cuts = range_extension_thresholds(activations, 3)
        np.testing.assert_allclose(cuts[:, -1], activations.max(axis=0))
        np.testing.assert_allclose(cuts[:, -2], activations.min(axis=0))

    def test_range_extension_margin_widens(self, activations):
        plain = range_extension_thresholds(activations, 3, margin=0.0)
        widened = range_extension_thresholds(activations, 3, margin=0.1)
        assert np.all(widened[:, -1] >= plain[:, -1])
        assert np.all(widened[:, -2] <= plain[:, -2])


class TestValidationAndRegistry:
    def test_invalid_activation_shape_rejected(self):
        with pytest.raises(ShapeError):
            percentile_thresholds(np.zeros(5), 1)
        with pytest.raises(ShapeError):
            mean_thresholds(np.zeros((0, 3)), 1)

    def test_invalid_num_cuts_rejected(self, activations):
        with pytest.raises(ConfigurationError):
            percentile_thresholds(activations, 0)
        with pytest.raises(ConfigurationError):
            range_extension_thresholds(activations, 1)

    def test_validate_cut_points_accepts_single_column(self):
        validate_cut_points(np.zeros((4, 1)))

    def test_validate_cut_points_rejects_non_increasing(self):
        with pytest.raises(ConfigurationError):
            validate_cut_points(np.array([[0.0, 0.0]]))
        with pytest.raises(ShapeError):
            validate_cut_points(np.zeros(3))

    @pytest.mark.parametrize(
        "name",
        ["zero", "sign", "mean", "median", "percentile", "equal_width", "range_extension"],
    )
    def test_registry(self, name, activations):
        strategy = get_threshold_strategy(name)
        cuts = strategy(activations, 3)
        assert cuts.shape == (3, 3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            get_threshold_strategy("entropy")
