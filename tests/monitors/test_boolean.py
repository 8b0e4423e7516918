"""Tests for Boolean on/off pattern monitors (standard and robust)."""

import numpy as np
import pytest

from repro.bdd.patterns import DONT_CARE
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.perturbation import PerturbationSpec


class TestStandardBoolean:
    def test_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4).fit(tiny_inputs)
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_unseen_pattern_warns(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        # Flip the monitored word by probing a wildly different input; if that
        # particular input happens to share a pattern, the monitor must still
        # agree with explicit pattern membership.
        probe = np.full(tiny_network.input_dim, -40.0)
        verdict = monitor.verdict(probe)
        word = list(verdict.details["word"])
        assert verdict.warn == (not monitor.patterns.contains(word))

    def test_pattern_count_bounded_by_samples(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        assert 1 <= monitor.pattern_count() <= tiny_inputs.shape[0]
        assert monitor.bdd_size() >= 1

    def test_explicit_threshold_array(self, tiny_network, tiny_inputs):
        width = tiny_network.layer_output_dim(4)
        monitor = BooleanPatternMonitor(
            tiny_network, 4, thresholds=np.zeros(width)
        ).fit(tiny_inputs)
        np.testing.assert_array_equal(monitor.thresholds, np.zeros(width))

    def test_wrong_threshold_length_rejected(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds=np.zeros(3))
        with pytest.raises(ShapeError):
            monitor.fit(tiny_inputs)

    def test_hamming_tolerance_reduces_warnings(self, tiny_network, tiny_inputs):
        strict = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs[:12])
        relaxed = BooleanPatternMonitor(
            tiny_network, 4, thresholds="mean", hamming_tolerance=2
        ).fit(tiny_inputs[:12])
        probe = tiny_inputs[12:]
        assert relaxed.warning_rate(probe) <= strict.warning_rate(probe)

    def test_negative_hamming_tolerance_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            BooleanPatternMonitor(tiny_network, 4, hamming_tolerance=-1)

    def test_update_adds_patterns(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs[:10])
        monitor.update(tiny_inputs[10:])
        assert not np.any(monitor.warn_batch(tiny_inputs))
        assert monitor.num_training_samples == tiny_inputs.shape[0]

    def test_unfitted_monitor_raises(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4)
        with pytest.raises(NotFittedError):
            monitor.warn(tiny_inputs[0])
        with pytest.raises(NotFittedError):
            monitor.pattern_count()

    def test_describe_reports_bdd_statistics(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        info = monitor.describe()
        assert info["kind"] == "boolean_pattern"
        assert info["stored_rows"]["exact"] >= 1
        assert info["stored_rows"]["exact"] == monitor.pattern_count()
        assert info["bdd_materialised"] is False

    def test_neuron_subset(self, tiny_network, tiny_inputs):
        monitor = BooleanPatternMonitor(
            tiny_network, 4, thresholds="mean", neuron_indices=[1, 3]
        ).fit(tiny_inputs)
        assert monitor.num_monitored_neurons == 2
        assert not np.any(monitor.warn_batch(tiny_inputs))


class TestRobustBoolean:
    def test_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), thresholds="mean"
        ).fit(tiny_inputs)
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_lemma1_perturbed_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        delta = 0.03
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=delta), thresholds="mean"
        ).fit(tiny_inputs)
        rng = np.random.default_rng(0)
        for x in tiny_inputs[:8]:
            for _ in range(8):
                perturbed = x + rng.uniform(-delta, delta, size=x.shape)
                assert not monitor.warn(perturbed)

    def test_standard_may_warn_where_robust_does_not(self, tiny_network, tiny_inputs):
        """The headline effect: robust pattern sets are supersets of standard ones."""
        delta = 0.05
        standard = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        robust = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=delta), thresholds="mean"
        ).fit(tiny_inputs)
        rng = np.random.default_rng(1)
        perturbed = np.vstack(
            [x + rng.uniform(-delta, delta, size=x.shape) for x in tiny_inputs]
        )
        assert robust.warning_rate(perturbed) <= standard.warning_rate(perturbed)
        assert robust.warning_rate(perturbed) == 0.0

    def test_robust_pattern_set_contains_standard_set(self, tiny_network, tiny_inputs):
        standard = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        robust = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), thresholds="mean"
        ).fit(tiny_inputs)
        for word in standard.patterns.iterate_words():
            assert robust.patterns.contains(list(word))

    def test_zero_delta_equals_standard_pattern_count(self, tiny_network, tiny_inputs):
        standard = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        robust = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.0), thresholds="mean"
        ).fit(tiny_inputs)
        assert robust.pattern_count() == standard.pattern_count()

    def test_dont_care_fraction_grows_with_delta(self, tiny_network, tiny_inputs):
        small = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.01), thresholds="mean"
        ).fit(tiny_inputs)
        large = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.5), thresholds="mean"
        ).fit(tiny_inputs)
        assert 0.0 <= small.dont_care_fraction <= large.dont_care_fraction <= 1.0

    def test_ternary_word_construction(self, tiny_network, tiny_inputs):
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.1), thresholds="mean"
        )
        features = monitor.features(tiny_inputs)
        monitor.thresholds = monitor._resolve_thresholds(features)
        low = monitor.thresholds - 1.0
        high = monitor.thresholds + 1.0
        word = monitor._ternary_word(low, high)
        assert all(symbol == DONT_CARE for symbol in word)
        word = monitor._ternary_word(monitor.thresholds + 0.1, monitor.thresholds + 0.2)
        assert all(symbol == 1 for symbol in word)
        word = monitor._ternary_word(monitor.thresholds - 0.2, monitor.thresholds - 0.1)
        assert all(symbol == 0 for symbol in word)

    def test_update_after_fit(self, tiny_network, tiny_inputs):
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.02), thresholds="mean"
        ).fit(tiny_inputs[:10])
        monitor.update(tiny_inputs[10:])
        assert monitor.num_training_samples == tiny_inputs.shape[0]
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_perturbation_layer_validation(self, tiny_network):
        with pytest.raises(ConfigurationError):
            RobustBooleanPatternMonitor(
                tiny_network, 2, PerturbationSpec(delta=0.1, layer=5)
            )

    def test_describe_includes_dont_care_fraction(self, tiny_network, tiny_inputs):
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), thresholds="mean"
        ).fit(tiny_inputs)
        info = monitor.describe()
        assert info["kind"] == "robust_boolean_pattern"
        assert 0.0 <= info["dont_care_fraction"] <= 1.0
