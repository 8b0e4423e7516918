"""Tests for multi-bit interval pattern monitors (standard and robust)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.perturbation import PerturbationSpec


class TestStandardInterval:
    def test_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        monitor = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs)
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_bits_per_neuron(self, tiny_network):
        assert IntervalPatternMonitor(tiny_network, 4, num_cuts=1).bits_per_neuron == 1
        assert IntervalPatternMonitor(tiny_network, 4, num_cuts=3).bits_per_neuron == 2
        assert IntervalPatternMonitor(tiny_network, 4, num_cuts=7).bits_per_neuron == 3

    def test_far_input_warns_with_fine_cuts(self, tiny_network, tiny_inputs):
        monitor = IntervalPatternMonitor(
            tiny_network, 4, num_cuts=7, cut_strategy="percentile"
        ).fit(tiny_inputs)
        verdict = monitor.verdict(np.full(tiny_network.input_dim, 80.0))
        codes = list(verdict.details["codes"])
        assert verdict.warn == (not monitor.patterns.contains(codes))

    def test_explicit_cut_points(self, tiny_network, tiny_inputs):
        width = tiny_network.layer_output_dim(4)
        cuts = np.tile(np.array([[0.0, 1.0, 2.0]]), (width, 1))
        monitor = IntervalPatternMonitor(
            tiny_network, 4, num_cuts=3, cut_points=cuts
        ).fit(tiny_inputs)
        np.testing.assert_array_equal(monitor.cut_points, cuts)

    def test_wrong_cut_point_shape_rejected(self, tiny_network, tiny_inputs):
        monitor = IntervalPatternMonitor(
            tiny_network, 4, num_cuts=3, cut_points=np.zeros((2, 3)) + [[0, 1, 2], [0, 1, 2]]
        )
        with pytest.raises(ShapeError):
            monitor.fit(tiny_inputs)

    def test_invalid_num_cuts_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            IntervalPatternMonitor(tiny_network, 4, num_cuts=0)

    def test_more_cuts_give_finer_abstraction(self, tiny_network, tiny_inputs):
        """Finer granularity means at least as many distinct stored patterns."""
        coarse = IntervalPatternMonitor(tiny_network, 4, num_cuts=1).fit(tiny_inputs)
        fine = IntervalPatternMonitor(tiny_network, 4, num_cuts=7).fit(tiny_inputs)
        assert fine.pattern_count() >= coarse.pattern_count()

    def test_range_extension_generalises_minmax(self, tiny_network, tiny_inputs):
        """With min/max-derived cuts, warnings coincide with envelope violations."""
        from repro.monitors.minmax import MinMaxMonitor

        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        interval = IntervalPatternMonitor(
            tiny_network, 4, num_cuts=3, cut_strategy="range_extension"
        ).fit(tiny_inputs)
        # Training data is accepted by both.
        assert not np.any(interval.warn_batch(tiny_inputs))
        # A probe far outside the envelope must violate the interval monitor too.
        far = np.full(tiny_network.input_dim, 100.0)
        assert minmax.warn(far)
        assert interval.warn(far)

    def test_update(self, tiny_network, tiny_inputs):
        monitor = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs[:10])
        monitor.update(tiny_inputs[10:])
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_describe(self, tiny_network, tiny_inputs):
        monitor = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs)
        info = monitor.describe()
        assert info["num_cuts"] == 3
        assert info["bits_per_neuron"] == 2
        assert info["stored_rows"]["exact"] >= 1
        assert info["stored_rows"]["exact"] == monitor.pattern_count()


class TestRobustInterval:
    def test_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), num_cuts=3
        ).fit(tiny_inputs)
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_lemma1_perturbed_training_inputs_never_warn(self, tiny_network, tiny_inputs):
        delta = 0.03
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=delta), num_cuts=3
        ).fit(tiny_inputs)
        rng = np.random.default_rng(3)
        for x in tiny_inputs[:8]:
            for _ in range(8):
                perturbed = x + rng.uniform(-delta, delta, size=x.shape)
                assert not monitor.warn(perturbed)

    def test_robust_set_contains_standard_set(self, tiny_network, tiny_inputs):
        standard = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs)
        robust = RobustIntervalPatternMonitor(
            tiny_network,
            4,
            PerturbationSpec(delta=0.05),
            num_cuts=3,
            cut_points=standard.cut_points,
        ).fit(tiny_inputs)
        for word in standard.patterns.iterate_words():
            assert robust.patterns.contains(list(word))

    def test_zero_delta_matches_standard(self, tiny_network, tiny_inputs):
        standard = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs)
        robust = RobustIntervalPatternMonitor(
            tiny_network,
            4,
            PerturbationSpec(delta=0.0),
            num_cuts=3,
            cut_points=standard.cut_points,
        ).fit(tiny_inputs)
        assert robust.pattern_count() == standard.pattern_count()

    def test_ambiguity_grows_with_delta(self, tiny_network, tiny_inputs):
        small = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.01), num_cuts=3
        ).fit(tiny_inputs)
        large = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.5), num_cuts=3
        ).fit(tiny_inputs)
        assert (
            0.0
            <= small.ambiguous_position_fraction
            <= large.ambiguous_position_fraction
            <= 1.0
        )

    def test_pattern_count_grows_with_delta(self, tiny_network, tiny_inputs):
        standard = IntervalPatternMonitor(tiny_network, 4, num_cuts=3).fit(tiny_inputs)
        robust = RobustIntervalPatternMonitor(
            tiny_network,
            4,
            PerturbationSpec(delta=0.2),
            num_cuts=3,
            cut_points=standard.cut_points,
        ).fit(tiny_inputs)
        assert robust.pattern_count() >= standard.pattern_count()

    def test_three_bit_robust_monitor(self, tiny_network, tiny_inputs):
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), num_cuts=7
        ).fit(tiny_inputs)
        assert monitor.bits_per_neuron == 3
        assert not np.any(monitor.warn_batch(tiny_inputs))

    def test_perturbation_layer_validation(self, tiny_network):
        with pytest.raises(ConfigurationError):
            RobustIntervalPatternMonitor(
                tiny_network, 3, PerturbationSpec(delta=0.1, layer=4)
            )

    def test_describe_includes_ambiguity(self, tiny_network, tiny_inputs):
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), num_cuts=3
        ).fit(tiny_inputs)
        info = monitor.describe()
        assert info["kind"] == "robust_interval_pattern"
        assert 0.0 <= info["ambiguous_position_fraction"] <= 1.0

    def test_update(self, tiny_network, tiny_inputs):
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.02), num_cuts=3
        ).fit(tiny_inputs[:10])
        monitor.update(tiny_inputs[10:])
        assert monitor.num_training_samples == tiny_inputs.shape[0]
        assert not np.any(monitor.warn_batch(tiny_inputs))
