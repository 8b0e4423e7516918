"""Batch-vs-single equivalence: ``warn_batch(X) == [warn(x) for x in X]``.

This is the central contract of the batched runtime refactor: the vectorised
batch path is authoritative and the single-sample wrappers delegate to it,
so both views of every monitor family must agree on a fixed-seed workload —
including values produced by forward passes of different batch sizes.
"""

import numpy as np
import pytest

from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.builder import ClassConditionalMonitor, MonitorBuilder
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor, RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.monitors.quantitative import EnvelopeDistanceMonitor, PatternDistanceMonitor
from repro.runtime.engine import BatchScoringEngine


@pytest.fixture(scope="module")
def probes():
    """Mixed in-range / out-of-range probe batch (fixed seed)."""
    rng = np.random.default_rng(2026)
    inside = rng.uniform(-1.0, 1.0, size=(24, 6))
    outside = rng.uniform(-4.0, 4.0, size=(12, 6))
    return np.vstack([inside, outside])


def assert_batch_equals_single(monitor, probes):
    batched = np.asarray(monitor.warn_batch(probes), dtype=bool)
    single = np.array([monitor.warn(row) for row in probes], dtype=bool)
    np.testing.assert_array_equal(batched, single)


@pytest.fixture(scope="module")
def layer_members(tiny_network, tiny_inputs):
    """Monitors on two layers of one network, the members of a k-of-n vote."""
    return {
        "minmax@2": MinMaxMonitor(tiny_network, 2).fit(tiny_inputs),
        "minmax@4": MinMaxMonitor(tiny_network, 4).fit(tiny_inputs),
        "boolean@4": BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs),
    }


def layer_vote(warns, k):
    """A k-of-n vote: the engine's warn dict reduced over its members."""
    return np.sum(list(warns.values()), axis=0) >= k


class TestBatchSingleEquivalence:
    def test_minmax(self, tiny_network, tiny_inputs, probes):
        monitor = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    def test_robust_minmax(self, tiny_network, tiny_inputs, probes):
        monitor = RobustMinMaxMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05)
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    @pytest.mark.parametrize("thresholds", ["zero", "mean", "percentile"])
    def test_boolean(self, tiny_network, tiny_inputs, probes, thresholds):
        monitor = BooleanPatternMonitor(
            tiny_network, 4, thresholds=thresholds
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    def test_boolean_with_hamming_tolerance(self, tiny_network, tiny_inputs, probes):
        monitor = BooleanPatternMonitor(
            tiny_network, 4, thresholds="mean", hamming_tolerance=1
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    def test_robust_boolean(self, tiny_network, tiny_inputs, probes):
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), thresholds="mean"
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    @pytest.mark.parametrize("cut_strategy", ["percentile", "range_extension"])
    def test_interval(self, tiny_network, tiny_inputs, probes, cut_strategy):
        monitor = IntervalPatternMonitor(
            tiny_network, 4, num_cuts=3, cut_strategy=cut_strategy
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    def test_robust_interval(self, tiny_network, tiny_inputs, probes):
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, PerturbationSpec(delta=0.05), num_cuts=3
        ).fit(tiny_inputs)
        assert_batch_equals_single(monitor, probes)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_layer_vote(self, tiny_network, layer_members, probes, k):
        """One engine pass, reduced k-of-n, equals the vote of single verdicts."""
        engine = BatchScoringEngine(tiny_network)
        batched = layer_vote(engine.score_batch(layer_members, probes).warns, k)
        assert engine.cache.misses == 1
        single = [
            sum(monitor.warn(row) for monitor in layer_members.values()) >= k
            for row in probes
        ]
        np.testing.assert_array_equal(batched, single)

    def test_layer_vote_on_training_data_is_silent(
        self, tiny_network, tiny_inputs, layer_members
    ):
        warns = BatchScoringEngine(tiny_network).score_batch(layer_members, tiny_inputs).warns
        assert not layer_vote(warns, 1).any()

    def test_class_conditional(self, trained_digits):
        network, train, test = trained_digits
        monitor = ClassConditionalMonitor(
            MonitorBuilder("boolean", 4, thresholds="mean"), num_classes=4
        ).fit(network, train.inputs)
        assert_batch_equals_single(monitor, test.inputs)

    def test_envelope_distance(self, tiny_network, tiny_inputs, probes):
        wrapped = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        scorer = EnvelopeDistanceMonitor(wrapped, threshold=0.1)
        assert_batch_equals_single(scorer, probes)
        batched_scores = scorer.score_batch(probes)
        single_scores = np.array([scorer.score(row) for row in probes])
        np.testing.assert_allclose(batched_scores, single_scores, rtol=0, atol=1e-12)

    def test_pattern_distance(self, tiny_network, tiny_inputs, probes):
        wrapped = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(
            tiny_inputs
        )
        scorer = PatternDistanceMonitor(wrapped, threshold=0.2, max_distance=2)
        assert_batch_equals_single(scorer, probes)
        np.testing.assert_array_equal(
            scorer.distance_batch(probes),
            np.array([scorer.distance(row) for row in probes]),
        )

    def test_training_data_accepted_row_by_row(self, tiny_network, tiny_inputs):
        """Fit-time batch and op-time single-row passes agree on the data."""
        for monitor in (
            MinMaxMonitor(tiny_network, 4).fit(tiny_inputs),
            BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs),
            IntervalPatternMonitor(
                tiny_network, 4, num_cuts=3, cut_strategy="range_extension"
            ).fit(tiny_inputs),
        ):
            assert not any(monitor.warn(row) for row in tiny_inputs)
