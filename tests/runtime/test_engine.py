"""Tests for the batched scoring engine and its activation cache."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.builder import ClassConditionalMonitor, MonitorBuilder
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor, RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.runtime.engine import ActivationCache, BatchScoringEngine


class TestActivationCache:
    def test_cached_activations_are_bit_identical_to_forward_to(self, tiny_network, tiny_inputs):
        cache = ActivationCache(tiny_network)
        for layer_index in (2, 4):
            cached = cache.layer_activations(tiny_inputs, layer_index)
            direct = tiny_network.forward_to(layer_index, tiny_inputs)
            np.testing.assert_array_equal(cached, direct)

    def test_repeated_batches_hit_the_cache(self, tiny_network, tiny_inputs):
        cache = ActivationCache(tiny_network)
        cache.layer_activations(tiny_inputs, 2)
        cache.layer_activations(tiny_inputs, 4)  # same batch, other layer
        cache.layer_activations(tiny_inputs.copy(), 2)  # same content
        assert cache.misses == 1
        assert cache.hits == 2

    def test_lru_eviction(self, tiny_network, rng):
        cache = ActivationCache(tiny_network, max_entries=2)
        batches = [rng.random((4, 6)) for _ in range(3)]
        for batch in batches:
            cache.layer_activations(batch, 2)
        cache.layer_activations(batches[0], 2)  # evicted: a miss again
        assert cache.misses == 4

    def test_weight_change_invalidates_cache(self, tiny_inputs):
        """Continuing to train the network must not serve stale activations."""
        from repro.nn.network import mlp

        network = mlp(6, [10, 8], 3, activation="relu", seed=7)
        cache = ActivationCache(network)
        before = cache.layer_activations(tiny_inputs, 2).copy()
        weights = network.get_weights()
        weights[0] = weights[0] + 0.5
        network.set_weights(weights)
        after = cache.layer_activations(tiny_inputs, 2)
        assert cache.misses == 2  # same inputs, new weights -> fresh pass
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, network.forward_to(2, tiny_inputs))

    def test_invalid_layer_rejected(self, tiny_network, tiny_inputs):
        cache = ActivationCache(tiny_network)
        with pytest.raises(ConfigurationError):
            cache.layer_activations(tiny_inputs, 99)

    def test_invalid_capacity_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            ActivationCache(tiny_network, max_entries=0)


class TestBatchScoringEngine:
    def test_engine_matches_direct_warn_batch(self, tiny_network, tiny_inputs, rng):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        boolean = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        probes = rng.uniform(-2.0, 2.0, size=(30, 6))
        score = engine.score_batch({"minmax": minmax, "boolean": boolean}, probes)
        np.testing.assert_array_equal(score.warns["minmax"], minmax.warn_batch(probes))
        np.testing.assert_array_equal(score.warns["boolean"], boolean.warn_batch(probes))
        # Two monitors on the same layer share one forward pass — and since
        # the whole-entry refactor, one cache lookup per batch.
        assert engine.cache.misses == 1
        assert engine.cache.hits == 0
        # Re-scoring the same batch replays the cached pass.
        engine.score_batch({"minmax": minmax, "boolean": boolean}, probes)
        assert engine.cache.misses == 1
        assert engine.cache.hits == 1

    def test_uncached_scoring_is_identical_and_leaves_no_entry(
        self, tiny_network, tiny_inputs, rng
    ):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        probes = rng.uniform(-2.0, 2.0, size=(16, 6))
        uncached = engine.score_batch({"m": minmax}, probes, use_cache=False)
        np.testing.assert_array_equal(uncached.warns["m"], minmax.warn_batch(probes))
        assert engine.cache.misses == 0 and engine.cache.num_entries == 0

    def test_engine_verdicts(self, tiny_network, tiny_inputs, rng):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        probes = rng.uniform(-2.0, 2.0, size=(10, 6))
        score = engine.score_batch({"minmax": minmax}, probes, want_verdicts=True)
        direct = minmax.verdict_batch(probes)
        assert [v.warn for v in score.verdicts["minmax"]] == [v.warn for v in direct]
        np.testing.assert_array_equal(
            score.warns["minmax"], np.array([v.warn for v in direct])
        )

    def test_foreign_monitor_falls_back(self, trained_digits, rng):
        """Monitors without the layer API are scored via their own warn_batch."""
        network, train, test = trained_digits
        conditional = ClassConditionalMonitor(
            MonitorBuilder("minmax", 4), num_classes=4
        ).fit(network, train.inputs)
        engine = BatchScoringEngine(network)
        score = engine.score_batch({"cc": conditional}, test.inputs)
        np.testing.assert_array_equal(
            score.warns["cc"], conditional.warn_batch(test.inputs)
        )

    def test_warning_rate_helper(self, tiny_network, tiny_inputs):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        score = engine.score_batch({"m": minmax}, tiny_inputs)
        assert score.warning_rate("m") == pytest.approx(
            float(np.mean(minmax.warn_batch(tiny_inputs)))
        )


class TestScoreBatchEdgeCases:
    def test_empty_batch_returns_empty_vectors(self, tiny_network, tiny_inputs):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        score = engine.score_batch({"m": minmax}, np.zeros((0, 6)))
        assert score.warns["m"].shape == (0,)
        assert score.warns["m"].dtype == bool
        # No forward pass, no cache traffic for an empty batch.
        assert engine.cache.misses == 0 and engine.cache.hits == 0
        assert engine.cache.num_entries == 0

    def test_width_zero_rows_still_fail_the_forward_pass(
        self, tiny_network, tiny_inputs
    ):
        """(N, 0) is a malformed batch, not an empty one: it must raise."""
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        with pytest.raises(Exception):
            engine.score_batch({"m": minmax}, np.zeros((5, 0)))

    def test_empty_batch_with_verdicts(self, tiny_network, tiny_inputs):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        score = engine.score_batch({"m": minmax}, np.zeros((0, 6)), want_verdicts=True)
        assert score.verdicts["m"] == []
        with pytest.raises(ConfigurationError):
            score.warning_rate("m")

    def test_single_frame_batch(self, tiny_network, tiny_inputs, rng):
        minmax = MinMaxMonitor(tiny_network, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        frame = rng.uniform(-2.0, 2.0, size=6)
        score = engine.score_batch({"m": minmax}, frame)
        assert score.warns["m"].shape == (1,)
        assert score.warns["m"][0] == bool(minmax.warn_batch(frame[None, :])[0])

    def test_foreign_network_monitor_misses_shared_path(self, tiny_inputs, rng):
        """A monitor on another network must not read this engine's cache."""
        from repro.nn.network import mlp

        host = mlp(6, [10, 8], 3, activation="relu", seed=7)
        other = mlp(6, [10, 8], 3, activation="relu", seed=41)
        host_monitor = MinMaxMonitor(host, 4).fit(tiny_inputs)
        foreign_monitor = MinMaxMonitor(other, 4).fit(tiny_inputs)
        engine = BatchScoringEngine(host)
        assert engine._shares_network(host_monitor)
        assert not engine._shares_network(foreign_monitor)
        probes = rng.uniform(-2.0, 2.0, size=(12, 6))
        score = engine.score_batch(
            {"host": host_monitor, "foreign": foreign_monitor}, probes
        )
        # Only the host monitor went through the shared cache...
        assert engine.cache.misses == 1
        # ...and the foreign monitor's answer is its own network's, which
        # differs from the host's on some probe (different weights).
        np.testing.assert_array_equal(
            score.warns["foreign"], foreign_monitor.warn_batch(probes)
        )
        np.testing.assert_array_equal(
            score.warns["host"], host_monitor.warn_batch(probes)
        )

    def test_duck_typed_monitor_without_layer_api(self, tiny_network, rng):
        """Objects exposing only warn_batch score through the fallback path."""

        class ConstantMonitor:
            def warn_batch(self, inputs):
                return np.ones(inputs.shape[0], dtype=bool)

        engine = BatchScoringEngine(tiny_network)
        probes = rng.uniform(-1.0, 1.0, size=(5, 6))
        score = engine.score_batch({"const": ConstantMonitor()}, probes)
        assert score.warns["const"].all()
        assert engine.cache.misses == 0


class TestFeatureSlices:
    """Monitors on a contiguous neuron run read the layer without copying it."""

    def test_full_layer_features_share_memory_with_the_layer(self, tiny_network, tiny_inputs):
        monitor = MinMaxMonitor(tiny_network, 4)
        layer = tiny_network.forward_to(4, tiny_inputs)
        features = monitor.features_from_layer(layer)
        assert np.shares_memory(features, layer)
        np.testing.assert_array_equal(features, layer)

    def test_contiguous_subset_is_a_view_and_a_scattered_one_a_copy(
        self, tiny_network, tiny_inputs
    ):
        layer = tiny_network.forward_to(4, tiny_inputs)
        run = MinMaxMonitor(tiny_network, 4, neuron_indices=[5, 3, 4])
        scattered = MinMaxMonitor(tiny_network, 4, neuron_indices=[1, 6])
        np.testing.assert_array_equal(run.features_from_layer(layer), layer[:, 3:6])
        np.testing.assert_array_equal(scattered.features_from_layer(layer), layer[:, [1, 6]])
        assert np.shares_memory(run.features_from_layer(layer), layer)
        assert not np.shares_memory(scattered.features_from_layer(layer), layer)

    def test_six_monitor_score_batch_leaves_the_cached_entry_intact(
        self, tiny_network, tiny_inputs, rng
    ):
        spec = PerturbationSpec(delta=0.05, layer=0, method="box")
        monitors = {
            "minmax": MinMaxMonitor(tiny_network, 4),
            "robust_minmax": RobustMinMaxMonitor(tiny_network, 4, spec),
            "boolean": BooleanPatternMonitor(tiny_network, 4, thresholds="mean"),
            "robust_boolean": RobustBooleanPatternMonitor(
                tiny_network, 4, spec, thresholds="mean"
            ),
            "interval": IntervalPatternMonitor(tiny_network, 4, num_cuts=2),
            "robust_interval": RobustIntervalPatternMonitor(tiny_network, 4, spec, num_cuts=2),
        }
        for monitor in monitors.values():
            monitor.fit(tiny_inputs)
        engine = BatchScoringEngine(tiny_network)
        probes = rng.uniform(-2.0, 2.0, size=(32, 6))
        entry = engine.cache.activation_entry(probes)
        before = [layer.tobytes() for layer in entry]
        score = engine.score_batch(monitors, probes, want_verdicts=True)
        assert engine.cache.misses == 1 and engine.cache.hits == 1  # scored off the entry
        assert [layer.tobytes() for layer in entry] == before
        for name, monitor in monitors.items():
            np.testing.assert_array_equal(score.warns[name], monitor.warn_batch(probes))
