"""Robust fits through the batched symbolic path vs the per-sample loop.

The acceptance bar of the batched-propagation refactor: every robust monitor
family must produce *identical* abstractions whether its perturbation
estimates come from the batched back-ends
(:func:`~repro.monitors.perturbation.collect_bound_arrays`) or from the
original one-row-at-a-time reference (``collect_bound_arrays_loop`` in
``tests/oracles/symbolic.py``).  Pattern
monitors are compared word-for-word (the codec's scale-relative tolerance
absorbs the sub-ulp differences of batched BLAS kernels); the min-max
envelope is compared at a float-round-off tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.monitors.boolean import RobustBooleanPatternMonitor
from repro.monitors.builder import ClassConditionalMonitor, MonitorBuilder
from repro.monitors.interval import RobustIntervalPatternMonitor
from repro.monitors.minmax import RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec, collect_bound_arrays
from repro.runtime.engine import BatchScoringEngine

from ..oracles.symbolic import collect_bound_arrays_loop

MONITORED_LAYER = 4
DELTA = 0.05


def use_loop_path(monitor) -> None:
    """Route one monitor instance's robust fit through the reference loop."""
    monitor._perturbation_bound_arrays = (
        lambda inputs, spec: collect_bound_arrays_loop(
            monitor.network, inputs, monitor.layer_index, spec
        )
    )


def pattern_words(monitor):
    return sorted(monitor.patterns.iterate_words())


@pytest.fixture(scope="module")
def specs():
    return {
        "box": PerturbationSpec(delta=DELTA, layer=0, method="box"),
        "zonotope": PerturbationSpec(delta=DELTA, layer=0, method="zonotope"),
        "feature_box": PerturbationSpec(delta=DELTA, layer=2, method="box"),
    }


class TestCollectBoundArrays:
    @pytest.mark.parametrize("method", ["box", "zonotope"])
    def test_batched_matches_loop(self, tiny_network, tiny_inputs, method):
        spec = PerturbationSpec(delta=DELTA, layer=0, method=method)
        batched = collect_bound_arrays(
            tiny_network, tiny_inputs, MONITORED_LAYER, spec
        )
        loop = collect_bound_arrays_loop(
            tiny_network, tiny_inputs, MONITORED_LAYER, spec
        )
        np.testing.assert_allclose(batched[0], loop[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(batched[1], loop[1], rtol=1e-10, atol=1e-12)

    def test_star_batched_matches_loop(self, tiny_network, tiny_inputs):
        # Star bounds come from LP solves once unstable ReLUs constrain the
        # polytopes, so the lockstep/stacked path is pinned at the LP-tier
        # tolerance (closed-form-only walks are pinned bitwise elsewhere).
        spec = PerturbationSpec(delta=0.02, layer=0, method="star")
        subset = tiny_inputs[:6]
        batched = collect_bound_arrays(tiny_network, subset, MONITORED_LAYER, spec)
        loop = collect_bound_arrays_loop(tiny_network, subset, MONITORED_LAYER, spec)
        np.testing.assert_allclose(batched[0], loop[0], rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(batched[1], loop[1], rtol=0.0, atol=1e-6)

    def test_trivial_spec_is_one_forward_pass(self, tiny_network, tiny_inputs):
        spec = PerturbationSpec()
        lows, highs = collect_bound_arrays(
            tiny_network, tiny_inputs, MONITORED_LAYER, spec
        )
        features = np.atleast_2d(tiny_network.forward_to(MONITORED_LAYER, tiny_inputs))
        np.testing.assert_array_equal(lows, features)
        np.testing.assert_array_equal(highs, features)


class TestRobustFitEquivalence:
    @pytest.mark.parametrize("spec_name", ["box", "zonotope", "feature_box"])
    def test_minmax_envelope_matches_loop_path(
        self, tiny_network, tiny_inputs, specs, spec_name
    ):
        spec = specs[spec_name]
        batched = RobustMinMaxMonitor(tiny_network, MONITORED_LAYER, spec)
        batched.fit(tiny_inputs)
        loop = RobustMinMaxMonitor(tiny_network, MONITORED_LAYER, spec)
        use_loop_path(loop)
        loop.fit(tiny_inputs)
        np.testing.assert_allclose(batched.lower, loop.lower, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(batched.upper, loop.upper, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec_name", ["box", "zonotope", "feature_box"])
    def test_boolean_patterns_match_loop_path(
        self, tiny_network, tiny_inputs, specs, spec_name
    ):
        spec = specs[spec_name]
        batched = RobustBooleanPatternMonitor(tiny_network, MONITORED_LAYER, spec)
        batched.fit(tiny_inputs)
        loop = RobustBooleanPatternMonitor(tiny_network, MONITORED_LAYER, spec)
        use_loop_path(loop)
        loop.fit(tiny_inputs)
        assert pattern_words(batched) == pattern_words(loop)
        assert batched.pattern_count() == loop.pattern_count()
        assert batched.dont_care_fraction == loop.dont_care_fraction

    @pytest.mark.parametrize("spec_name", ["box", "zonotope", "feature_box"])
    def test_interval_patterns_match_loop_path(
        self, tiny_network, tiny_inputs, specs, spec_name
    ):
        spec = specs[spec_name]
        batched = RobustIntervalPatternMonitor(
            tiny_network, MONITORED_LAYER, spec, num_cuts=3
        )
        batched.fit(tiny_inputs)
        loop = RobustIntervalPatternMonitor(
            tiny_network, MONITORED_LAYER, spec, num_cuts=3
        )
        use_loop_path(loop)
        loop.fit(tiny_inputs)
        assert pattern_words(batched) == pattern_words(loop)
        assert batched.pattern_count() == loop.pattern_count()
        assert (
            batched.ambiguous_position_fraction == loop.ambiguous_position_fraction
        )

    def test_warnings_agree_between_paths(self, tiny_network, tiny_inputs, rng, specs):
        probes = np.vstack(
            [
                tiny_inputs,
                tiny_inputs + rng.uniform(-DELTA, DELTA, size=tiny_inputs.shape),
                rng.uniform(-3.0, 3.0, size=(32, tiny_inputs.shape[1])),
            ]
        )
        for spec in specs.values():
            batched = RobustBooleanPatternMonitor(
                tiny_network, MONITORED_LAYER, spec
            ).fit(tiny_inputs)
            loop = RobustBooleanPatternMonitor(tiny_network, MONITORED_LAYER, spec)
            use_loop_path(loop)
            loop.fit(tiny_inputs)
            np.testing.assert_array_equal(
                batched.warn_batch(probes), loop.warn_batch(probes)
            )


class TestEngineBoundFits:
    def test_engine_bound_fit_is_identical(self, tiny_network, tiny_inputs, specs):
        """Binding a robust monitor to an engine must not change the fit."""
        for spec in specs.values():
            engine = BatchScoringEngine(tiny_network)
            bound = RobustMinMaxMonitor(tiny_network, MONITORED_LAYER, spec)
            bound.bind_engine(engine)
            bound.fit(tiny_inputs)
            plain = RobustMinMaxMonitor(tiny_network, MONITORED_LAYER, spec)
            plain.fit(tiny_inputs)
            np.testing.assert_array_equal(bound.lower, plain.lower)
            np.testing.assert_array_equal(bound.upper, plain.upper)

    def test_shared_engine_propagates_once_across_families(
        self, tiny_network, tiny_inputs, specs
    ):
        """Three robust families, one spec, one engine: one propagation."""
        spec = specs["box"]
        engine = BatchScoringEngine(tiny_network)
        for cls in (
            RobustMinMaxMonitor,
            RobustBooleanPatternMonitor,
            RobustIntervalPatternMonitor,
        ):
            monitor = cls(tiny_network, MONITORED_LAYER, spec)
            monitor.bind_engine(engine)
            monitor.fit(tiny_inputs)
        assert engine.cache.bound_misses == 1
        assert engine.cache.bound_hits == 2

    def test_delta_sweep_reuses_anchor_pass(self, tiny_network, tiny_inputs):
        """Different deltas at k_p >= 1 share the cached anchor activations."""
        engine = BatchScoringEngine(tiny_network)
        for delta in (0.01, 0.02, 0.05):
            spec = PerturbationSpec(delta=delta, layer=2, method="box")
            monitor = RobustMinMaxMonitor(tiny_network, MONITORED_LAYER, spec)
            monitor.bind_engine(engine)
            monitor.fit(tiny_inputs)
        # Three distinct bound entries, but the anchor forward pass of the
        # training batch was computed once and replayed from the cache.
        assert engine.cache.bound_misses == 3
        assert engine.cache.misses == 1
        assert engine.cache.hits == 2

    def test_builder_threads_engine_through_class_conditional(self, trained_digits):
        network, train, _ = trained_digits
        spec = PerturbationSpec(delta=0.01, layer=0, method="box")
        builder = MonitorBuilder("boolean", MONITORED_LAYER, perturbation=spec)
        engine = BatchScoringEngine(network, max_cache_entries=8)
        monitor = ClassConditionalMonitor(builder, num_classes=4)
        monitor.fit(network, train.inputs, engine=engine)
        # Every per-class fit ran its propagation through the shared cache.
        assert engine.cache.bound_misses >= 1
        plain = ClassConditionalMonitor(builder, num_classes=4)
        plain.fit(network, train.inputs)
        probes = train.inputs[:40]
        np.testing.assert_array_equal(
            monitor.warn_batch(probes), plain.warn_batch(probes)
        )

    def test_helper_bindings_are_fit_scoped(self, tiny_network, tiny_inputs):
        """build_and_fit binds for the fit only; per-frame scoring stays unbound."""
        spec = PerturbationSpec(delta=0.01, layer=0, method="box")
        builder = MonitorBuilder("minmax", MONITORED_LAYER, perturbation=spec)
        engine = BatchScoringEngine(tiny_network)
        monitor = builder.build_and_fit(tiny_network, tiny_inputs, engine=engine)
        assert monitor._engine is None
        assert engine.cache.bound_misses == 1
        # Single-frame scoring does not touch the engine cache.
        misses_before = engine.cache.misses
        monitor.warn(tiny_inputs[0])
        assert engine.cache.misses == misses_before

    @pytest.mark.parametrize(
        "neurons", [None, [2, 3, 4, 5]], ids=["whole-layer", "contiguous-run"]
    )
    def test_fits_leave_engine_cache_bit_unchanged(self, tiny_network, tiny_inputs, neurons):
        """Monitor slices of cached arrays are views: no fit may write into them."""
        engine = BatchScoringEngine(tiny_network)
        specs = [PerturbationSpec(delta=DELTA, method=m) for m in ("box", "zonotope")]
        activations = engine.cache.activation_entry(tiny_inputs)
        bounds = [engine.bound_arrays(tiny_inputs, MONITORED_LAYER, spec) for spec in specs]
        before = [np.array(a, copy=True) for a in activations] + [
            np.array(a, copy=True) for pair in bounds for a in pair
        ]
        for spec in specs:
            for family, options in (
                ("minmax", {}),
                ("boolean", {"thresholds": "mean"}),
                ("interval", {"num_cuts": 3}),
            ):
                for perturbation in (None, spec):
                    builder = MonitorBuilder(
                        family,
                        MONITORED_LAYER,
                        perturbation=perturbation,
                        neuron_indices=neurons,
                        **options,
                    )
                    monitor = builder.build(tiny_network, engine=engine)
                    monitor.fit(tiny_inputs)
                    monitor.update(tiny_inputs)
                    if neurons is not None:
                        view = monitor.features(tiny_inputs)
                        assert np.shares_memory(view, activations[MONITORED_LAYER - 1])
        assert engine.cache.activation_entry(tiny_inputs) is activations
        after = list(activations) + [
            a
            for spec in specs
            for a in engine.bound_arrays(tiny_inputs, MONITORED_LAYER, spec)
        ]
        assert engine.cache.bound_misses == len(specs)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)

    def test_loop_reference_validates_like_batched(self, tiny_network, tiny_inputs):
        """Both paths reject k_p >= k, including for trivial specs."""
        trivial = PerturbationSpec(delta=0.0, layer=MONITORED_LAYER)
        with pytest.raises(ConfigurationError):
            collect_bound_arrays(
                tiny_network, tiny_inputs, MONITORED_LAYER, trivial
            )
        with pytest.raises(ConfigurationError):
            collect_bound_arrays_loop(
                tiny_network, tiny_inputs, MONITORED_LAYER, trivial
            )

    def test_bind_engine_rejects_foreign_network(self, tiny_network, trained_digits):
        network, _, _ = trained_digits
        engine = BatchScoringEngine(network)
        monitor = RobustMinMaxMonitor(
            tiny_network, MONITORED_LAYER, PerturbationSpec(delta=0.01)
        )
        with pytest.raises(ConfigurationError):
            monitor.bind_engine(engine)
