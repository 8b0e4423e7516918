"""Tests of the top-level public API surface.

A downstream user should be able to drive the whole reproduction from
``import repro``: these tests pin the exported names, check that ``__all__``
matches what is actually importable, and exercise the documented quickstart
path at a miniature scale.
"""

import importlib

import numpy as np
import pytest

import repro


class TestExports:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_are_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists '{name}' but it is missing"

    @pytest.mark.parametrize(
        "name",
        [
            "Sequential",
            "mlp",
            "Box",
            "Zonotope",
            "StarSet",
            "MinMaxMonitor",
            "RobustMinMaxMonitor",
            "BooleanPatternMonitor",
            "RobustBooleanPatternMonitor",
            "IntervalPatternMonitor",
            "RobustIntervalPatternMonitor",
            "MonitorBuilder",
            "ClassConditionalMonitor",
            "MonitorEnsemble",
            "PerturbationSpec",
            "MonitorPipeline",
            "build_track_workload",
            "build_digits_workload",
            "default_monitored_layer",
            "ReproError",
        ],
    )
    def test_key_symbols_in_all(self, name):
        assert name in repro.__all__

    def test_exception_hierarchy(self):
        for exc in (
            repro.ConfigurationError,
            repro.ShapeError,
            repro.LayerIndexError,
            repro.NotFittedError,
            repro.PropagationError,
            repro.SerializationError,
            repro.DataError,
        ):
            assert issubclass(exc, repro.ReproError)
            assert issubclass(exc, Exception)

    def test_subpackage_exports(self):
        from repro.eval import monitorability_report  # noqa: F401
        from repro.monitors import EnvelopeDistanceMonitor, save_monitor  # noqa: F401
        from repro.bdd import BDDManager, PatternSet  # noqa: F401
        from repro.data import generate_track_dataset  # noqa: F401


class TestDocumentedQuickstartPath:
    def test_quickstart_sequence_runs(self):
        """The README quickstart, at miniature scale."""
        workload = repro.build_track_workload(num_samples=80, epochs=2, seed=0)
        pipeline = repro.MonitorPipeline(
            workload,
            family="minmax",
            perturbation=repro.PerturbationSpec(delta=0.01, layer=0, method="box"),
        )
        result = pipeline.run()
        standard = result.score("standard")
        robust = result.score("robust")
        assert robust.false_positive_rate <= standard.false_positive_rate
        assert isinstance(result.format(), str)

    def test_direct_monitor_usage(self):
        """The README 'using the monitors directly' snippet, at miniature scale."""
        rng = np.random.default_rng(0)
        network = repro.mlp(input_dim=12, hidden_dims=[8], output_dim=2, seed=0)
        train_inputs = rng.random((40, 12))
        standard = repro.BooleanPatternMonitor(network, layer_index=2, thresholds="mean")
        standard.fit(train_inputs)
        robust = repro.RobustBooleanPatternMonitor(
            network,
            layer_index=2,
            perturbation=repro.PerturbationSpec(delta=0.01),
            thresholds="mean",
        )
        robust.fit(train_inputs)
        frame = rng.random(12)
        assert isinstance(standard.warn(frame), bool)
        assert isinstance(robust.warn(frame), bool)
        assert not np.any(robust.warn_batch(train_inputs))


class TestBenchmarkSurface:
    """The program surface the repo benchmark (``perfbench/``) calls into."""

    def test_resolve_matcher_backend_returns_the_shared_kernel(self):
        from repro.runtime.kernels import resolve_matcher_backend
        from repro.runtime.kernels.numpy_backend import NumpyMatcherKernel

        kernel = resolve_matcher_backend(None)
        assert kernel is resolve_matcher_backend(None)
        assert type(kernel) is NumpyMatcherKernel
        assert (kernel.name, kernel.effective_name) == ("numpy", "numpy")
        with pytest.raises(repro.ConfigurationError):
            resolve_matcher_backend("numpy")

    def test_kernel_passes_keep_their_signatures(self):
        from repro.runtime.kernels.numpy_backend import NumpyMatcherKernel

        kernel = NumpyMatcherKernel()
        rows = np.array([[1], [6]], dtype=np.uint64)
        probes = np.array([[1], [2], [7]], dtype=np.uint64)
        assert kernel.match_exact(probes, rows).tolist() == [True, False, False]
        masks = np.array([[1], [6]], dtype=np.uint64)
        assert kernel.match_ternary(probes, rows & masks, masks).tolist() == [True, False, True]
        low, high = np.array([[0, 1]]), np.array([[1, 3]])
        codes = np.array([[0, 3], [2, 1]], dtype=np.uint8)
        assert kernel.match_ranges(codes, low, high).tolist() == [True, False]
        assert kernel.match_ranges(codes, low, high, table=None).tolist() == [True, False]

    def test_tracer_patches_on_the_kernel_class_see_matcher_queries(self, monkeypatch):
        from repro.bdd.patterns import PatternSet
        from repro.runtime.kernels import resolve_matcher_backend

        kernel_class = type(resolve_matcher_backend(None))
        calls = []
        for name in ("match_exact", "match_ternary", "match_ranges"):
            original = getattr(kernel_class, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(kernel_class, name, spy)
        patterns = PatternSet(3, bits_per_position=2)
        patterns.add_patterns(np.array([[0, 1, 2]]))
        patterns.add_range_patterns(np.array([[1, 1, 1]]), np.array([[3, 2, 2]]))
        assert patterns.contains_batch(np.array([[0, 1, 2], [2, 2, 2], [0, 0, 0]])).tolist() == [
            True,
            True,
            False,
        ]
        assert calls == ["match_exact", "match_ranges"]

    def test_star_lp_backend_surface(self):
        from repro.symbolic.star_lp import StackedStarLPBackend, resolve_star_lp_backend

        shared = resolve_star_lp_backend(None)
        assert isinstance(shared, StackedStarLPBackend)
        assert resolve_star_lp_backend(None) is shared
        shared.reset_stats()
        assert set(shared.stats) >= {"lp_programs", "lp_objectives", "closed_form_stars"}
        assert shared.describe()["name"] == "stacked"
        other = StackedStarLPBackend()
        assert resolve_star_lp_backend(other) is other
        with pytest.raises(repro.ConfigurationError):
            resolve_star_lp_backend("stacked")

    def test_engine_hands_star_queries_to_its_backend(self):
        from repro.monitors.perturbation import PerturbationSpec
        from repro.runtime.engine import BatchScoringEngine
        from repro.symbolic.star_lp import StackedStarLPBackend

        class Spy(StackedStarLPBackend):
            def __init__(self):
                super().__init__()
                self.queries = []

            def bounds_many(self, stars):
                self.queries.append(len(stars))
                return super().bounds_many(stars)

        network = repro.mlp(4, [6], 2, activation="relu", seed=1)
        inputs = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 4))
        spy = Spy()
        engine = BatchScoringEngine(network, star_lp_backend=spy)
        spec = PerturbationSpec(delta=0.05, layer=0, method="star")
        lows, highs = engine.cache.bound_arrays(inputs, 2, spec)
        assert spy.queries and all(count == 5 for count in spy.queries)
        assert spy.stats["closed_form_stars"] + spy.stats["lp_stars"] > 0
        assert lows.shape == highs.shape == (5, 6)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.runtime.kernels", "matcher_backends"),
            ("repro.runtime.kernels", "register_matcher_backend"),
            ("repro.runtime.kernels", "unregister_matcher_backend"),
            ("repro.runtime.kernels", "MatcherKernel"),
            ("repro.runtime.kernels", "ShardedMatcherKernel"),
            ("repro.runtime.kernels", "CompiledMatcherKernel"),
            ("repro.runtime.kernels", "MATCHER_BACKEND_ENV"),
            ("repro.runtime", "matcher_backends"),
            ("repro.symbolic.star_lp", "star_lp_backends"),
            ("repro.symbolic.star_lp", "register_star_lp_backend"),
            ("repro.symbolic.star_lp", "unregister_star_lp_backend"),
            ("repro.symbolic.star_lp", "ShardedStarLPBackend"),
            ("repro.symbolic.star_lp", "LoopStarLPBackend"),
            ("repro.symbolic.star_lp", "STAR_LP_BACKEND_ENV"),
            ("repro.symbolic", "LoopStarLPBackend"),
            ("repro.monitors.perturbation", "collect_bound_arrays_loop"),
            ("repro.symbolic.propagation", "_star_bounds_loop"),
        ],
    )
    def test_removed_names_no_longer_import(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "module", ["repro.runtime.kernels.compiled_backend", "repro.runtime.kernels.sharded_backend"]
    )
    def test_removed_modules_no_longer_import(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)
