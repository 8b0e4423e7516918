"""The matcher kernel as the monitor and serving stack reaches it.

There is one kernel, ``repro.runtime.kernels.KERNEL``, and matchers read it
(as ``repro.runtime.matcher.KERNEL``) at query time.  These tests pin that
every construction path — constructor, bound engine, environment, refit,
class-conditional / registry / streaming fan-out, serialisation
reload — ends up dispatching to it without a verdict changing, and that the
per-monitor back-end knobs once threaded through these paths stay gone.
"""

import numpy as np
import pytest

from repro.monitors.boolean import BooleanPatternMonitor
from repro.monitors.builder import ClassConditionalMonitor, MonitorBuilder
from repro.monitors.interval import IntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor
from repro.monitors.registry import MonitorRegistry
from repro.monitors.serialization import load_monitor, save_monitor
from repro.runtime import matcher as matcher_module
from repro.runtime.engine import BatchScoringEngine
from repro.runtime.kernels import KERNEL, NumpyMatcherKernel
from repro.service.streaming import StreamingScorer

from ..oracles.bdd import within_hamming_bdd
from ..oracles.serialization import save_monitor_format1


class CountingKernel(NumpyMatcherKernel):
    """Spy kernel: the numpy passes plus a dispatch counter."""

    def __init__(self):
        self.calls = 0

    def match(self, plan, packed, codes=None):
        self.calls += 1
        return super().match(plan, packed, codes=codes)


@pytest.fixture
def spy(monkeypatch):
    """A :class:`CountingKernel` standing in for the shared kernel."""
    kernel = CountingKernel()
    monkeypatch.setattr(matcher_module, "KERNEL", kernel)
    return kernel


@pytest.fixture
def probe_inputs(rng):
    return rng.uniform(-2.0, 2.0, size=(40, 6))


def fitted_boolean(network, inputs, **kwargs):
    return BooleanPatternMonitor(network, 1, **kwargs).fit(inputs)


def bdd_warnings(monitor, inputs):
    """Boolean-monitor verdicts from the BDD oracle, word by word."""
    features = monitor.features(inputs)
    return np.array(
        [not within_hamming_bdd(monitor.patterns, monitor._word(row), 0) for row in features]
    )


class TestMonitorConstruction:
    def test_constructor_kwarg_selects_backend(self, tiny_network, tiny_inputs, spy):
        """Construction selects the shared kernel; there is no kwarg to pick another."""
        with pytest.raises(TypeError):
            BooleanPatternMonitor(tiny_network, 1, matcher_backend="sharded")
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        assert not hasattr(monitor, "matcher_backend")
        monitor.warn_batch(tiny_inputs)
        assert spy.calls >= 1

    def test_interval_constructor_kwarg(self, tiny_network, tiny_inputs, spy):
        with pytest.raises(TypeError):
            IntervalPatternMonitor(tiny_network, 1, num_cuts=2, matcher_backend="sharded")
        monitor = IntervalPatternMonitor(tiny_network, 1, num_cuts=2).fit(tiny_inputs)
        assert not monitor.warn_batch(tiny_inputs).any()
        assert spy.calls >= 1

    def test_backends_agree_on_verdicts(self, tiny_network, tiny_inputs, probe_inputs):
        """The kernel's verdicts agree with the BDD oracle's."""
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        expected = bdd_warnings(monitor, probe_inputs)
        assert expected.any()
        np.testing.assert_array_equal(monitor.warn_batch(probe_inputs), expected)

    def test_set_matcher_backend_rebinds_fitted_patterns(
        self, tiny_network, tiny_inputs, probe_inputs, monkeypatch
    ):
        """Fitted patterns follow a swapped kernel with no re-bind, also after a refit."""
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        assert not hasattr(monitor, "set_matcher_backend")
        before = monitor.warn_batch(probe_inputs)
        substitute = CountingKernel()
        monkeypatch.setattr(matcher_module, "KERNEL", substitute)
        np.testing.assert_array_equal(monitor.warn_batch(probe_inputs), before)
        assert substitute.calls == 1
        monitor.fit(tiny_inputs)
        np.testing.assert_array_equal(monitor.warn_batch(probe_inputs), before)
        assert substitute.calls == 2

    def test_kernel_instance_accepted(self, tiny_network, tiny_inputs, probe_inputs, spy):
        """A kernel instance is accepted at the one place it is read."""
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        np.testing.assert_array_equal(
            monitor.warn_batch(probe_inputs), bdd_warnings(monitor, probe_inputs)
        )
        assert spy.calls == 1

    def test_env_default_applies_at_dispatch(
        self, tiny_network, tiny_inputs, probe_inputs, monkeypatch, spy
    ):
        """A stale environment override changes nothing at dispatch."""
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        before = monitor.warn_batch(probe_inputs)
        monkeypatch.setenv("REPRO_MATCHER_BACKEND", "sharded")
        np.testing.assert_array_equal(monitor.warn_batch(probe_inputs), before)
        assert spy.calls == 2


class TestEngineSuggestion:
    def test_engine_suggestion_adopted_during_bound_fit(
        self, tiny_network, tiny_inputs, probe_inputs
    ):
        """An engine has no kernel to suggest: bound and unbound fits agree."""
        with pytest.raises(TypeError):
            BatchScoringEngine(tiny_network, matcher_backend="sharded")
        engine = BatchScoringEngine(tiny_network)
        bound = BooleanPatternMonitor(tiny_network, 1).bind_engine(engine)
        bound.fit(tiny_inputs)
        unbound = fitted_boolean(tiny_network, tiny_inputs)
        np.testing.assert_array_equal(
            bound.warn_batch(probe_inputs), unbound.warn_batch(probe_inputs)
        )

    def test_monitor_choice_beats_engine_suggestion(self, tiny_network, tiny_inputs):
        """Neither side makes a choice: the fitted pattern sets are identical."""
        engine = BatchScoringEngine(tiny_network)
        bound = BooleanPatternMonitor(tiny_network, 1).bind_engine(engine)
        bound.fit(tiny_inputs)
        unbound = fitted_boolean(tiny_network, tiny_inputs)
        left, right = bound.patterns.packed_state(), unbound.patterns.packed_state()
        assert left.keys() == right.keys()
        for key in left:
            np.testing.assert_array_equal(left[key], right[key])

    def test_unbound_fit_ignores_engines(self, tiny_network, tiny_inputs, spy):
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        assert not hasattr(monitor, "matcher_backend_choice")
        assert not monitor.warn_batch(tiny_inputs).any()
        assert spy.calls == 1


class TestFanOut:
    def test_class_conditional_applies_and_records(self, trained_digits, spy):
        network, train, _ = trained_digits
        builder = MonitorBuilder("boolean", 1)
        monitor = ClassConditionalMonitor(builder, num_classes=4).fit(
            network, train.inputs, labels=train.targets
        )
        assert not hasattr(monitor, "set_matcher_backend")
        assert "matcher_backend" not in builder.options
        spy.calls = 0
        assert monitor.warn_batch(train.inputs).shape == (len(train.inputs),)
        assert spy.calls >= 1
        # A back-end option is no constructor argument: the build refuses it.
        with pytest.raises(TypeError):
            MonitorBuilder("boolean", 1, matcher_backend="sharded").build(network)

    def test_class_conditional_minmax_skips_builder_option(self, trained_digits):
        network, train, _ = trained_digits
        builder = MonitorBuilder("minmax", 1)
        monitor = ClassConditionalMonitor(builder, num_classes=4).fit(
            network, train.inputs, labels=train.targets
        )
        monitor.warn_batch(train.inputs)
        # Fitting and scoring leave the builder's options as given.
        assert builder.options == {}

    def test_registry_reports_switched_members(self, tiny_network, tiny_inputs):
        registry = MonitorRegistry(tiny_network)
        registry.register("bool", fitted_boolean(tiny_network, tiny_inputs))
        registry.register("minmax", MinMaxMonitor(tiny_network, 1).fit(tiny_inputs))
        assert not hasattr(registry, "set_matcher_backend")
        report = registry.describe()
        assert set(report["monitors"]) == {"bool", "minmax"}
        assert "matcher_backend" not in str(report)

    def test_streaming_scorer_switches_midstream(
        self, tiny_network, tiny_inputs, probe_inputs, monkeypatch
    ):
        """A kernel swapped mid-stream serves the next batches, same verdicts."""
        with StreamingScorer(tiny_network) as scorer:
            assert not hasattr(scorer, "set_matcher_backend")
            scorer.register("bool", fitted_boolean(tiny_network, tiny_inputs))
            first = [
                future.result(timeout=10).warns
                for future in scorer.submit_many(probe_inputs[:5])
            ]
            substitute = CountingKernel()
            monkeypatch.setattr(matcher_module, "KERNEL", substitute)
            second = [
                future.result(timeout=10).warns
                for future in scorer.submit_many(probe_inputs[:5])
            ]
        assert first == second
        assert substitute.calls >= 1


class TestSerializationReload:
    @pytest.mark.parametrize("fmt", [1, 2])
    def test_load_monitor_backend_param(
        self, tiny_network, tiny_inputs, probe_inputs, tmp_path, fmt, spy
    ):
        """Either archive format reloads onto the shared kernel, verdicts intact."""
        monitor = fitted_boolean(tiny_network, tiny_inputs)
        expected = monitor.warn_batch(probe_inputs)
        writer = save_monitor_format1 if fmt == 1 else save_monitor
        path = writer(monitor, tmp_path / "monitor.npz")
        with pytest.raises(TypeError):
            load_monitor(path, tiny_network, matcher_backend="sharded")
        restored = load_monitor(path, tiny_network)
        spy.calls = 0
        np.testing.assert_array_equal(restored.warn_batch(probe_inputs), expected)
        assert spy.calls == 1

    def test_load_monitor_default_backend(self, tiny_network, tiny_inputs, tmp_path):
        monitor = IntervalPatternMonitor(tiny_network, 1, num_cuts=2).fit(tiny_inputs)
        path = save_monitor(monitor, tmp_path / "interval.npz")
        restored = load_monitor(path, tiny_network)
        assert not hasattr(restored.patterns, "matcher_backend")
        assert matcher_module.KERNEL is KERNEL
        np.testing.assert_array_equal(
            restored.warn_batch(tiny_inputs), monitor.warn_batch(tiny_inputs)
        )
