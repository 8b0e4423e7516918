"""Property-based save→load round-trips and packed-mirror cold starts.

Two guarantees are pinned here:

* **bit-for-bit behaviour**: for every monitor family, any fitted monitor
  saved and reloaded produces identical ``warn_batch`` verdicts on arbitrary
  probe batches — in both the packed (format 2) and legacy word-list
  (format 1) archive formats, with identical pattern-set cardinality;
* **fast cold start**: a format-2 load restores the vectorised scoring path
  without building the BDD (materialisation is observable and deferred), the
  packed robust-interval artefact avoids the Cartesian word expansion on
  disk, and — in the slow tier — loads measurably faster than the legacy
  path.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.interval import (
    IntervalPatternMonitor,
    RobustIntervalPatternMonitor,
)
from repro.monitors.minmax import MinMaxMonitor, RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.monitors.serialization import load_monitor, save_monitor

FAMILIES = [
    "minmax",
    "robust_minmax",
    "boolean",
    "robust_boolean",
    "interval",
    "robust_interval",
]


def _build(family, network, layer, delta, num_cuts, hamming):
    spec = PerturbationSpec(delta=delta, layer=0, method="box")
    if family == "minmax":
        return MinMaxMonitor(network, layer)
    if family == "robust_minmax":
        return RobustMinMaxMonitor(network, layer, spec)
    if family == "boolean":
        return BooleanPatternMonitor(
            network, layer, thresholds="mean", hamming_tolerance=hamming
        )
    if family == "robust_boolean":
        return RobustBooleanPatternMonitor(network, layer, spec, thresholds="mean")
    if family == "interval":
        return IntervalPatternMonitor(network, layer, num_cuts=num_cuts)
    return RobustIntervalPatternMonitor(network, layer, spec, num_cuts=num_cuts)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_train=st.integers(min_value=1, max_value=32),
    delta=st.sampled_from([0.01, 0.05, 0.2]),
    num_cuts=st.integers(min_value=1, max_value=3),
    hamming=st.integers(min_value=0, max_value=1),
    fmt=st.sampled_from([1, 2]),
)
def test_roundtrip_preserves_warn_batch_bit_for_bit(
    tiny_network, tmp_path, family, seed, num_train, delta, num_cuts, hamming, fmt
):
    if family == "robust_interval":
        # Keep the format-1 comparison tractable: the legacy archive
        # enumerates the Cartesian code-range expansion, which grows
        # exponentially with per-word ambiguity.
        num_cuts = 1
        delta = min(delta, 0.05)
    rng = np.random.default_rng(seed)
    train = rng.uniform(-1.0, 1.0, size=(num_train, 6))
    probes = rng.uniform(-2.5, 2.5, size=(64, 6))
    monitor = _build(family, tiny_network, 4, delta, num_cuts, hamming).fit(train)
    path = save_monitor(monitor, tmp_path / f"{family}_{fmt}_{seed}.npz", format=fmt)
    restored = load_monitor(path, tiny_network)
    np.testing.assert_array_equal(
        restored.warn_batch(probes), monitor.warn_batch(probes)
    )
    # Single-sample wrappers agree too (they share the batched kernel).
    assert restored.warn(probes[0]) == monitor.warn(probes[0])
    if hasattr(monitor, "patterns"):
        assert restored.patterns.cardinality() == monitor.patterns.cardinality()


class TestPackedColdStart:
    def test_format2_load_defers_the_bdd(self, tiny_network, tiny_inputs, tmp_path):
        spec = PerturbationSpec(delta=0.05, layer=0, method="box")
        monitor = RobustBooleanPatternMonitor(
            tiny_network, 4, spec, thresholds="mean"
        ).fit(tiny_inputs)
        path = save_monitor(monitor, tmp_path / "packed.npz")
        restored = load_monitor(path, tiny_network)
        assert not restored.patterns.bdd_materialised
        # The whole scoring path runs off the packed mirror: still no BDD.
        probes = np.random.default_rng(3).uniform(-2.0, 2.0, size=(40, 6))
        np.testing.assert_array_equal(
            restored.warn_batch(probes), monitor.warn_batch(probes)
        )
        assert not restored.patterns.bdd_materialised
        # First BDD-dependent operation materialises it, with the same set.
        assert restored.patterns.cardinality() == monitor.patterns.cardinality()
        assert restored.patterns.bdd_materialised

    def test_packed_archive_avoids_word_expansion(
        self, tiny_network, tiny_inputs, tmp_path
    ):
        """The robust-interval artefact stores ranges, not their product."""
        spec = PerturbationSpec(delta=0.1, layer=0, method="box")
        monitor = RobustIntervalPatternMonitor(
            tiny_network, 4, spec, num_cuts=3
        ).fit(tiny_inputs)
        packed = save_monitor(monitor, tmp_path / "packed.npz", format=2)
        legacy = save_monitor(monitor, tmp_path / "legacy.npz", format=1)
        assert monitor.patterns.cardinality() > monitor.num_training_samples
        assert packed.stat().st_size < legacy.stat().st_size

    def test_update_after_packed_load_keeps_both_representations(
        self, tiny_network, tiny_inputs, tmp_path, rng
    ):
        """Inserting into a lazily restored set extends the mirror only.

        Incremental refit of a deployed monitor must stay on the packed
        mirror — the BDD is replayed (including the new insertions) only
        when a BDD-dependent operation actually asks for it.
        """
        monitor = BooleanPatternMonitor(tiny_network, 4, thresholds="mean").fit(
            tiny_inputs
        )
        path = save_monitor(monitor, tmp_path / "m.npz")
        restored = load_monitor(path, tiny_network)
        assert not restored.patterns.bdd_materialised
        extra = rng.uniform(-1.0, 1.0, size=(8, 6))
        monitor.update(extra)
        restored.update(extra)
        assert not restored.patterns.bdd_materialised
        probes = rng.uniform(-2.0, 2.0, size=(40, 6))
        np.testing.assert_array_equal(
            restored.warn_batch(probes), monitor.warn_batch(probes)
        )
        assert not restored.patterns.bdd_materialised
        # The late replay folds the deferred image *and* the new insertions
        # into one BDD that agrees with the one built for the fitted monitor.
        # (An exact-only mirror is counted without a BDD; dag_size builds it.)
        assert restored.patterns.cardinality() == monitor.patterns.cardinality()
        assert not restored.patterns.bdd_materialised
        assert restored.patterns.dag_size() == monitor.patterns.dag_size()
        assert restored.patterns.bdd_materialised

    @pytest.mark.slow
    def test_cold_start_speedup(self, tmp_path):
        """Packed load beats a word-list load that rebuilds the BDD by a wide margin.

        A Boolean monitor on a 24-neuron layer fitted on 4000 continuous
        samples stores ~4000 distinct words.  The packed load restores the
        matcher arrays and defers the BDD entirely; the legacy load followed
        by its BDD (what a legacy cold start used to cost) replays the words
        one cube at a time.  The margin is large (>50x locally), so a 2x
        assertion is safe on noisy CI machines.  Neither load builds the BDD
        by itself.
        """
        from repro.nn.network import mlp

        network = mlp(8, [32, 24], 3, activation="relu", seed=13)
        rng = np.random.default_rng(5)
        train = rng.uniform(-1.0, 1.0, size=(4000, 8))
        monitor = BooleanPatternMonitor(network, 4, thresholds="mean").fit(train)
        packed_path = save_monitor(monitor, tmp_path / "packed.npz", format=2)
        legacy_path = save_monitor(monitor, tmp_path / "legacy.npz", format=1)

        def best_of(load):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                load()
                times.append(time.perf_counter() - start)
            return min(times)

        legacy_time = best_of(lambda: load_monitor(legacy_path, network).patterns.root)
        packed_time = best_of(lambda: load_monitor(packed_path, network))
        probes = rng.uniform(-2.0, 2.0, size=(32, 8))
        packed = load_monitor(packed_path, network)
        legacy = load_monitor(legacy_path, network)
        np.testing.assert_array_equal(packed.warn_batch(probes), legacy.warn_batch(probes))
        assert not packed.patterns.bdd_materialised
        assert not legacy.patterns.bdd_materialised
        assert packed_time < legacy_time / 2.0, (
            f"packed load {packed_time * 1e3:.1f} ms not faster than "
            f"legacy load with BDD {legacy_time * 1e3:.1f} ms by 2x"
        )
