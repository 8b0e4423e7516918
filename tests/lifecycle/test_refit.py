"""Incremental refit: bit-identity with from-scratch fits, no BDD builds.

The lifecycle claim is that ``fit(A)`` + ``update(B)`` on a clone equals
``fit(A ∪ B)`` bit for bit whenever the codec parameters are pinned — and
that refitting a format-2-restored monitor extends the packed mirror
*without ever materialising the deferred BDD*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.patterns import PatternSet
from repro.exceptions import LifecycleStateError
from repro.lifecycle import (
    RefitAccumulator,
    clone_monitor,
    incremental_refit,
    refit_monitor,
)
from repro.monitors import monitor_fingerprint
from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.monitors.thresholds import mean_thresholds, percentile_thresholds

from .conftest import LAYER


@pytest.fixture(scope="module")
def split_inputs(rng):
    """Nominal data split into the original fit set and the refit stream."""
    part_a = rng.uniform(-1.0, 1.0, size=(30, 6))
    part_b = rng.uniform(-1.5, 1.5, size=(18, 6))
    return part_a, part_b


def _pinned_builders(network, part_a):
    """One builder per family with codec parameters pinned explicitly.

    Data-derived thresholds/cuts are evaluated on ``part_a`` once and passed
    to both sides of the equivalence, so fit(A)+update(B) and fit(A∪B) use
    the *same* codec — the precondition for bit-identity.
    """
    activations = MinMaxMonitor(network, LAYER).features(part_a)
    thresholds = mean_thresholds(activations, 1)[:, 0]
    cut_points = percentile_thresholds(activations, 3)
    return {
        "minmax": lambda: MinMaxMonitor(network, LAYER),
        "boolean": lambda: BooleanPatternMonitor(
            network, LAYER, thresholds=thresholds
        ),
        "interval": lambda: IntervalPatternMonitor(
            network, LAYER, num_cuts=3, cut_points=cut_points
        ),
    }


@pytest.mark.parametrize("family", ["minmax", "boolean", "interval"])
def test_incremental_refit_is_bit_identical_to_from_scratch(
    family, tiny_network, split_inputs, probe_frames
):
    part_a, part_b = split_inputs
    build = _pinned_builders(tiny_network, part_a)[family]

    refit = incremental_refit(build().fit(part_a), part_b)
    scratch = build().fit(np.vstack([part_a, part_b]))

    assert monitor_fingerprint(refit) == monitor_fingerprint(scratch)
    np.testing.assert_array_equal(
        refit.warn_batch(probe_frames), scratch.warn_batch(probe_frames)
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    split=st.integers(min_value=1, max_value=23),
    delta=st.sampled_from([0.01, 0.05, 0.2]),
    family=st.sampled_from(["boolean", "interval"]),
)
def test_robust_incremental_refit_is_bit_identical_and_minimal(
    tiny_network, seed, split, delta, family
):
    """Robust monitors evict and drop covered rows on refit, yet the refit
    mirror is exactly the minimal mirror of a from-scratch fit."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(24, 6))
    part_a, part_b = inputs[:split], inputs[split:]
    spec = PerturbationSpec(delta=delta, layer=0, method="box")
    activations = MinMaxMonitor(tiny_network, LAYER).features(part_a)
    if family == "boolean":
        thresholds = mean_thresholds(activations, 1)[:, 0]

        def build():
            return RobustBooleanPatternMonitor(
                tiny_network, LAYER, spec, thresholds=thresholds
            )

    else:
        cut_points = percentile_thresholds(activations, 3)

        def build():
            return RobustIntervalPatternMonitor(
                tiny_network, LAYER, spec, num_cuts=3, cut_points=cut_points
            )

    refit = incremental_refit(build().fit(part_a), part_b)
    scratch = build().fit(inputs)
    assert monitor_fingerprint(refit) == monitor_fingerprint(scratch)
    refit_state = refit.patterns.packed_state()
    for key, value in scratch.patterns.packed_state().items():
        np.testing.assert_array_equal(refit_state[key], value)
    probes = rng.uniform(-1.5, 1.5, size=(64, 6))
    np.testing.assert_array_equal(refit.warn_batch(probes), scratch.warn_batch(probes))


def test_incremental_refit_never_mutates_the_original(tiny_network, split_inputs, probe_frames):
    part_a, part_b = split_inputs
    original = MinMaxMonitor(tiny_network, LAYER).fit(part_a)
    fingerprint = monitor_fingerprint(original)
    refit = incremental_refit(original, part_b)
    assert refit is not original
    assert monitor_fingerprint(original) == fingerprint
    assert monitor_fingerprint(refit) != fingerprint


def test_refit_on_restored_monitor_extends_mirror_without_bdd(
    monkeypatch, store, tiny_network, split_inputs
):
    """The acceptance pin: refit of a format-2 load stays BDD-free.

    The stored archive restores with a deferred BDD; ``update()`` must
    extend the packed mirror only.  A spy on ``PatternSet._ensure_bdd``
    proves the replay is never triggered along the whole
    store → load → refit → store chain.
    """
    part_a, part_b = split_inputs
    activations = MinMaxMonitor(tiny_network, LAYER).features(part_a)
    thresholds = mean_thresholds(activations, 1)[:, 0]
    fitted = BooleanPatternMonitor(
        tiny_network, LAYER, thresholds=thresholds
    ).fit(part_a)
    store.put("mon", fitted)
    loaded = store.load("mon", 1, tiny_network)
    assert not loaded.patterns.bdd_materialised

    replays = []
    real_ensure = PatternSet._ensure_bdd

    def spy(self):
        if self._bdd_deferred:  # only count replays that would build the BDD
            replays.append(self)
        return real_ensure(self)

    monkeypatch.setattr(PatternSet, "_ensure_bdd", spy)
    rows_before = sum(
        state.shape[0] for state in loaded.patterns.packed_state().values()
    )
    refit = incremental_refit(loaded, part_b)
    version = store.put("mon", refit)

    assert replays == []  # never materialised, start to finish
    assert not refit.patterns.bdd_materialised
    rows_after = sum(
        state.shape[0] for state in refit.patterns.packed_state().values()
    )
    assert rows_after >= rows_before  # the mirror absorbed the new patterns
    # The refit archive round-trips: same fingerprint after another load.
    assert store.fingerprint("mon", version) == monitor_fingerprint(refit)
    # Sanity: the spy does fire when a BDD-dependent operation runs.  (The
    # model count of an exact-only mirror is its row count, so it needs no
    # BDD; the node count does.)
    refit.patterns.dag_size()
    assert replays


def test_clone_shares_network_but_no_mutable_state(tiny_network, split_inputs):
    part_a, part_b = split_inputs
    original = MinMaxMonitor(tiny_network, LAYER).fit(part_a)
    clone = clone_monitor(original)
    assert clone.network is original.network
    clone.update(part_b)
    assert monitor_fingerprint(clone) != monitor_fingerprint(original)


def test_refit_monitor_archives_with_metadata(store, tiny_network, split_inputs):
    part_a, part_b = split_inputs
    fitted = MinMaxMonitor(tiny_network, LAYER).fit(part_a)
    refit, version = refit_monitor(
        store, "mon", fitted, part_b, metadata={"source": "stream"}
    )
    entry = store.describe()["monitors"]["mon"]["versions"][version]
    assert entry["metadata"]["refit_frames"] == part_b.shape[0]
    assert entry["metadata"]["source"] == "stream"
    assert store.fingerprint("mon", version) == monitor_fingerprint(refit)


def test_incremental_refit_validates_inputs(tiny_network, split_inputs):
    part_a, _ = split_inputs
    fitted = MinMaxMonitor(tiny_network, LAYER).fit(part_a)
    with pytest.raises(LifecycleStateError):
        incremental_refit(fitted, np.empty((0, 6)))
    with pytest.raises(LifecycleStateError):
        incremental_refit(object(), part_a)


def test_refit_accumulator_buffers_only_accepted_frames():
    accumulator = RefitAccumulator(min_frames=3, capacity=4)
    frame = np.arange(6.0)
    assert accumulator.offer(frame, warned=False)
    assert not accumulator.offer(frame, warned=True)  # alarms are not nominal
    assert not accumulator.ready()
    assert accumulator.offer(frame + 1, warned=False)
    assert accumulator.offer(frame + 2, warned=False)
    assert accumulator.ready()
    assert accumulator.offer(frame + 3, warned=False)
    assert not accumulator.offer(frame + 4, warned=False)  # full: dropped
    snapshot = accumulator.snapshot()
    assert snapshot == {
        "buffered": 4,
        "accepted": 4,
        "rejected_warned": 1,
        "dropped_full": 1,
        "min_frames": 3,
    }
    batch = accumulator.take()
    assert batch.shape == (4, 6)
    np.testing.assert_array_equal(batch[0], frame)
    assert len(accumulator) == 0
    with pytest.raises(LifecycleStateError):
        accumulator.take()


def test_refit_accumulator_validates_bounds():
    with pytest.raises(LifecycleStateError):
        RefitAccumulator(min_frames=0)
    with pytest.raises(LifecycleStateError):
        RefitAccumulator(min_frames=10, capacity=5)
