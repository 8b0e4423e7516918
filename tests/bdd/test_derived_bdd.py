"""The BDD is a view derived from the packed mirror.

Fit, scoring, Hamming relaxation and ``describe()`` read the mirror only;
the BDD is built on demand.  The tests use that BDD as their oracle: the
mirror's minimum position distance must be exactly the radius at which the
BDD restriction search first finds a stored word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDDManager
from repro.bdd.patterns import PatternSet
from repro.exceptions import ShapeError
from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.monitors.quantitative import PatternDistanceMonitor
from repro.monitors.registry import MonitorRegistry
from repro.runtime import PackedMatcher, WordCodec

from .test_minimal_mirror import all_backends, planes

GAMMAS = (0, 1, 2)
LAYER = 4


def bdd_distance(patterns, word, limit):
    """Smallest radius ≤ ``limit`` the BDD search accepts, else ``limit + 1``."""
    for radius in range(limit + 1):
        if patterns._within_hamming_bdd(list(word), radius):
            return radius
    return limit + 1


@st.composite
def pattern_sets(draw):
    """A random exact / ternary (1-bit) / range set, possibly of mixed kinds."""
    bits = draw(st.integers(min_value=1, max_value=3))
    kinds = ["exact", "range"] + (["ternary"] if bits == 1 else [])
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2, unique=True))
    num_positions = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_codes = 1 << bits
    patterns = PatternSet(num_positions, bits_per_position=bits)
    for kind in chosen:
        rows = int(rng.integers(0, 10))
        low = rng.integers(0, num_codes, size=(rows, num_positions))
        if kind == "exact":
            patterns.add_patterns(low)
        elif kind == "ternary":
            masks = rng.random((rows, num_positions)) < 0.7
            patterns.add_ternary_patterns(planes(low.astype(bool), masks))
        else:
            high = np.minimum(low + rng.integers(0, num_codes, size=low.shape), num_codes - 1)
            patterns.add_range_patterns(low, high)
    probes = rng.integers(0, num_codes, size=(12, num_positions))
    return patterns, probes


@settings(max_examples=80, deadline=None)
@given(case=pattern_sets())
def test_mirror_min_distance_equals_the_bdd_search(case):
    patterns, probes = case
    answers = {}
    for backend in all_backends():
        patterns.set_matcher_backend(backend)
        for gamma in GAMMAS:
            answers[backend, gamma] = patterns.min_distance_batch(probes, gamma)
    assert not patterns.bdd_materialised or patterns.is_empty()

    reference = np.array([bdd_distance(patterns, word, max(GAMMAS)) for word in probes])
    for (backend, gamma), distances in answers.items():
        expected = np.where(reference <= gamma, reference, gamma + 1)
        np.testing.assert_array_equal(distances, expected)
        within = [patterns.contains_within_hamming(list(word), gamma) for word in probes]
        assert within == [bool(d <= gamma) for d in expected]


@settings(max_examples=60, deadline=None)
@given(case=pattern_sets())
def test_min_distance_on_uint8_codes_equals_the_bdd_search(case):
    """Codes are unsigned: no distance path may subtract from or negate them."""
    patterns, probes = case
    codes = probes.astype(np.uint8)
    packed = patterns.codec.pack_codes(codes)
    reference = np.array([bdd_distance(patterns, word, max(GAMMAS)) for word in probes])
    for backend in all_backends():
        patterns.set_matcher_backend(backend)
        for gamma in GAMMAS:
            expected = np.where(reference <= gamma, reference, gamma + 1)
            np.testing.assert_array_equal(patterns.min_distance_batch(codes, gamma), expected)
        # The matcher itself, on uint8 codes passed in and on unpacked ones.
        if not patterns.is_empty():
            for given_codes in (codes, None):
                distances = patterns._matcher.min_distance(packed, codes=given_codes)
                np.testing.assert_array_equal(
                    np.minimum(distances, max(GAMMAS) + 1), reference
                )


def test_min_distance_counts_positions_not_bits():
    codec = WordCodec(3, 2)
    matcher = PackedMatcher(codec)
    matcher.add_exact_packed(codec.pack_codes(np.array([[0, 0, 0]])))
    matcher.add_code_ranges(np.array([[2, 2, 0]]), np.array([[3, 3, 0]]))
    probes = np.array([[3, 3, 3], [0, 3, 0], [1, 1, 1]])
    # [3,3,3]: ranges miss position 2 only; [0,3,0]: one position off either
    # row; [1,1,1]: three positions off the exact row and off the ranges.
    assert matcher.min_distance(codec.pack_codes(probes)).tolist() == [1, 1, 3]
    assert PackedMatcher(codec).min_distance(codec.pack_codes(probes)).tolist() == [4] * 3
    # Ternary rows count bits, which are positions only on 1-bit words.
    ternary = PackedMatcher(codec)
    ternary.add_ternary(planes([[1, 1, 0, 1, 0, 0]], [[1, 1, 0, 1, 0, 0]]))
    with pytest.raises(ShapeError):
        ternary.min_distance(codec.pack_codes(probes))


def test_min_distance_is_chunked(monkeypatch):
    from repro.runtime import matcher as matcher_module

    codec = WordCodec(70, 1)
    rng = np.random.default_rng(4)
    matcher = PackedMatcher(codec)
    matcher.add_exact_packed(codec.pack_codes(rng.integers(0, 2, size=(40, 70))))
    matcher.add_ternary(planes(rng.random((30, 70)) < 0.5, rng.random((30, 70)) < 0.8))
    probes = codec.pack_codes(rng.integers(0, 2, size=(25, 70)))
    whole = matcher.min_distance(probes)
    monkeypatch.setattr(matcher_module, "CHUNK_ELEMENTS", 16)
    np.testing.assert_array_equal(matcher.min_distance(probes), whole)


# ----------------------------------------------------------------------
# monitors: verdicts and distances equal the per-row BDD walk
# ----------------------------------------------------------------------
def build_monitor(family, network, inputs):
    spec = PerturbationSpec(delta=0.05, layer=0, method="box")
    if family == "boolean":
        return BooleanPatternMonitor(network, LAYER, thresholds="mean").fit(inputs)
    if family == "robust_boolean":
        return RobustBooleanPatternMonitor(network, LAYER, spec, thresholds="mean").fit(inputs)
    if family == "interval":
        return IntervalPatternMonitor(network, LAYER, num_cuts=3).fit(inputs)
    return RobustIntervalPatternMonitor(network, LAYER, spec, num_cuts=3).fit(inputs)


FAMILIES = ("boolean", "robust_boolean", "interval", "robust_interval")


@pytest.fixture(scope="module")
def fitted(tiny_network, tiny_inputs):
    return {family: build_monitor(family, tiny_network, tiny_inputs) for family in FAMILIES}


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    gamma=st.sampled_from(GAMMAS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_monitor_hamming_paths_equal_the_bdd_walk(fitted, family, gamma, seed):
    monitor = fitted[family]
    probes = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(10, 6))
    codes = monitor.codec.codes(monitor.features(probes))
    patterns = monitor.patterns
    limit = min(gamma, monitor.num_monitored_neurons)
    reference = np.array([bdd_distance(patterns, word, limit) for word in codes])

    distances = PatternDistanceMonitor(monitor, max_distance=gamma).distance_batch(probes)
    np.testing.assert_array_equal(distances, reference)
    if family in ("boolean", "robust_boolean"):
        monitor.hamming_tolerance = gamma
        try:
            np.testing.assert_array_equal(monitor.warn_batch(probes), reference > gamma)
        finally:
            monitor.hamming_tolerance = 0


# ----------------------------------------------------------------------
# no fit or scoring path builds a BDD
# ----------------------------------------------------------------------
def test_fit_scoring_and_describe_never_build_a_bdd(monkeypatch, tiny_network, tiny_inputs):
    calls = []
    for name in ("cube", "from_assignment", "code_sets"):
        real = getattr(BDDManager, name)

        def spy(self, *args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(BDDManager, name, spy)

    probes = np.random.default_rng(8).uniform(-3.0, 3.0, size=(32, 6))
    registry = MonitorRegistry(tiny_network)
    for family in FAMILIES:
        monitor = build_monitor(family, tiny_network, tiny_inputs)
        if isinstance(monitor, BooleanPatternMonitor):
            monitor.hamming_tolerance = 1
        monitor.warn_batch(probes)
        PatternDistanceMonitor(monitor, max_distance=2).distance_batch(probes)
        registry.register(family, monitor)
    registry.describe()

    assert calls == []
    for name in registry.names():
        assert not registry.get(name).patterns.bdd_materialised
    # The spy does see a BDD build when one is asked for.
    registry.get("robust_interval").patterns.dag_size()
    assert calls


def test_registry_describe_reports_mirror_rows_without_a_bdd(tiny_network, tiny_inputs):
    registry = MonitorRegistry(tiny_network)
    for family in ("boolean", "interval"):
        registry.register(family, build_monitor(family, tiny_network, tiny_inputs))
    described = registry.describe()["monitors"]
    for family in ("boolean", "interval"):
        detail = described[family]["detail"]
        patterns = registry.get(family).patterns
        assert detail["bdd_materialised"] is False
        assert not patterns.bdd_materialised
        assert detail["stored_rows"] == patterns.stored_rows
        assert detail["stored_rows"]["exact"] >= 1
