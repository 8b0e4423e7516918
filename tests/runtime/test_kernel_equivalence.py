"""Property tests: the matcher kernel is bit-identical to the reference passes.

The kernel answers every verdict, so its presorted exact lookup, ternary
broadcast and bit-sliced range table are pinned against the straightforward
formulations of ``tests/oracles/runtime.py``.  These tests generate random
mixes of exact, ternary and range structures over random codec shapes —
widths deliberately straddling the 64-bit machine-word boundary — and check
the verdict vector on live matchers, across the ``export_state`` reload and
across the ``packed_state`` → ``from_packed_state`` round-trip of a whole
pattern set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.patterns import PatternSet
from repro.exceptions import ConfigurationError
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime.codec import PatternCodec, TernaryPlanes
from repro.runtime.kernels import resolve_matcher_backend

from ..oracles import runtime as oracle


@st.composite
def matcher_workloads(draw):
    """A random codec shape plus exact/ternary/range structures and probes."""
    num_positions = draw(st.integers(min_value=1, max_value=70))
    bits = draw(st.integers(min_value=1, max_value=2))
    num_codes = 1 << bits
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)

    num_exact = draw(st.integers(min_value=0, max_value=8))
    exact = rng.integers(0, num_codes, size=(num_exact, num_positions))

    num_ranges = draw(st.integers(min_value=0, max_value=4))
    low = rng.integers(0, num_codes, size=(num_ranges, num_positions))
    width = rng.integers(0, num_codes, size=(num_ranges, num_positions))
    high = np.minimum(low + width, num_codes - 1)

    num_probes = draw(st.integers(min_value=0, max_value=30))
    probes = rng.integers(0, num_codes, size=(num_probes, num_positions))
    # Re-probe some stored rows so positive hits are guaranteed to occur.
    for source in (exact, low, high):
        if source.shape[0] and probes.shape[0]:
            take = min(source.shape[0], max(1, probes.shape[0] // 4))
            probes[:take] = source[:take]

    # Ternary entries as feature intervals (encoded through the codec so
    # value/mask planes are generated exactly like monitor fits generate
    # them); ``span`` widens some positions into don't-cares.
    # Ternary planes exist only for 1-bit codecs (on/off activation patterns).
    num_ternary = draw(st.integers(min_value=0, max_value=4)) if bits == 1 else 0
    centres = rng.normal(size=(num_ternary, num_positions))
    spans = rng.uniform(0.0, 1.5, size=(num_ternary, num_positions))
    return {
        "num_positions": num_positions,
        "bits": bits,
        "exact": exact,
        "range_low": low,
        "range_high": high,
        "ternary_centres": centres,
        "ternary_spans": spans,
        "probes": probes,
    }


def build_matcher(codec, workload):
    matcher = PackedMatcher(codec.word_codec)
    if workload["exact"].shape[0]:
        matcher.add_exact_packed(codec.word_codec.pack_codes(workload["exact"]))
    if workload["range_low"].shape[0]:
        matcher.add_code_ranges(workload["range_low"], workload["range_high"])
    if workload["ternary_centres"].shape[0]:
        matcher.add_ternary(codec.ternary_planes(*ternary_bounds(workload)))
    return matcher


def ternary_bounds(workload):
    centres, spans = workload["ternary_centres"], workload["ternary_spans"]
    return centres - spans, centres + spans


def oracle_membership(codec, workload):
    """The workload's verdict vector from the reference passes."""
    probes = workload["probes"]
    bits = codec.word_codec.bits_per_position
    packed = oracle.pack_bool_matrix(oracle.code_bits(probes, bits))
    hits = oracle.match_ranges(probes, workload["range_low"], workload["range_high"])
    hits |= oracle.match_exact(
        packed, oracle.pack_bool_matrix(oracle.code_bits(workload["exact"], bits))
    )
    if workload["ternary_centres"].shape[0]:
        planes = codec.ternary_planes(*ternary_bounds(workload))
        hits |= oracle.match_ternary(packed, planes.values, planes.masks)
    return hits


def make_codec(workload):
    cuts = np.linspace(-1.0, 1.0, (1 << workload["bits"]) - 1)
    cut_points = np.tile(cuts, (workload["num_positions"], 1))
    return PatternCodec(cut_points)


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(workload=matcher_workloads())
    def test_all_backends_bit_identical(self, workload):
        codec = make_codec(workload)
        expected = oracle_membership(codec, workload)
        matcher = build_matcher(codec, workload)
        packed = codec.word_codec.pack_codes(workload["probes"])
        np.testing.assert_array_equal(matcher.contains_codes(workload["probes"]), expected)
        np.testing.assert_array_equal(matcher.contains_packed(packed), expected)

    @settings(max_examples=25, deadline=None)
    @given(workload=matcher_workloads())
    def test_export_state_reload_keeps_equivalence(self, workload):
        codec = make_codec(workload)
        expected = oracle_membership(codec, workload)
        state = build_matcher(codec, workload).export_state()
        clone = PackedMatcher(codec.word_codec)
        clone.add_exact_packed(state["exact"])
        if state["ternary_values"].shape[0]:
            clone.add_ternary(
                TernaryPlanes(values=state["ternary_values"], masks=state["ternary_masks"])
            )
        if state["range_low"].shape[0]:
            clone.add_code_ranges(state["range_low"], state["range_high"])
        np.testing.assert_array_equal(clone.contains_codes(workload["probes"]), expected)


class TestPatternSetEquivalence:
    """The monitor-facing surface: contains_batch and format-2 round-trips."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_positions=st.integers(min_value=1, max_value=66),
    )
    def test_contains_batch_across_backends(self, seed, num_positions):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2, size=(10, num_positions))
        probes = np.vstack([words[:5], rng.integers(0, 2, size=(20, num_positions))])
        patterns = PatternSet(num_positions)
        patterns.add_patterns(words)
        stored = {tuple(row) for row in words.tolist()}
        expected = np.array([tuple(row) in stored for row in probes.tolist()])
        assert expected[:5].all()
        np.testing.assert_array_equal(patterns.contains_batch(probes), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_positions=st.integers(min_value=1, max_value=40),
        bits=st.integers(min_value=1, max_value=2),
    )
    def test_format2_roundtrip_across_backends(self, seed, num_positions, bits):
        rng = np.random.default_rng(seed)
        num_codes = 1 << bits
        low = rng.integers(0, num_codes, size=(4, num_positions))
        high = np.minimum(low + rng.integers(0, 2, size=low.shape), num_codes - 1)
        words = rng.integers(0, num_codes, size=(6, num_positions))
        original = PatternSet(num_positions, bits_per_position=bits)
        original.add_patterns(words)
        original.add_range_patterns(low, high)
        probes = np.vstack(
            [words, low, rng.integers(0, num_codes, size=(25, num_positions))]
        )
        expected = oracle.match_ranges(probes, low, high) | oracle.match_exact(
            oracle.pack_bool_matrix(oracle.code_bits(probes, bits)),
            oracle.pack_bool_matrix(oracle.code_bits(words, bits)),
        )
        np.testing.assert_array_equal(original.contains_batch(probes), expected)
        restored = PatternSet.from_packed_state(
            num_positions, bits, original.packed_state(), insertions=original.insertions
        )
        np.testing.assert_array_equal(restored.contains_batch(probes), expected)


def test_unknown_backend_rejected_with_choice_list():
    """A back-end choice is refused up front, naming the one kernel there is."""
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_matcher_backend("no-such-kernel")
    message = str(excinfo.value)
    assert "no-such-kernel" in message
    assert "numpy" in message
    # Matchers take no choice at all, so no bad name can wait for a query.
    with pytest.raises(TypeError):
        PackedMatcher(WordCodec(8, 1), backend="no-such-kernel")
