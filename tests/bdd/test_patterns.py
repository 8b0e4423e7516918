"""Tests for PatternSet: word storage, word2set, Hamming relaxation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.patterns import DONT_CARE, PatternSet
from repro.exceptions import ConfigurationError


class TestBasicWordStorage:
    def test_empty_set_contains_nothing(self):
        patterns = PatternSet(4)
        assert patterns.is_empty()
        assert patterns.cardinality() == 0
        assert not patterns.contains([0, 0, 0, 0])

    def test_added_words_are_members(self):
        patterns = PatternSet(3)
        patterns.add_word([1, 0, 1])
        patterns.add_word([0, 0, 0])
        assert patterns.contains([1, 0, 1])
        assert patterns.contains([0, 0, 0])
        assert not patterns.contains([1, 1, 1])
        assert patterns.cardinality() == 2
        assert patterns.insertions == 2

    def test_duplicate_insertion_does_not_grow_cardinality(self):
        patterns = PatternSet(3)
        patterns.add_word([1, 1, 0])
        patterns.add_word([1, 1, 0])
        assert patterns.cardinality() == 1

    def test_wrong_word_length_rejected(self):
        patterns = PatternSet(3)
        with pytest.raises(ConfigurationError):
            patterns.add_word([1, 0])
        with pytest.raises(ConfigurationError):
            patterns.contains([1, 0, 1, 1])

    def test_code_out_of_range_rejected(self):
        patterns = PatternSet(3, bits_per_position=1)
        with pytest.raises(ConfigurationError):
            patterns.add_word([2, 0, 0])

    def test_len_and_in_operators(self):
        patterns = PatternSet(2)
        patterns.add_word([1, 0])
        assert len(patterns) == 1
        assert [1, 0] in patterns
        assert [0, 1] not in patterns

    def test_invalid_shape_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PatternSet(0)
        with pytest.raises(ConfigurationError):
            PatternSet(3, bits_per_position=0)


class TestTernaryWords:
    def test_dont_care_expands_to_both_values(self):
        patterns = PatternSet(3)
        patterns.add_ternary_word([1, DONT_CARE, 0])
        assert patterns.cardinality() == 2
        assert patterns.contains([1, 0, 0])
        assert patterns.contains([1, 1, 0])
        assert not patterns.contains([0, 0, 0])

    def test_all_dont_care_covers_everything(self):
        patterns = PatternSet(4)
        patterns.add_ternary_word([DONT_CARE] * 4)
        assert patterns.cardinality() == 16

    def test_no_exponential_blowup_in_bdd_size(self):
        """The paper's key storage argument: word2set stays compact."""
        width = 40
        patterns = PatternSet(width)
        word = [DONT_CARE] * width
        word[0] = 1
        word[-1] = 0
        patterns.add_ternary_word(word)
        assert patterns.cardinality() == 2 ** (width - 2)
        assert patterns.dag_size() <= 4

    def test_ternary_word_on_multibit_set_rejected(self):
        patterns = PatternSet(3, bits_per_position=2)
        with pytest.raises(ConfigurationError):
            patterns.add_ternary_word([1, DONT_CARE, 0])

    def test_invalid_ternary_symbol_rejected(self):
        patterns = PatternSet(2)
        with pytest.raises(ConfigurationError):
            patterns.add_ternary_word([1, "?"])

    def test_wrong_ternary_length_rejected(self):
        patterns = PatternSet(2)
        with pytest.raises(ConfigurationError):
            patterns.add_ternary_word([1])

    @settings(max_examples=40, deadline=None)
    @given(
        word=st.lists(st.sampled_from([0, 1, DONT_CARE]), min_size=5, max_size=5),
        concrete=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    )
    def test_ternary_membership_property(self, word, concrete):
        """A concrete word is a member iff it matches every constrained bit."""
        patterns = PatternSet(5)
        patterns.add_ternary_word(word)
        matches = all(
            symbol == DONT_CARE or int(symbol) == bit
            for symbol, bit in zip(word, concrete)
        )
        assert patterns.contains(concrete) == matches


class TestMultiBitCodeSets:
    def test_add_word_with_two_bits(self):
        patterns = PatternSet(2, bits_per_position=2)
        patterns.add_word([3, 0])
        assert patterns.contains([3, 0])
        assert not patterns.contains([0, 3])
        assert patterns.cardinality() == 1

    def test_code_ranges_cartesian_product(self):
        patterns = PatternSet(3, bits_per_position=2)
        patterns.add_range_patterns(np.array([[0, 2, 1]]), np.array([[1, 2, 3]]))
        assert patterns.cardinality() == 2 * 1 * 3
        for codes in itertools.product([0, 1], [2], [1, 2, 3]):
            assert patterns.contains(list(codes))
        assert not patterns.contains([2, 2, 1])

    def test_full_code_range_is_unconstrained(self):
        patterns = PatternSet(2, bits_per_position=2)
        patterns.add_range_patterns(np.array([[0, 1]]), np.array([[3, 1]]))
        assert patterns.cardinality() == 4

    def test_code_range_bdd_stays_small(self):
        """Cartesian products of code ranges are stored without enumeration."""
        positions = 24
        patterns = PatternSet(positions, bits_per_position=2)
        patterns.add_range_patterns(np.full((1, positions), 1), np.full((1, positions), 2))
        assert patterns.cardinality() == 2**positions
        assert patterns.dag_size() <= 3 * positions

    def test_wrong_number_of_code_ranges_rejected(self):
        patterns = PatternSet(2, bits_per_position=2)
        with pytest.raises(ConfigurationError, match="positions"):
            patterns.add_range_patterns(np.array([[0]]), np.array([[1]]))

    def test_code_range_out_of_range_rejected(self):
        patterns = PatternSet(2, bits_per_position=1)
        with pytest.raises(ConfigurationError):
            patterns.add_range_patterns(np.array([[0, 1]]), np.array([[2, 1]]))

    def test_low_high_shape_mismatch_rejected(self):
        patterns = PatternSet(2, bits_per_position=2)
        with pytest.raises(ConfigurationError, match="share a shape"):
            patterns.add_range_patterns(np.zeros((2, 2), dtype=int), np.ones((1, 2), dtype=int))

    def test_refused_range_insertion_changes_nothing(self):
        patterns = PatternSet(2, bits_per_position=2)
        patterns.add_word([1, 2])
        with pytest.raises(ConfigurationError):
            patterns.add_range_patterns(np.array([[0, 0], [3, 1]]), np.array([[1, 1], [2, 1]]))
        assert patterns.insertions == 1
        assert patterns.cardinality() == 1
        assert patterns.contains([1, 2]) and not patterns.contains([0, 0])

    @settings(max_examples=30, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted), min_size=3, max_size=3
        ),
        probe=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_code_range_membership_property(self, ranges, probe):
        patterns = PatternSet(3, bits_per_position=2)
        low, high = np.array(ranges).T
        patterns.add_range_patterns(low[None], high[None])
        expected = all(lo <= code <= hi for code, (lo, hi) in zip(probe, ranges))
        assert patterns.contains(probe) == expected
        assert patterns.cardinality() == int(np.prod([hi - lo + 1 for lo, hi in ranges]))


class TestHammingRelaxation:
    def test_distance_zero_is_exact_membership(self):
        patterns = PatternSet(4)
        patterns.add_word([1, 0, 1, 0])
        assert patterns.contains_within_hamming([1, 0, 1, 0], 0)
        assert not patterns.contains_within_hamming([1, 0, 1, 1], 0)

    def test_distance_one_accepts_single_flip(self):
        patterns = PatternSet(4)
        patterns.add_word([1, 0, 1, 0])
        assert patterns.contains_within_hamming([1, 0, 1, 1], 1)
        assert not patterns.contains_within_hamming([1, 1, 1, 1], 1)
        assert patterns.contains_within_hamming([1, 1, 1, 1], 2)

    def test_negative_distance_rejected(self):
        patterns = PatternSet(2)
        patterns.add_word([0, 0])
        with pytest.raises(ConfigurationError):
            patterns.contains_within_hamming([0, 0], -1)

    def test_distance_larger_than_word_accepts_everything_nonempty(self):
        patterns = PatternSet(3)
        patterns.add_word([0, 0, 0])
        assert patterns.contains_within_hamming([1, 1, 1], 5)


class TestIterationAndUnion:
    def test_iterate_words_round_trips(self):
        patterns = PatternSet(3, bits_per_position=2)
        words = [(0, 3, 1), (2, 2, 2), (1, 0, 3)]
        for word in words:
            patterns.add_word(list(word))
        assert set(patterns.iterate_words()) == set(words)

    def test_union_same_shape(self):
        a = PatternSet(3)
        b = PatternSet(3)
        a.add_word([1, 0, 0])
        b.add_word([0, 1, 1])
        a.union(b)
        assert a.contains([1, 0, 0]) and a.contains([0, 1, 1])
        assert a.cardinality() == 2

    def test_union_shape_mismatch_rejected(self):
        a = PatternSet(3)
        b = PatternSet(2)
        with pytest.raises(ConfigurationError):
            a.union(b)

    def test_bit_index_bounds_checked(self):
        patterns = PatternSet(2, bits_per_position=2)
        with pytest.raises(ConfigurationError):
            patterns.bit_index(2, 0)
        with pytest.raises(ConfigurationError):
            patterns.bit_index(0, 2)


@pytest.mark.parametrize("bits", [1, 3])
def test_walks_on_sets_wider_than_the_recursion_limit(bits):
    """dag_size, cardinality and iterate_words are iterative walks."""
    num_positions = 2048 // bits + 1
    rng = np.random.default_rng(bits)
    words = rng.integers(0, 1 << bits, size=(3, num_positions))
    patterns = PatternSet(num_positions, bits_per_position=bits)
    patterns.add_patterns(words)
    assert patterns.num_bits >= 2048
    assert patterns.cardinality() == 3
    assert patterns.dag_size() >= patterns.num_bits
    assert sorted(patterns.iterate_words()) == sorted(map(tuple, words.tolist()))
    low = np.zeros((1, num_positions), dtype=np.int64)
    high = np.ones((1, num_positions), dtype=np.int64)
    patterns.add_range_patterns(low, high)
    assert patterns.cardinality() == 3 + 2**num_positions - sum(
        bool(np.all(word <= 1)) for word in words
    )
    assert len(list(patterns.iterate_words(limit=5))) == 5
