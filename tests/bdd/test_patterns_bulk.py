"""Tests for PatternSet bulk insertion and vectorised batch membership."""

import numpy as np
import pytest

from repro.bdd.patterns import DONT_CARE, PatternSet
from repro.exceptions import ConfigurationError
from repro.runtime.codec import TernaryPlanes
from repro.runtime.packing import pack_bool_matrix


def _brute_membership(patterns, probes):
    return np.array([patterns.contains(list(p)) for p in probes])


class TestBulkExactInsertion:
    def test_bulk_equals_sequential(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2, size=(60, 8))
        bulk = PatternSet(8)
        bulk.add_patterns(words)
        sequential = PatternSet(8)
        for word in words:
            sequential.add_word(list(word))
        assert bulk.cardinality() == sequential.cardinality()
        assert set(bulk.iterate_words()) == set(sequential.iterate_words())
        assert bulk.insertions == sequential.insertions == 60

    def test_bulk_deduplicates_before_bdd_insertion(self):
        words = np.tile(np.array([[1, 0, 1]]), (50, 1))
        patterns = PatternSet(3)
        patterns.add_patterns(words)
        assert patterns.cardinality() == 1
        assert patterns.insertions == 50

    def test_multibit_bulk(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 4, size=(40, 5))
        patterns = PatternSet(5, bits_per_position=2)
        patterns.add_patterns(words)
        probes = rng.integers(0, 4, size=(200, 5))
        np.testing.assert_array_equal(
            patterns.contains_batch(probes), _brute_membership(patterns, probes)
        )

    def test_empty_batch_is_noop(self):
        patterns = PatternSet(4)
        patterns.add_patterns(np.zeros((0, 4), dtype=np.int64))
        assert patterns.is_empty()
        assert patterns.insertions == 0

    def test_invalid_codes_rejected(self):
        patterns = PatternSet(3)
        with pytest.raises(ConfigurationError):
            patterns.add_patterns(np.array([[0, 1, 2]]))
        with pytest.raises(ConfigurationError):
            patterns.add_patterns(np.array([[0, 1]]))


class TestBulkTernaryInsertion:
    def test_bulk_ternary_equals_sequential(self):
        rng = np.random.default_rng(2)
        words = []
        for _ in range(30):
            words.append(
                [
                    DONT_CARE if rng.random() < 0.4 else int(rng.random() < 0.5)
                    for _ in range(10)
                ]
            )
        masks = np.array([[s != DONT_CARE for s in w] for w in words])
        values = np.array([[s == 1 for s in w] for w in words])
        bulk = PatternSet(10)
        bulk.add_ternary_patterns(
            TernaryPlanes(values=pack_bool_matrix(values), masks=pack_bool_matrix(masks))
        )
        sequential = PatternSet(10)
        for word in words:
            sequential.add_ternary_word(word)
        assert bulk.cardinality() == sequential.cardinality()
        probes = rng.integers(0, 2, size=(300, 10))
        np.testing.assert_array_equal(
            bulk.contains_batch(probes), sequential.contains_batch(probes)
        )
        np.testing.assert_array_equal(
            bulk.contains_batch(probes), _brute_membership(bulk, probes)
        )


class TestBulkRangeInsertion:
    def test_bulk_ranges_match_row_by_row(self):
        rng = np.random.default_rng(3)
        low = rng.integers(0, 3, size=(12, 6))
        high = low + rng.integers(0, 2, size=(12, 6))
        bulk = PatternSet(6, bits_per_position=2)
        bulk.add_range_patterns(low, high)
        by_row = PatternSet(6, bits_per_position=2)
        for low_row, high_row in zip(low, high):
            by_row.add_range_patterns(low_row[None], high_row[None])
        assert bulk.cardinality() == by_row.cardinality()
        probes = rng.integers(0, 4, size=(250, 6))
        np.testing.assert_array_equal(
            bulk.contains_batch(probes), by_row.contains_batch(probes)
        )
        np.testing.assert_array_equal(
            bulk.contains_batch(probes), _brute_membership(bulk, probes)
        )

    def test_invalid_ranges_rejected(self):
        patterns = PatternSet(3, bits_per_position=2)
        with pytest.raises(ConfigurationError):
            patterns.add_range_patterns(
                np.array([[2, 0, 0]]), np.array([[1, 0, 0]])
            )


class TestBatchMembershipFallback:
    def test_union_keeps_batch_queries_exact(self):
        rng = np.random.default_rng(5)
        left = PatternSet(5)
        right = PatternSet(5)
        left.add_patterns(rng.integers(0, 2, size=(20, 5)))
        right.add_ternary_word([1, DONT_CARE, 0, DONT_CARE, 1])
        left.union(right)
        probes = rng.integers(0, 2, size=(200, 5))
        np.testing.assert_array_equal(
            left.contains_batch(probes), _brute_membership(left, probes)
        )
