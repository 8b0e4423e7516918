"""Straightforward reference versions of the codec, packing and matcher passes.

These are the broadcast formulations the runtime used before its hot path
was narrowed to ``uint8`` codes, ``np.packbits``, a bit-sliced range table
and a presorted exact lookup.  They are slow and wide (``int64`` codes,
one ``uint64`` per bit while packing, ``(n, R, P)`` range compares) but
obviously right, so the property tests compare the runtime to them bit for
bit.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_SHIFTS = np.arange(WORD_BITS, dtype=np.uint64)


def words_for_bits(num_bits: int) -> int:
    return (int(num_bits) + WORD_BITS - 1) // WORD_BITS


def pack_bool_matrix(bits: np.ndarray) -> np.ndarray:
    """Column ``j`` → bit ``j % 64`` of word ``j // 64``, by an OR-reduce."""
    bits = np.asarray(bits)
    num_rows, num_bits = bits.shape
    num_words = words_for_bits(num_bits)
    padded = np.zeros((num_rows, num_words * WORD_BITS), dtype=np.uint64)
    padded[:, :num_bits] = bits.astype(bool)
    chunks = padded.reshape(num_rows, num_words, WORD_BITS)
    return np.bitwise_or.reduce(chunks << _SHIFTS[None, None, :], axis=2)


def unpack_bool_matrix(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`, by shifting every bit out."""
    packed = np.asarray(packed, dtype=np.uint64)
    num_words = words_for_bits(num_bits)
    bits = (packed[:, :, None] >> _SHIFTS[None, None, :]) & np.uint64(1)
    return bits.reshape(packed.shape[0], num_words * WORD_BITS)[:, :num_bits].astype(bool)


def codes(features: np.ndarray, effective_cuts: np.ndarray) -> np.ndarray:
    """``int64`` interval codes: the count of cuts each value lies above."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return (
        (features[:, :, None] > effective_cuts[None, :, :]).sum(axis=2).astype(np.int64)
    )


def code_bits(codes: np.ndarray, bits_per_position: int) -> np.ndarray:
    """``(N, P)`` codes → ``(N, P·b)`` bits, MSB first per position."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    shifts = np.arange(bits_per_position - 1, -1, -1, dtype=np.int64)
    bits = (codes[:, :, None] >> shifts[None, None, :]) & 1
    return bits.reshape(codes.shape[0], codes.shape[1] * bits_per_position).astype(bool)


def encode(
    features: np.ndarray, effective_cuts: np.ndarray, bits_per_position: int
) -> np.ndarray:
    """Features → packed pattern words."""
    return pack_bool_matrix(code_bits(codes(features, effective_cuts), bits_per_position))


def _row_view(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.dtype.itemsize))).ravel()


def match_exact(probes: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Exact membership by a sort-based ``np.isin`` over row byte views."""
    if exact.shape[0] == 0:
        return np.zeros(probes.shape[0], dtype=bool)
    return np.isin(_row_view(probes), _row_view(exact))


def match_ranges(probe_codes: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Range membership by one ``(n, R, P)`` ``int64`` broadcast compare."""
    probe_codes = np.asarray(probe_codes, dtype=np.int64)
    low = np.asarray(low, dtype=np.int64)
    high = np.asarray(high, dtype=np.int64)
    if low.shape[0] == 0:
        return np.zeros(probe_codes.shape[0], dtype=bool)
    inside = (probe_codes[:, None, :] >= low[None, :, :]) & (
        probe_codes[:, None, :] <= high[None, :, :]
    )
    return inside.all(axis=2).any(axis=1)


def match_ternary(probes: np.ndarray, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Ternary membership, one probe at a time: some row agrees on its mask."""
    probes = np.asarray(probes, dtype=np.uint64)
    return np.array(
        [bool((((probe ^ values) & masks) == 0).all(axis=1).any()) for probe in probes],
        dtype=bool,
    )
