"""Vectorised bit-packing primitives for activation patterns.

An activation word over ``B`` bits is stored as ``ceil(B / 64)`` unsigned
64-bit machine words, bit ``j`` of the word living in machine word
``j // 64`` at bit offset ``j % 64`` (LSB-first inside each machine word).
A batch of ``N`` words is therefore a ``(N, W)`` ``uint64`` matrix, and every
codec/matcher operation in :mod:`repro.runtime` is a handful of NumPy kernel
calls over such matrices instead of a Python loop over samples.

Only the bit layout is defined here; semantic encodings (interval codes,
ternary don't-care planes) live in :mod:`repro.runtime.codec`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, ShapeError

__all__ = [
    "WORD_BITS",
    "words_for_bits",
    "pack_bool_matrix",
    "unpack_bool_matrix",
    "popcount",
    "tail_word_mask",
    "full_mask_words",
]

#: Number of pattern bits stored per machine word.
WORD_BITS = 64

def words_for_bits(num_bits: int) -> int:
    """Number of ``uint64`` machine words needed to store ``num_bits`` bits."""
    if num_bits <= 0:
        raise ConfigurationError("num_bits must be positive")
    return (int(num_bits) + WORD_BITS - 1) // WORD_BITS


def tail_word_mask(num_bits: int) -> np.uint64:
    """Mask of the *valid* bits of the last machine word of a packed row.

    For widths that are an exact multiple of 64 the whole word is valid;
    otherwise only the low ``num_bits % 64`` bits are.  Packed rows always
    keep their padding bits zero (pinned by the matcher tail-masking tests),
    so whole-word equality compares stay exact at any bit width.
    """
    remainder = int(num_bits) % WORD_BITS
    if remainder == 0:
        return np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return np.uint64((1 << remainder) - 1)


def full_mask_words(num_bits: int) -> np.ndarray:
    """The packed all-ones word of ``num_bits`` bits (padding bits zero)."""
    num_words = words_for_bits(num_bits)
    mask = np.full(num_words, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
    mask[-1] = tail_word_mask(num_bits)
    return mask


def pack_bool_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(N, B)`` boolean matrix into a ``(N, W)`` ``uint64`` matrix.

    Column ``j`` of ``bits`` becomes bit ``j % 64`` of machine word
    ``j // 64``.  Any nonzero entry counts as a set bit.  The trailing
    padding bits of the last machine word are always zero, so packed rows
    can be compared and hashed directly.

    ``np.packbits(..., bitorder="little")`` writes the bits LSB-first into
    bytes; with every row padded to a multiple of 64 bits, eight consecutive
    bytes read as one little-endian ``uint64`` are exactly the word layout
    above.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ShapeError("pack_bool_matrix expects a 2-D (batch, bits) matrix")
    num_rows, num_bits = bits.shape
    if num_bits == 0:
        raise ShapeError("cannot pack zero-width words")
    if bits.dtype != np.bool_ and bits.dtype != np.uint8:
        bits = bits != 0
    num_words = words_for_bits(num_bits)
    if num_bits != num_words * WORD_BITS:
        padded = np.zeros((num_rows, num_words * WORD_BITS), dtype=np.uint8)
        padded[:, :num_bits] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    return packed.view("<u8").reshape(num_rows, num_words).astype(np.uint64, copy=False)


def unpack_bool_matrix(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`: recover the ``(N, B)`` bool matrix."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ShapeError("unpack_bool_matrix expects a 2-D (batch, words) matrix")
    num_words = words_for_bits(num_bits)
    if packed.shape[1] != num_words:
        raise ShapeError(
            f"{num_bits} bits need {num_words} machine words per row, got "
            f"{packed.shape[1]}"
        )
    as_bytes = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=int(num_bits), bitorder="little")
    return bits.view(bool)


if hasattr(np, "bitwise_count"):

    def popcount(packed: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        return np.bitwise_count(np.asarray(packed, dtype=np.uint64)).astype(np.int64)

else:  # pragma: no cover - NumPy < 2.0 fallback

    _BYTE_POPCOUNT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.int64
    )

    def popcount(packed: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
        as_bytes = packed.view(np.uint8).reshape(packed.shape + (8,))
        return _BYTE_POPCOUNT[as_bytes].sum(axis=-1)
