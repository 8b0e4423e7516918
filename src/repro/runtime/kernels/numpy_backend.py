"""Reference matcher kernel: pure-NumPy passes.

This is the vectorised path :class:`~repro.runtime.matcher.PackedMatcher`
has always executed, extracted behind the :class:`MatcherKernel` interface
so other back-ends can be pinned bit-for-bit against it.

* Exact rows: the plan's presorted row keys (one void scalar per row) are
  searched with ``np.searchsorted`` and confirmed by one equality check —
  the same code path for every word width, no re-sort per call.
* Ternary rows: the broadcast ``(p ^ value) & mask`` kernel, chunked so the
  intermediate ``(n, M, W)`` buffer stays inside a fixed element budget.
* Code ranges: the plan's bit-sliced range table.  Probe ``i`` gathers one
  ``⌈R/64⌉``-word row bitmap per position, ``table[:, p, code[i, p]]``, and
  hits iff their AND keeps a bit: ``n·P·⌈R/64⌉`` word operations instead of
  ``n·R·P`` compares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import MatcherKernel, build_range_table, row_keys

__all__ = ["NumpyMatcherKernel", "CHUNK_ELEMENTS"]

#: Soft cap on broadcast buffer elements; probe batches are chunked to this.
CHUNK_ELEMENTS = 1 << 22


class NumpyMatcherKernel(MatcherKernel):
    """The reference back-end every other kernel must agree with."""

    name = "numpy"

    def match_exact(
        self, probes: np.ndarray, exact: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self._check_words(probes, exact)
        if exact.shape[0] == 0:
            return np.zeros(probes.shape[0], dtype=bool)
        if keys is None:
            keys = np.sort(row_keys(exact))
        probe_keys = row_keys(probes)
        index = np.searchsorted(keys, probe_keys)
        index[index == keys.shape[0]] = 0
        return keys[index] == probe_keys

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        self._check_words(probes, values)
        num_entries, num_words = values.shape
        out = np.zeros(probes.shape[0], dtype=bool)
        if num_entries == 0:
            return out
        chunk = max(1, CHUNK_ELEMENTS // max(1, num_entries * num_words))
        for start in range(0, probes.shape[0], chunk):
            block = probes[start : start + chunk]
            mismatch = (block[:, None, :] ^ values[None, :, :]) & masks[None, :, :]
            out[start : start + chunk] = np.logical_not(mismatch.any(axis=2)).any(axis=1)
        return out

    def match_ranges(
        self,
        probe_codes: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        table: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        out = np.zeros(probe_codes.shape[0], dtype=bool)
        if low.shape[0] == 0 or probe_codes.shape[0] == 0:
            return out
        if table is None:
            num_codes = max(int(np.max(high)), int(np.max(probe_codes))) + 1
            table = build_range_table(low, high, num_codes)
        num_words, num_positions, num_codes = table.shape
        flat = table.reshape(num_words, num_positions * num_codes)
        offsets = np.arange(num_positions, dtype=np.intp) * num_codes
        # The gather index and its result take 8 bytes per probe position:
        # keep each chunk's pair within CHUNK_ELEMENTS bytes apiece.
        chunk = max(1, CHUNK_ELEMENTS // (8 * num_positions))
        for start in range(0, probe_codes.shape[0], chunk):
            index = probe_codes[start : start + chunk] + offsets
            for word in flat:
                bitmaps = np.bitwise_and.reduce(np.take(word, index), axis=1)
                out[start : start + chunk] |= bitmaps != 0
        return out
