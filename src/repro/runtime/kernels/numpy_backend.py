"""The matcher kernel: one match plan, three vectorised NumPy passes.

A :class:`MatchPlan` is the immutable, consolidated image of a
:class:`~repro.runtime.matcher.PackedMatcher` at query time — the exact-row
matrix (row-lexicographically sorted), the ternary value/mask bit-planes
and the per-position code ranges, next to the
:class:`~repro.runtime.codec.WordCodec` that defines the bit layout.
:class:`NumpyMatcherKernel` turns a plan plus a probe batch into the
boolean membership vector by *miss refinement* — exact rows first
(cheapest per probe), then ternary planes on the remaining misses, then
code ranges on what is still unresolved:

* Exact rows: the plan's presorted row keys (one void scalar per row) are
  searched with ``np.searchsorted`` and confirmed by one equality check —
  the same code path for every word width, no re-sort per call.
* Ternary rows: the broadcast ``(p ^ value) & mask`` kernel, chunked so the
  intermediate ``(n, M, W)`` buffer stays inside a fixed element budget.
* Code ranges: the plan's bit-sliced range table.  Probe ``i`` gathers one
  ``⌈R/64⌉``-word row bitmap per position, ``table[:, p, code[i, p]]``, and
  hits iff their AND keeps a bit: ``n·P·⌈R/64⌉`` word operations instead of
  ``n·R·P`` compares.

The straightforward broadcast formulations these passes are pinned against
live with the tests (``tests/oracles/runtime.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ...exceptions import ShapeError
from ..codec import TernaryPlanes, WordCodec
from ..packing import pack_bool_matrix

__all__ = [
    "MatchPlan",
    "NumpyMatcherKernel",
    "CHUNK_ELEMENTS",
    "row_keys",
    "build_range_table",
]

#: Soft cap on broadcast buffer elements; probe batches are chunked to this.
CHUNK_ELEMENTS = 1 << 22


def row_keys(rows: np.ndarray) -> np.ndarray:
    """View ``(N, W)`` uint64 rows as one opaque void scalar per row."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.dtype.itemsize))).ravel()


def build_range_table(low: np.ndarray, high: np.ndarray, num_codes: int) -> np.ndarray:
    """Bit-sliced image of ``R`` code-range rows over ``P`` positions.

    Returns a ``(⌈R/64⌉, P, num_codes)`` ``uint64`` array: bit ``r % 64`` of
    ``table[r // 64, p, c]`` is set iff ``low[r, p] ≤ c ≤ high[r, p]``.  A
    probe lies inside row ``r`` iff that bit survives the AND over its
    positions of ``table[:, p, code_p]`` — the per-dimension bitmap
    intersection of Lakshman & Stiliadis (SIGCOMM 1998).  The bitmap word
    is the leading axis so that each word's gather and AND-reduce run over
    contiguous memory.
    """
    low_t = np.asarray(low).T
    high_t = np.asarray(high).T
    columns = [pack_bool_matrix((low_t <= code) & (code <= high_t)) for code in range(num_codes)]
    return np.ascontiguousarray(np.stack(columns, axis=2).transpose(1, 0, 2))


@dataclass(frozen=True)
class MatchPlan:
    """Consolidated matcher state handed to the kernel for one query batch.

    ``exact`` is a ``(M, W)`` ``uint64`` matrix of fully specified rows in
    row-lexicographic order (word 0 most significant for ordering);
    ``ternary`` carries ``(T, W)`` value/mask bit-planes; ``range_low`` /
    ``range_high`` are ``(R, P)`` ``int64`` per-position code bounds.  Any
    structure may be ``None`` when the matcher holds no entries of that
    type.  Probe rows and plan rows share the packing of
    :mod:`repro.runtime.packing`: padding bits of the last machine word are
    always zero, so whole-word compares are exact for any bit width.  Probe
    codes are ``(n, P)`` matrices of the layout's ``code_dtype`` (``uint8``
    up to 8 bits per position), already range-checked.

    Two lookup structures are derived from the plan on first use and then
    kept with it (so only the passes that read them pay for them):

    * ``exact_keys`` — the exact rows as one void scalar per row
      (:func:`row_keys`), sorted, so a probe batch is looked up by
      ``np.searchsorted`` plus one equality check at any word width;
    * ``range_table`` — the ``(⌈R/64⌉, P, 2**b)`` ``uint64`` bit-sliced
      image of the ranges (:func:`build_range_table`): per position and
      code, the bitmap of the rows admitting that code.  It has a column
      for every code of the layout, so a probe code above every stored
      ``high`` reads an all-zero bitmap.
    """

    word_codec: WordCodec
    exact: Optional[np.ndarray] = None
    ternary: Optional[TernaryPlanes] = None
    range_low: Optional[np.ndarray] = None
    range_high: Optional[np.ndarray] = None

    @cached_property
    def exact_keys(self) -> Optional[np.ndarray]:
        if self.exact is None:
            return None
        return np.sort(row_keys(self.exact))

    @cached_property
    def range_table(self) -> Optional[np.ndarray]:
        if self.range_low is None:
            return None
        return build_range_table(self.range_low, self.range_high, self.word_codec.num_codes)

    @property
    def is_empty(self) -> bool:
        return self.exact is None and self.ternary is None and self.range_low is None


class NumpyMatcherKernel:
    """Execution engine turning a :class:`MatchPlan` into membership bits."""

    # perfbench relies on these two names: it records them with every run.
    name = "numpy"
    effective_name = "numpy"

    def match(
        self,
        plan: MatchPlan,
        packed: Optional[np.ndarray],
        codes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Membership vector of a probe batch against ``plan``.

        The caller hands over the probes in the forms the plan reads:
        ``packed`` ``(N, W)`` words when it holds exact or ternary rows,
        ``codes`` ``(N, P)`` when it holds ranges.  A form the plan does not
        read may be ``None``; :meth:`PackedMatcher.contains_packed` makes
        this choice once.  The per-structure passes are called through the
        instance, so patching them on the class sees every query.
        """
        num_probes = (packed if packed is not None else codes).shape[0]
        hits = np.zeros(num_probes, dtype=bool)
        if num_probes == 0 or plan.is_empty:
            return hits
        if plan.exact is not None:
            hits |= self.match_exact(packed, plan.exact, keys=plan.exact_keys)
        if plan.ternary is not None and not np.all(hits):
            misses = np.nonzero(~hits)[0]
            hits[misses] = self.match_ternary(
                packed[misses], plan.ternary.values, plan.ternary.masks
            )
        if plan.range_low is not None and not np.all(hits):
            # With no hit yet, every probe is a miss: skip the gather copy.
            misses = np.nonzero(~hits)[0] if np.any(hits) else slice(None)
            hits[misses] = self.match_ranges(
                codes[misses], plan.range_low, plan.range_high, table=plan.range_table
            )
        return hits

    # perfbench relies on these three passes: it patches them to time the matcher.
    def match_exact(
        self, probes: np.ndarray, exact: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``out[i]``: probe ``i`` equals an exact row.

        ``keys`` is the plan's presorted :attr:`MatchPlan.exact_keys`, if at
        hand.
        """
        _check_words(probes, exact)
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
        """``out[i]``: probe ``i`` agrees with some ternary row on its mask."""
        _check_words(probes, values)
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
        """``out[i]``: probe codes ``i`` lie inside some range row.

        ``table`` is the plan's :attr:`MatchPlan.range_table`, if at hand;
        without it the table is built for the codes present.
        """
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _check_words(probes: np.ndarray, rows: np.ndarray) -> None:
    if probes.shape[1] != rows.shape[1]:
        raise ShapeError("probe and pattern rows disagree on word width")
