"""Matcher-kernel interface: one match plan, interchangeable execution engines.

A :class:`MatchPlan` is the immutable, consolidated image of a
:class:`~repro.runtime.matcher.PackedMatcher` at query time — the exact-row
matrix (row-lexicographically sorted, so compiled back-ends can binary
search it), the ternary value/mask bit-planes and the per-position code
ranges, next to the :class:`~repro.runtime.codec.WordCodec` that defines
the bit layout.  A :class:`MatcherKernel` turns a plan plus a probe batch
into the boolean membership vector.

The base class implements the reference *miss-refinement* schedule — exact
rows first (cheapest per probe), then ternary planes on the remaining
misses, then code ranges on what is still unresolved — in terms of three
overridable per-structure passes.  Back-ends are free to override
:meth:`MatcherKernel.match` wholesale instead (the compiled back-end fuses
all three structures into one pass per probe; the sharded back-end chunks
the probe axis and delegates).  Whatever the execution strategy, every
registered back-end must return bit-for-bit the same vector as the
``numpy`` reference — the equivalence test suite pins this on the full
pattern-type matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ...exceptions import ShapeError
from ..codec import TernaryPlanes, WordCodec
from ..packing import pack_bool_matrix

__all__ = ["MatchPlan", "MatcherKernel", "row_keys", "build_range_table"]


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
    """Consolidated matcher state handed to a kernel for one query batch.

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


class MatcherKernel:
    """Execution engine turning a :class:`MatchPlan` into membership bits."""

    #: Registry key of the back-end (reported by ``PackedMatcher.backend_name``).
    name = "abstract"

    @property
    def effective_name(self) -> str:
        """The back-end actually executing (differs under graceful fallback)."""
        return self.name

    def describe(self) -> dict:
        """Identity of the kernel, for benchmark records and diagnostics."""
        return {"backend": self.name, "effective": self.effective_name}

    # ------------------------------------------------------------------
    # reference schedule: exact → ternary on misses → ranges on misses
    # ------------------------------------------------------------------
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
        this choice once.
        """
        num_probes = self.num_probes(packed, codes)
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

    @staticmethod
    def num_probes(packed: Optional[np.ndarray], codes: Optional[np.ndarray]) -> int:
        """Batch size of a probe batch given as words, codes or both."""
        return (packed if packed is not None else codes).shape[0]

    # ------------------------------------------------------------------
    # per-structure passes (implemented by concrete back-ends)
    # ------------------------------------------------------------------
    def match_exact(
        self, probes: np.ndarray, exact: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``out[i]``: probe ``i`` equals an exact row.

        ``exact`` must be in the plan's row-lexicographic order (the
        compiled pass binary-searches it); ``keys`` is the plan's presorted
        :attr:`MatchPlan.exact_keys`, if at hand.
        """
        raise NotImplementedError

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def match_ranges(
        self,
        probe_codes: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        table: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out[i]``: probe codes ``i`` lie inside some range row.

        ``table`` is the plan's :attr:`MatchPlan.range_table`, if at hand.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def _check_words(probes: np.ndarray, rows: np.ndarray) -> None:
        if probes.shape[1] != rows.shape[1]:
            raise ShapeError("probe and pattern rows disagree on word width")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
