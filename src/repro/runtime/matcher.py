"""TCAM-style vectorised membership over bit-packed pattern sets.

:class:`PackedMatcher` is the store of :class:`repro.bdd.patterns.PatternSet`:
every insertion lands in three flat NumPy structures, and the set's BDD is
only a view rebuilt from them on demand (for model counting, DAG size and
word enumeration).  Batched membership runs through a pluggable *matcher
kernel*, exactly like a ternary CAM in a network switch, and Hamming
relaxation through :meth:`PackedMatcher.min_distance`, one NumPy pass giving
each probe its fewest differing positions to any stored row:

* fully specified words — a deduplicated, row-sorted matrix, matched by a
  binary search of its presorted row keys (``MatchPlan.exact_keys``);
* ternary words — ``(M, W)`` value/mask bit-planes; probe ``p`` matches row
  ``i`` iff ``(p ^ value_i) & mask_i == 0``;
* code-range words (robust interval monitors) — ``(M, P)`` per-position
  low/high code matrices; probe codes match iff they lie inside every
  range, answered by ANDing one row bitmap per position out of the plan's
  bit-sliced ``range_table``.

Probes arrive as packed words, as unsigned code matrices, or both; a set
holding only code ranges never packs its probes.

The mirror is exact and minimal: the union of its rows is precisely the
union of the words the insertion APIs added, and no stored row is covered
by another stored row.  Row ``j`` *covers* row ``i`` when

* both are ternary, ``mask_j ⊆ mask_i`` and ``(value_i ^ value_j) & mask_j
  == 0`` (row ``j`` constrains fewer bits and agrees on them);
* both are code ranges, ``low_j ≤ low_i`` and ``high_i ≤ high_j`` at every
  position (row ``i``'s box lies inside row ``j``'s);
* row ``i`` is fully specified and row ``j`` is a ternary or range row
  matching it;

and of identical rows exactly one is kept.  Every insert drops duplicates
and covered rows within the batch, drops new rows the stored ones already
cover, and evicts stored rows a new row covers.  The robust monitors insert
one Δ-perturbed pattern per training row and neighbouring rows overlap
heavily, so most of them are covered: the minimal mirror is what keeps the
ternary and range passes proportional to the set, not to the training set.
The pairwise cover test runs on deduplicated rows, most general first, in
blocks bounded by the kernels' ``CHUNK_ELEMENTS`` budget; a matcher holding
only fully specified rows never runs it.  Matcher membership equals BDD
membership (a property the test suite pins down).

Kernel selection
----------------
The execution engine is chosen from :mod:`repro.runtime.kernels` — per
matcher via the ``backend`` constructor argument (a registry name or kernel
instance), or process-wide via ``REPRO_MATCHER_BACKEND``; the default is
the ``numpy`` reference.  All registered back-ends are pinned bit-for-bit
equivalent, so the choice only changes speed, never verdicts.  An *empty*
matcher never dispatches a kernel at all: membership is an allocated
all-False vector, so freshly constructed monitors pay no kernel resolution
or JIT warm-up.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from .codec import TernaryPlanes, WordCodec
from .kernels import BackendChoice, MatcherKernel, MatchPlan, resolve_matcher_backend
from .kernels.numpy_backend import CHUNK_ELEMENTS
from .packing import full_mask_words, popcount

__all__ = ["PackedMatcher"]

#: ``cover(rows, ref)[i, j]``: row ``ref[j]`` covers row ``rows[i]``.
CoverTest = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Rows per block of the in-batch cover test.  Blocks run most general
#: first and each is first filtered against the rows kept so far, so small
#: blocks keep the quadratic in-block test small, while large ones amortise
#: the per-call overhead.
COVER_BLOCK = 64


# The cover tests work on *keys*, one flat row per pattern, chosen so that
# "row j covers row i" is one elementwise comparison of their keys:
#
# * a ternary row is keyed ``[ones | zeros]``, the bits it constrains to 1
#   and to 0; row j covers row i iff both of j's bit sets lie inside i's;
# * a code-range row is keyed ``[low | -high]``; row j covers row i iff
#   j's key is at most i's everywhere.
def _ternary_cover(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return ~(ref[None, :, :] & ~rows[:, None, :]).any(axis=2)


def _range_cover(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return (ref[None, :, :] <= rows[:, None, :]).all(axis=2)


def _ternary_generality(rows: np.ndarray) -> np.ndarray:
    """Fewer constrained bits is more general."""
    return -popcount(rows).sum(axis=1)


def _range_generality(rows: np.ndarray) -> np.ndarray:
    """Wider boxes are more general (the key sum is minus the total width)."""
    return -rows.sum(axis=1)


def _unique_rows(rows: np.ndarray):
    """Distinct rows in row-lexicographic order (column 0 first), and the
    index of each one's first occurrence."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    distinct = np.ones(rows.shape[0], dtype=bool)
    distinct[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return ordered[distinct], order[distinct]


def _covered(rows: np.ndarray, ref: np.ndarray, cover: CoverTest) -> np.ndarray:
    """``out[i]``: some row of ``ref`` covers ``rows[i]`` (chunked)."""
    out = np.zeros(rows.shape[0], dtype=bool)
    if rows.shape[0] == 0 or ref.shape[0] == 0:
        return out
    chunk = max(1, CHUNK_ELEMENTS // (ref.shape[0] * rows.shape[1]))
    for start in range(0, rows.shape[0], chunk):
        out[start : start + chunk] = cover(rows[start : start + chunk], ref).any(axis=1)
    return out


def _maximal_new_rows(
    rows: np.ndarray,
    stored: np.ndarray,
    cover: CoverTest,
    generality: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Mask of the batch rows a minimal mirror must add.

    A row is kept when it is the first of its duplicates, no stored row
    covers it and no other batch row covers it.
    """
    keep = np.zeros(rows.shape[0], dtype=bool)
    if rows.shape[0] == 0:
        return keep
    first = np.sort(_unique_rows(rows)[1])
    first = first[~_covered(rows[first], stored, cover)]
    # Most general first: only a row at least as general can cover another,
    # and two distinct rows equally general never cover each other, so a
    # row that survives its block is never covered by a later block.
    order = first[np.argsort(-generality(rows[first]), kind="stable")]
    block = max(1, min(COVER_BLOCK, math.isqrt(CHUNK_ELEMENTS // rows.shape[1])))
    kept = np.zeros(0, dtype=np.intp)
    for start in range(0, order.shape[0], block):
        index = order[start : start + block]
        index = index[~_covered(rows[index], rows[kept], cover)]
        inner = cover(rows[index], rows[index])
        np.fill_diagonal(inner, False)
        kept = np.concatenate([kept, index[~inner.any(axis=1)]])
    keep[kept] = True
    return keep


def _min_over_rows(
    rows: np.ndarray,
    ref: np.ndarray,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    width: int,
) -> np.ndarray:
    """``out[i]``: the least ``distance(rows, ref)[i, j]`` over ``j`` (chunked).

    ``width`` is the number of elements ``distance`` touches per pair.
    """
    out = np.empty(rows.shape[0], dtype=np.int64)
    chunk = max(1, CHUNK_ELEMENTS // (ref.shape[0] * width))
    for start in range(0, rows.shape[0], chunk):
        out[start : start + chunk] = distance(rows[start : start + chunk], ref).min(axis=1)
    return out


def _ternary_distance(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Bits at which packed 1-bit probes break ``[ones | zeros]`` keys."""
    num_words = rows.shape[1]
    probe = rows[:, None, :]
    broken = (ref[None, :, :num_words] & ~probe) | (ref[None, :, num_words:] & probe)
    return popcount(broken).sum(axis=2)


def _range_distance(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Positions at which a probe key ``[c | -c]`` lies outside a range key.

    A code ``c`` is outside ``[low, high]`` when ``low > c`` or
    ``-high > -c``, so both halves of the key compare the same way.
    """
    outside = ref[None, :, :] > rows[:, None, :]
    half = rows.shape[1] // 2
    return (outside[:, :, :half] | outside[:, :, half:]).sum(axis=2)


def _evict_and_add(stored: np.ndarray, added: np.ndarray, cover: CoverTest) -> np.ndarray:
    """``stored`` without the rows ``added`` covers, followed by ``added``."""
    return np.vstack([stored[~_covered(stored, added, cover)], added])


class PackedMatcher:
    """Vectorised, minimal membership mirror of a pattern set.

    Parameters
    ----------
    word_codec:
        Bit layout of the mirrored pattern words.
    backend:
        Matcher-kernel choice: a registry name (``"numpy"``, ``"compiled"``,
        ``"sharded"``, or anything registered via
        :func:`~repro.runtime.kernels.register_matcher_backend`), a ready
        :class:`~repro.runtime.kernels.MatcherKernel` instance, or ``None``
        to defer to the ``REPRO_MATCHER_BACKEND`` environment variable /
        the ``numpy`` default.  Resolution happens lazily at the first
        non-trivial query, so constructing matchers is registry-free and an
        invalid name fails with the valid choices listed.
    """

    def __init__(self, word_codec: WordCodec, backend: BackendChoice = None) -> None:
        self.word_codec = word_codec
        self._backend_choice: BackendChoice = backend
        self._kernel: Optional[MatcherKernel] = None
        num_words = word_codec.num_words
        # Fully specified rows, deduplicated and row-sorted (word 0 first);
        # ternary and range rows as their cover keys (see above).
        self._exact = np.zeros((0, num_words), dtype=np.uint64)
        self._ternary = np.zeros((0, 2 * num_words), dtype=np.uint64)
        self._ranges = np.zeros((0, 2 * word_codec.num_positions), dtype=np.int64)
        # Single-row inserts (row bytes / machine-word int lists) are queued
        # here and minimised together on the next bulk insert or query, so
        # per-sample insertion stays O(1) cheap.
        self._pending_exact: List[bytes] = []
        self._pending_values: List[Sequence[int]] = []
        self._pending_masks: List[Sequence[int]] = []
        self._plan: Optional[MatchPlan] = None
        self._full_mask_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # kernel selection
    # ------------------------------------------------------------------
    def kernel(self) -> MatcherKernel:
        """The resolved matcher kernel (resolving the choice on first use)."""
        if self._kernel is None:
            self._kernel = resolve_matcher_backend(self._backend_choice)
        return self._kernel

    def set_backend(self, backend: BackendChoice) -> None:
        """Re-bind the matcher to another kernel back-end (state unchanged)."""
        self._backend_choice = backend
        self._kernel = None

    @property
    def backend_name(self) -> str:
        """Registry name of the active kernel (resolves the choice)."""
        return self.kernel().name

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add_exact_packed(self, packed: np.ndarray) -> np.ndarray:
        """Mirror a batch of fully specified packed words.

        Returns a boolean mask over the batch rows: True for the rows the
        mirror now stores (first of their duplicates, not stored already,
        not covered by a stored ternary or range row).
        """
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[1] != self.word_codec.num_words:
            raise ShapeError("packed rows do not match the codec word width")
        self._consolidate_pending()
        return self._insert_exact(packed)

    def add_exact_bytes(self, row_bytes: bytes) -> None:
        """Queue one fully specified word given as little-endian row bytes."""
        self._pending_exact.append(row_bytes)
        self._plan = None

    def add_ternary_raw(
        self, value_words: Sequence[int], mask_words: Sequence[int]
    ) -> None:
        """Queue one ternary word given as raw machine-word integer lists."""
        self._pending_values.append(value_words)
        self._pending_masks.append(mask_words)
        self._plan = None

    def add_ternary(self, planes: TernaryPlanes) -> np.ndarray:
        """Mirror a batch of ternary words given as value/mask bit-planes.

        Fully constrained rows are plain words and go to the exact rows.
        Returns a boolean mask over the batch rows: True for the rows the
        mirror now stores.
        """
        values = np.ascontiguousarray(planes.values, dtype=np.uint64)
        masks = np.ascontiguousarray(planes.masks, dtype=np.uint64)
        if values.shape[1] != self.word_codec.num_words or values.shape != masks.shape:
            raise ShapeError("ternary planes do not match the codec word width")
        self._consolidate_pending()
        return self._insert_ternary(values, masks)

    def add_code_ranges(self, low_codes: np.ndarray, high_codes: np.ndarray) -> np.ndarray:
        """Mirror a batch of per-position code-range words.

        Point ranges are plain words and go to the exact rows.  Returns a
        boolean mask over the batch rows: True for the rows the mirror now
        stores.
        """
        low_codes = np.atleast_2d(np.asarray(low_codes, dtype=np.int64))
        high_codes = np.atleast_2d(np.asarray(high_codes, dtype=np.int64))
        if (
            low_codes.shape != high_codes.shape
            or low_codes.shape[1] != self.word_codec.num_positions
        ):
            raise ShapeError("code-range matrices do not match the codec layout")
        self._consolidate_pending()
        point = np.all(low_codes == high_codes, axis=1)
        keep = np.zeros(low_codes.shape[0], dtype=bool)
        if not np.all(point):
            keys = np.hstack([low_codes[~point], -high_codes[~point]])
            new = _maximal_new_rows(keys, self._ranges, _range_cover, _range_generality)
            if np.any(new):
                self._ranges = _evict_and_add(self._ranges, keys[new], _range_cover)
                self._exact = self._exact[
                    ~self._exact_covered_by(self._exact, ranges=keys[new])
                ]
                self._plan = None
            keep[~point] = new
        if np.any(point):
            keep[point] = self._insert_exact(self.word_codec.pack_codes(low_codes[point]))
        return keep

    def _insert_ternary(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        fully = np.all(masks == self._full_mask()[None, :], axis=1)
        keep = np.zeros(values.shape[0], dtype=bool)
        if not np.all(fully):
            ones = values[~fully] & masks[~fully]
            keys = np.hstack([ones, masks[~fully] & ~ones])
            new = _maximal_new_rows(keys, self._ternary, _ternary_cover, _ternary_generality)
            if np.any(new):
                self._ternary = _evict_and_add(self._ternary, keys[new], _ternary_cover)
                self._exact = self._exact[
                    ~self._exact_covered_by(self._exact, ternary=keys[new])
                ]
                self._plan = None
            keep[~fully] = new
        if np.any(fully):
            keep[fully] = self._insert_exact(values[fully])
        return keep

    def _insert_exact(self, packed: np.ndarray) -> np.ndarray:
        keep = np.zeros(packed.shape[0], dtype=bool)
        candidates = np.nonzero(
            ~self._exact_covered_by(packed, ternary=self._ternary, ranges=self._ranges)
        )[0]
        if candidates.size == 0:
            return keep
        stored = self._exact.shape[0]
        # Stored rows come first and the sort is stable, so the first
        # occurrences past ``stored`` are exactly the new distinct rows.
        merged, first = _unique_rows(np.vstack([self._exact, packed[candidates]]))
        new = candidates[first[first >= stored] - stored]
        if new.size:
            keep[new] = True
            self._exact = merged
            self._plan = None
        return keep

    def _exact_covered_by(
        self,
        packed: np.ndarray,
        ternary: Optional[np.ndarray] = None,
        ranges: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out[i]``: one of the ternary or range keys matches exact row ``i``."""
        covered = np.zeros(packed.shape[0], dtype=bool)
        if packed.shape[0] and ternary is not None and ternary.shape[0]:
            zeros = self._full_mask()[None, :] & ~packed
            covered |= _covered(np.hstack([packed, zeros]), ternary, _ternary_cover)
        if packed.shape[0] and ranges is not None and ranges.shape[0]:
            # Range keys negate codes: widen the unsigned codes first.
            codes = self.word_codec.unpack_codes(packed).astype(np.int64)
            covered |= _covered(np.hstack([codes, -codes]), ranges, _range_cover)
        return covered

    def min_distance(
        self, packed: np.ndarray, codes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fewest positions in which each probe differs from a stored word.

        The distance counts *positions*, not bits.  Against one stored row
        it counts the positions whose code

        * differs, for an exact row;
        * breaks a constrained bit, for a ternary row
          (``popcount((w ^ v) & m)``; ternary rows are 1-bit only here);
        * lies outside ``[low, high]``, for a range row.

        The minimum runs over every stored row, in one NumPy pass per row
        kind, chunked to ``CHUNK_ELEMENTS`` like the kernels' broadcasts; it
        does not depend on the kernel back-end.  An empty matcher answers
        ``num_positions + 1`` for every probe.  ``codes`` may be passed
        alongside to avoid re-unpacking.
        """
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        codec = self.word_codec
        if packed.ndim != 2 or packed.shape[1] != codec.num_words:
            raise ShapeError("probe rows do not match the codec word width")
        self._consolidate_pending()
        if self._ternary.shape[0] and codec.bits_per_position > 1:
            raise ShapeError("position distance needs 1-bit ternary rows")
        best = np.full(packed.shape[0], codec.num_positions + 1, dtype=np.int64)
        if packed.shape[0] == 0 or self.is_empty:
            return best
        # On 1-bit words an exact row is a ternary row constraining every
        # bit; on wider words it is a range row whose ranges are points.
        ternary, ranges = self._ternary, self._ranges
        if self._exact.shape[0] and codec.bits_per_position == 1:
            zeros = self._full_mask()[None, :] & ~self._exact
            ternary = np.vstack([ternary, np.hstack([self._exact, zeros])])
        elif self._exact.shape[0]:
            exact_codes = codec.unpack_codes(self._exact).astype(np.int64)
            ranges = np.vstack([ranges, np.hstack([exact_codes, -exact_codes])])
        if ternary.shape[0]:
            best = np.minimum(
                best, _min_over_rows(packed, ternary, _ternary_distance, codec.num_words)
            )
        if ranges.shape[0]:
            if codes is None:
                codes = codec.unpack_codes(packed)
            # The probe key negates codes: widen the unsigned codes first.
            codes = np.asarray(codes, dtype=np.int64)
            keys = np.hstack([codes, -codes])
            best = np.minimum(
                best, _min_over_rows(keys, ranges, _range_distance, keys.shape[1])
            )
        return best

    def export_state(self) -> Dict[str, np.ndarray]:
        """Flat-array image of the minimal mirror (for persistence).

        Returns little-endian ``uint64`` matrices for the exact rows and
        ternary value/mask planes, and ``int64`` matrices for the code
        ranges — exactly the structures :meth:`add_exact_packed` /
        :meth:`add_ternary` / :meth:`add_code_ranges` accept, so a matcher
        (and through it a whole pattern set) can be rebuilt without
        re-deriving anything.  Exact rows are row-sorted for a deterministic
        image, and every returned array is a copy: mutating the exported
        state can never corrupt the live matcher.
        """
        plan = self.match_plan()
        num_words = self.word_codec.num_words
        num_positions = self.word_codec.num_positions
        ternary = plan.ternary
        return {
            "exact": self._exact.astype("<u8", copy=True),
            "ternary_values": (
                ternary.values.astype("<u8", copy=True)
                if ternary is not None
                else np.zeros((0, num_words), dtype="<u8")
            ),
            "ternary_masks": (
                ternary.masks.astype("<u8", copy=True)
                if ternary is not None
                else np.zeros((0, num_words), dtype="<u8")
            ),
            "range_low": self._ranges[:, :num_positions].copy(),
            "range_high": -self._ranges[:, num_positions:],
        }

    def merge(self, other: "PackedMatcher") -> None:
        """Fold another matcher's entries into this one (set union).

        The other matcher's rows go through the ordinary inserts, so the
        result is minimal again.
        """
        if other.word_codec.num_bits != self.word_codec.num_bits:
            raise ShapeError("cannot merge matchers with different word widths")
        state = other.export_state()
        self.add_ternary(
            TernaryPlanes(values=state["ternary_values"], masks=state["ternary_masks"])
        )
        self.add_code_ranges(state["range_low"], state["range_high"])
        self.add_exact_packed(state["exact"])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _full_mask(self) -> np.ndarray:
        if self._full_mask_cache is None:
            self._full_mask_cache = full_mask_words(self.word_codec.num_bits)
        return self._full_mask_cache

    def _consolidate_pending(self) -> None:
        """Minimise the queued single-row inserts into the mirror."""
        if self._pending_values:
            values = np.array(self._pending_values, dtype=np.uint64)
            masks = np.array(self._pending_masks, dtype=np.uint64)
            self._pending_values = []
            self._pending_masks = []
            self._insert_ternary(values, masks)
        if self._pending_exact:
            rows = np.frombuffer(b"".join(self._pending_exact), dtype="<u8")
            self._pending_exact = []
            self._insert_exact(
                rows.astype(np.uint64).reshape(-1, self.word_codec.num_words)
            )

    @property
    def is_empty(self) -> bool:
        """True when no entry of any type has been mirrored yet."""
        return not (
            self._exact.shape[0]
            or self._ternary.shape[0]
            or self._ranges.shape[0]
            or self._pending_exact
            or self._pending_values
        )

    def match_plan(self) -> MatchPlan:
        """Consolidated kernel-ready image of the matcher's current state."""
        self._consolidate_pending()
        if self._plan is None:
            num_words = self.word_codec.num_words
            num_positions = self.word_codec.num_positions
            ternary = range_low = range_high = None
            if self._ternary.shape[0]:
                ones = self._ternary[:, :num_words]
                ternary = TernaryPlanes(
                    values=np.ascontiguousarray(ones),
                    masks=ones | self._ternary[:, num_words:],
                )
            if self._ranges.shape[0]:
                range_low = np.ascontiguousarray(self._ranges[:, :num_positions])
                range_high = -self._ranges[:, num_positions:]
            self._plan = MatchPlan(
                word_codec=self.word_codec,
                exact=self._exact if self._exact.shape[0] else None,
                ternary=ternary,
                range_low=range_low,
                range_high=range_high,
            )
        return self._plan

    def contains_packed(
        self, packed: Optional[np.ndarray], codes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched membership of fully specified probe words.

        ``codes`` may be passed alongside to avoid re-unpacking when
        code-range entries have to be checked; they must be the probes'
        codes as :meth:`WordCodec.validate_codes` returns them.  With
        ``codes`` given, ``packed`` may be ``None``.  The kernel receives
        exactly the forms the plan reads: words (packed from ``codes`` if
        need be) only for exact or ternary rows, codes (unpacked from
        ``packed`` if need be) only for ranges — so a ranges-only set (the
        robust interval monitor) never packs.
        """
        if packed is None:
            if codes is None:
                raise ShapeError("contains_packed needs packed words or codes")
            num_probes = codes.shape[0]
        else:
            packed = np.ascontiguousarray(packed, dtype=np.uint64)
            if packed.ndim != 2 or packed.shape[1] != self.word_codec.num_words:
                raise ShapeError("probe rows do not match the codec word width")
            num_probes = packed.shape[0]
        if self.is_empty or num_probes == 0:
            # Allocated-shape early-out on every backend: no plan build, no
            # kernel resolution/dispatch, no JIT warm-up.
            return np.zeros(num_probes, dtype=bool)
        plan = self.match_plan()
        words = None
        if plan.exact is not None or plan.ternary is not None:
            words = packed if packed is not None else self.word_codec.pack_valid_codes(codes)
        if plan.range_low is None:
            codes = None
        elif codes is None:
            codes = self.word_codec.unpack_codes(packed)
        return self.kernel().match(plan, words, codes=codes)

    def contains_codes(self, codes: np.ndarray) -> np.ndarray:
        """Batched membership of probes given as ``(N, P)`` code matrices."""
        return self.contains_packed(None, self.word_codec.validate_codes(codes))

    # ------------------------------------------------------------------
    @property
    def num_exact(self) -> int:
        """Fully specified rows stored (after minimisation)."""
        self._consolidate_pending()
        return int(self._exact.shape[0])

    @property
    def num_ternary(self) -> int:
        """Ternary rows stored (after minimisation)."""
        self._consolidate_pending()
        return int(self._ternary.shape[0])

    @property
    def num_ranges(self) -> int:
        """Code-range rows stored (after minimisation)."""
        return int(self._ranges.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedMatcher(exact={self.num_exact}, ternary={self.num_ternary}, "
            f"ranges={self.num_ranges}, backend={self._backend_choice or 'default'})"
        )
