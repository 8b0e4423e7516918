"""Activation-pattern sets: a minimal packed mirror with a BDD derived on demand.

Monitors built from Boolean (one bit per neuron) or interval (multiple bits
per neuron) abstractions need a set data structure over fixed-width binary
words that supports:

* insertion of fully specified words — one at a time or as a deduplicated
  bit-packed batch (:meth:`PatternSet.add_patterns`);
* insertion of *ternary* words containing don't-care symbols — the paper's
  ``word2set`` — without enumerating the exponential expansion, again one at
  a time or as batched value/mask bit-planes;
* insertion of words whose positions carry contiguous *sets* of admissible
  codes (the robust interval monitor of Section III-C), with a bulk
  code-range variant;
* membership queries (single word or a whole batch at once),
  Hamming-distance-relaxed membership, cardinality and size introspection.

The set *is* its **packed mirror** (:class:`~repro.runtime.matcher.PackedMatcher`):
exact rows, ternary value/mask planes and per-position code ranges, kept
minimal (no stored row is covered by another).  Every insert writes the
mirror only, and the mirror answers batched membership
(:meth:`PatternSet.contains_batch`) and Hamming relaxation
(:meth:`PatternSet.min_distance_batch`) with a few vectorised passes.

The **BDD** (via :class:`~repro.bdd.manager.BDDManager`) is a cache derived
from the mirror.  Bits map to BDD variables in word order (bit 0 of neuron 0
first), matching the paper's example encoding ``(¬b10) ∧ (b20 ∨ b21) ∧ …``.
Any insert marks the cached BDD stale, and the next BDD-dependent call —
:meth:`~PatternSet.cardinality` (beyond an exact-only mirror),
:meth:`~PatternSet.dag_size`, :meth:`~PatternSet.iterate_words`,
:meth:`~PatternSet.contains` or :attr:`~PatternSet.root` — rebuilds it by
replaying all of the mirror's rows (a whole rebuild per stale call, so
alternating inserts with such calls pays one each time).  ROBDDs are canonical, so the rebuilt BDD is
node for node the one an eager build of every inserted row gives.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..runtime.codec import TernaryPlanes, WordCodec
from ..runtime.matcher import PackedMatcher
from ..runtime.packing import pack_bool_matrix, unpack_bool_matrix
from .manager import FALSE, BDDManager

__all__ = ["TernarySymbol", "PatternSet", "DONT_CARE"]

#: Symbol used in ternary words for an unconstrained bit.
DONT_CARE = "-"

TernarySymbol = object  # 0, 1 or DONT_CARE


class PatternSet:
    """A set of fixed-width binary words: a packed mirror plus a derived BDD.

    Parameters
    ----------
    num_positions:
        Number of monitored neurons (word positions).
    bits_per_position:
        Number of bits used to encode each position (1 for on/off monitors,
        2 or more for interval monitors).
    """

    def __init__(self, num_positions: int, bits_per_position: int = 1) -> None:
        if num_positions <= 0:
            raise ConfigurationError("num_positions must be positive")
        if bits_per_position <= 0:
            raise ConfigurationError("bits_per_position must be positive")
        self.num_positions = int(num_positions)
        self.bits_per_position = int(bits_per_position)
        self.num_bits = self.num_positions * self.bits_per_position
        self.manager = BDDManager(self.num_bits)
        self.codec = WordCodec(self.num_positions, self.bits_per_position)
        self._matcher = PackedMatcher(self.codec)
        self._root = FALSE
        self._insertions = 0
        # True while the cached BDD lags behind the set.  Every insert sets
        # it, and _ensure_bdd rebuilds the BDD on the next BDD-dependent use,
        # so fit, load and refit never pay a BDD build they do not need.
        self._bdd_deferred = False

    # ------------------------------------------------------------------
    # bit-index bookkeeping
    # ------------------------------------------------------------------
    def bit_index(self, position: int, bit: int) -> int:
        """BDD variable index of ``bit`` (MSB first) of neuron ``position``."""
        if not 0 <= position < self.num_positions:
            raise ConfigurationError(
                f"position {position} outside [0, {self.num_positions})"
            )
        if not 0 <= bit < self.bits_per_position:
            raise ConfigurationError(
                f"bit {bit} outside [0, {self.bits_per_position})"
            )
        return position * self.bits_per_position + bit

    def _word_to_assignment(self, word: Sequence[int]) -> List[bool]:
        """MSB-first bit assignment of one code word (validated)."""
        return self.codec.code_bits(self._validate_code_matrix([list(word)]))[0].tolist()

    def _validate_code_matrix(self, words: np.ndarray) -> np.ndarray:
        """``words`` as a range-checked matrix of the codec's code dtype."""
        words = np.atleast_2d(np.asarray(words))
        if words.ndim != 2 or words.shape[1] != self.num_positions:
            raise ConfigurationError(
                f"words have {words.shape[-1]} positions, expected "
                f"{self.num_positions}"
            )
        return self.codec.validate_codes(words)

    # ------------------------------------------------------------------
    # packed-state persistence (fast cold start)
    # ------------------------------------------------------------------
    @property
    def bdd_materialised(self) -> bool:
        """False while the cached BDD lags behind an insert."""
        return not self._bdd_deferred

    @property
    def stored_rows(self) -> Dict[str, int]:
        """Rows the minimal mirror stores, per row kind."""
        return {
            "exact": self._matcher.num_exact,
            "ternary": self._matcher.num_ternary,
            "ranges": self._matcher.num_ranges,
        }

    def packed_state(self) -> Dict[str, np.ndarray]:
        """Flat-array image of the set, suitable for ``.npz`` persistence.

        The image is the packed mirror's structures (exact rows, ternary
        value/mask planes, code ranges) — a complete description of the set,
        and far more compact than the word enumeration for ternary/range
        entries (no don't-care or Cartesian expansion).  Restore with
        :meth:`from_packed_state`.
        """
        return self._matcher.export_state()

    @classmethod
    def from_packed_state(
        cls,
        num_positions: int,
        bits_per_position: int,
        state: Dict[str, np.ndarray],
        insertions: Optional[int] = None,
    ) -> "PatternSet":
        """Rebuild a set from :meth:`packed_state`.

        The packed mirror is restored directly from the flat arrays, so the
        set scores operational batches immediately; like every set, it
        builds its BDD only on first BDD-dependent use.  Cold-starting a
        deployed monitor therefore pays array I/O, and incremental refit of
        it pays array appends.
        """
        obj = cls(num_positions, bits_per_position=bits_per_position)
        exact = np.ascontiguousarray(state["exact"], dtype=np.uint64)
        values = np.ascontiguousarray(state["ternary_values"], dtype=np.uint64)
        masks = np.ascontiguousarray(state["ternary_masks"], dtype=np.uint64)
        range_low = np.asarray(state["range_low"], dtype=np.int64)
        range_high = np.asarray(state["range_high"], dtype=np.int64)
        if values.shape != masks.shape or range_low.shape != range_high.shape:
            raise ConfigurationError("packed state arrays are inconsistent")
        # Ternary and range rows first, so the exact rows they cover are
        # dropped on arrival: archives written before the mirror was kept
        # minimal come back minimal.
        if values.shape[0]:
            obj._matcher.add_ternary(TernaryPlanes(values=values, masks=masks))
        if range_low.shape[0]:
            obj._matcher.add_code_ranges(range_low, range_high)
        if exact.shape[0]:
            obj._matcher.add_exact_packed(exact)
        total_rows = int(exact.shape[0] + values.shape[0] + range_low.shape[0])
        obj._inserted(int(insertions) if insertions is not None else total_rows)
        return obj

    def _ensure_bdd(self) -> None:
        """Rebuild the cached BDD when an insert has made it stale.

        The BDD is the replay of the mirror's current rows.  The rebuild is
        whole, not incremental: the first BDD-dependent call after an insert
        costs O(stored rows × bits), and the superseded BDD's nodes stay in
        the manager's unique table (it is never collected).  Code that
        alternates inserts with such calls pays a rebuild per call; fit,
        load, refit, scoring and ``describe()`` make none.
        """
        if not self._bdd_deferred:
            return
        self._bdd_deferred = False
        state = self._matcher.export_state()
        manager, bits, num_bits = self.manager, self.bits_per_position, self.num_bits
        values = unpack_bool_matrix(state["ternary_values"], num_bits)
        masks = unpack_bool_matrix(state["ternary_masks"], num_bits)
        ranges = zip(state["range_low"].tolist(), state["range_high"].tolist())
        parts = [
            manager.from_assignment(row.tolist())
            for row in unpack_bool_matrix(state["exact"], num_bits)
        ]
        parts += [
            manager.cube({int(index): bool(value[index]) for index in np.nonzero(mask)[0]})
            for value, mask in zip(values, masks)
        ]
        parts += [
            manager.code_sets([range(lo, hi + 1) for lo, hi in zip(low, high)], bits)
            for low, high in ranges
        ]
        self._root = manager.disjoin_balanced(parts)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """BDD root of the current set (exposed for advanced composition)."""
        self._ensure_bdd()
        return self._root

    @property
    def insertions(self) -> int:
        """Number of patterns inserted (bulk inserts count each row).

        This counts rows *inserted*, duplicates and covered rows included;
        the rows the minimal mirror *stores* are counted by the matcher's
        ``num_exact`` / ``num_ternary`` / ``num_ranges``.
        """
        return self._insertions

    def _inserted(self, rows: int) -> None:
        """Count ``rows`` inserted rows and mark the cached BDD stale."""
        self._insertions += rows
        self._bdd_deferred = True

    def add_word(self, word: Sequence[int]) -> None:
        """Insert a fully specified word (one integer code per position)."""
        packed = self.codec.pack_valid_codes(self._validate_code_matrix([list(word)]))
        self._matcher.add_exact_bytes(packed.astype("<u8").tobytes())
        self._inserted(1)

    def add_patterns(self, words: np.ndarray) -> None:
        """Bulk-insert a ``(N, num_positions)`` matrix of code words.

        The batch is bit-packed in one pass and mirrored; the mirror keeps
        only the words that are new and not covered by a stored ternary or
        range row.
        """
        words = self._validate_code_matrix(words)
        if words.shape[0] == 0:
            return
        self._matcher.add_exact_packed(self.codec.pack_valid_codes(words))
        self._inserted(int(words.shape[0]))

    def add_ternary_word(self, word: Sequence[object]) -> None:
        """Insert a ternary word of ``0`` / ``1`` / :data:`DONT_CARE` symbols.

        Only meaningful for ``bits_per_position == 1``; each don't-care leaves
        the corresponding bit unconstrained (the paper's ``word2set``).
        """
        if self.bits_per_position != 1:
            raise ConfigurationError(
                "ternary words require a 1-bit-per-position pattern set"
            )
        if len(word) != self.num_positions:
            raise ConfigurationError(
                f"word has {len(word)} positions, expected {self.num_positions}"
            )
        for symbol in word:
            if symbol != DONT_CARE and symbol not in (0, 1, True, False):
                raise ConfigurationError(f"invalid ternary symbol {symbol!r}")
        mask = [symbol != DONT_CARE for symbol in word]
        value = [symbol == 1 for symbol in word]
        values, masks = pack_bool_matrix(np.array([value, mask]))
        if all(mask):
            self._matcher.add_exact_bytes(values.astype("<u8").tobytes())
        else:
            self._matcher.add_ternary_raw(values.tolist(), masks.tolist())
        self._inserted(1)

    def add_ternary_patterns(self, planes: TernaryPlanes) -> None:
        """Bulk-insert ternary words given as value/mask bit-planes.

        Each row stands for every word agreeing with it on its constrained
        bits — the ``word2set`` trick, with no expansion of the don't-cares.
        """
        if self.bits_per_position != 1:
            raise ConfigurationError(
                "ternary patterns require a 1-bit-per-position pattern set"
            )
        if len(planes) == 0:
            return
        if planes.values.shape[1] != self.codec.num_words:
            raise ConfigurationError(
                "ternary planes do not match this pattern set's word width"
            )
        self._matcher.add_ternary(planes)
        self._inserted(len(planes))

    def add_code_sets(self, code_sets: Sequence[Iterable[int]]) -> None:
        """Insert every word whose position ``i`` code lies in ``code_sets[i]``.

        This is the robust interval monitor's ``word2set``: position ``i`` may
        take any code from a non-empty set (e.g. ``{01, 10}``), and the
        inserted set is the Cartesian product of the per-position sets.
        Contiguous sets (the only kind the monotone interval encoding
        produces) are mirrored exactly as a code range; a non-contiguous set
        raises :class:`~repro.exceptions.ConfigurationError`.
        """
        if len(code_sets) != self.num_positions:
            raise ConfigurationError(
                f"expected {self.num_positions} code sets, got {len(code_sets)}"
            )
        normalised: List[List[int]] = []
        for position, codes in enumerate(code_sets):
            codes = sorted(set(int(code) for code in codes))
            if not codes:
                raise ConfigurationError(
                    f"position {position} has an empty admissible code set"
                )
            if codes[0] < 0 or codes[-1] >= 1 << self.bits_per_position:
                raise ConfigurationError(
                    f"codes must fit in {self.bits_per_position} bits"
                )
            if codes[-1] - codes[0] + 1 != len(codes):
                raise ConfigurationError(
                    f"position {position} has a non-contiguous code set {codes}"
                )
            normalised.append(codes)
        low = np.array([[codes[0] for codes in normalised]], dtype=np.int64)
        high = np.array([[codes[-1] for codes in normalised]], dtype=np.int64)
        self.add_range_patterns(low, high)

    def add_range_patterns(self, low_codes: np.ndarray, high_codes: np.ndarray) -> None:
        """Bulk-insert words given as per-position contiguous code ranges.

        Row ``i`` inserts the Cartesian product of the ranges
        ``low_codes[i, p] .. high_codes[i, p]`` — the robust interval
        abstraction of Section III-C for a whole training batch at once.
        """
        low_codes = self._validate_code_matrix(low_codes)
        high_codes = self._validate_code_matrix(high_codes)
        if low_codes.shape != high_codes.shape:
            raise ConfigurationError("low/high code matrices must share a shape")
        if np.any(low_codes > high_codes):
            raise ConfigurationError("code range lower end exceeds upper end")
        if low_codes.shape[0] == 0:
            return
        self._matcher.add_code_ranges(low_codes, high_codes)
        self._inserted(int(low_codes.shape[0]))

    def union(self, other: "PatternSet") -> None:
        """In-place union with another pattern set sharing the same shape.

        The mirrors merge (and re-minimise).  Neither BDD is built.
        """
        if (
            other.num_positions != self.num_positions
            or other.bits_per_position != self.bits_per_position
        ):
            raise ConfigurationError("pattern sets have incompatible shapes")
        self._matcher.merge(other._matcher)
        self._bdd_deferred = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, word: Sequence[int]) -> bool:
        """True when the fully specified ``word`` belongs to the set."""
        self._ensure_bdd()
        assignment = self._word_to_assignment(word)
        return self.manager.evaluate(self._root, assignment)

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorised membership of a ``(N, num_positions)`` code matrix.

        Answered from the packed mirror: the codes are checked once here and
        handed to the matcher as they are, which packs them into words only
        when it holds exact or ternary rows.  Agrees with :meth:`contains`
        row by row.
        """
        words = self._validate_code_matrix(words)
        if words.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self._matcher.contains_packed(None, words)

    def min_distance_batch(self, words: np.ndarray, limit: int) -> np.ndarray:
        """Hamming distance over *positions* from each word to the set.

        Row ``i`` of the result is the fewest positions in which
        ``words[i]`` differs from some stored word, or ``limit + 1`` when no
        stored word is within ``limit`` positions (in particular when the set
        is empty).  The mirror answers the whole batch in one vectorised
        pass.
        """
        words = self._validate_code_matrix(words)
        reach = min(int(limit), self.num_positions)
        distances = self._matcher.min_distance(self.codec.pack_valid_codes(words), codes=words)
        return np.where(distances <= reach, distances, int(limit) + 1)

    def contains_within_hamming(self, word: Sequence[int], distance: int) -> bool:
        """Membership relaxed by Hamming distance over *positions*.

        Returns True when some stored word differs from ``word`` in at most
        ``distance`` positions.  Distance 0 reduces to :meth:`contains`.  This
        reproduces the enlargement knob of the original DATE'19 monitor.
        """
        if distance < 0:
            raise ConfigurationError("Hamming distance must be non-negative")
        return bool(self.min_distance_batch([list(word)], distance)[0] <= distance)

    def _within_hamming_bdd(self, word: Sequence[int], distance: int) -> bool:
        """:meth:`contains_within_hamming` by BDD restriction.

        Frees every combination of up to ``distance`` positions in turn and
        asks whether the BDD restricted to the rest of ``word`` is
        satisfiable.  The tests use it as the oracle of
        :meth:`min_distance_batch`.
        """
        self._ensure_bdd()
        assignment = self._word_to_assignment(word)
        if self.manager.evaluate(self._root, assignment):
            return True
        bits = self.bits_per_position
        positions = range(self.num_positions)
        for radius in range(1, min(distance, self.num_positions) + 1):
            for flipped in combinations(positions, radius):
                fixed = {
                    index: assignment[index]
                    for position in positions
                    if position not in flipped
                    for index in range(position * bits, (position + 1) * bits)
                }
                if self.manager.restrict(self._root, fixed) != FALSE:
                    return True
        return False

    def cardinality(self) -> int:
        """Number of fully specified words in the set.

        A mirror of exact rows only is deduplicated, so it is counted
        without a BDD; otherwise the BDD counts the models.
        """
        stored = self.stored_rows
        if not (stored["ternary"] or stored["ranges"]):
            return stored["exact"]
        self._ensure_bdd()
        return self.manager.count_solutions_exact(self._root)

    def dag_size(self) -> int:
        """Number of BDD nodes used to represent the set."""
        self._ensure_bdd()
        return self.manager.dag_size(self._root)

    def is_empty(self) -> bool:
        return self._matcher.is_empty

    def iterate_words(self, limit: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """Yield the fully specified words of the set as code tuples."""
        self._ensure_bdd()
        weights = 1 << np.arange(self.bits_per_position - 1, -1, -1)
        for model in self.manager.iterate_models(self._root, limit=limit):
            codes = np.reshape(model, (self.num_positions, -1)) @ weights
            yield tuple(int(code) for code in codes)

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, word: Sequence[int]) -> bool:
        return self.contains(word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PatternSet(positions={self.num_positions}, "
            f"bits={self.bits_per_position}, rows={self.stored_rows})"
        )
