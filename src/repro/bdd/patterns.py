"""Activation-pattern sets stored in BDDs with a vectorised packed mirror.

Monitors built from Boolean (one bit per neuron) or interval (multiple bits
per neuron) abstractions need a set data structure over fixed-width binary
words that supports:

* insertion of fully specified words — one at a time or as a deduplicated
  bit-packed batch (:meth:`PatternSet.add_patterns`);
* insertion of *ternary* words containing don't-care symbols — the paper's
  ``word2set`` — without enumerating the exponential expansion, again one at
  a time or as batched value/mask bit-planes;
* insertion of words whose positions carry *sets* of admissible codes (the
  robust interval monitor of Section III-C), with a bulk code-range variant;
* membership queries (single word or a whole batch at once),
  Hamming-distance-relaxed membership, cardinality and size introspection.

Two synchronised representations back the set.  The **BDD** (via
:class:`~repro.bdd.manager.BDDManager`) is canonical: model counting, DAG
size and Hamming relaxation come from it, and bits map to BDD variables in
word order (bit 0 of neuron 0 first), matching the paper's example encoding
``(¬b10) ∧ (b20 ∨ b21) ∧ …``.  The **packed mirror**
(:class:`~repro.runtime.matcher.PackedMatcher`) stores the same patterns as
flat NumPy structures and answers :meth:`PatternSet.contains_batch` with a
few broadcast kernels instead of one BDD walk per row.  The mirror is kept
minimal — no stored row is covered by another — and the bulk inserts write
it *first*: only the rows it keeps are built into BDD cubes, since every
dropped row lies inside a row the BDD already holds or is about to.  The
mirror's words are always a subset of the BDD's; if a pattern ever cannot be
mirrored exactly (a non-contiguous admissible code set), the mirror degrades
to a sound pre-filter and batched queries fall back to the BDD for
unresolved rows.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..runtime.codec import TernaryPlanes, WordCodec
from ..runtime.matcher import PackedMatcher
from ..runtime.packing import unpack_bool_matrix
from .manager import FALSE, BDDManager

__all__ = ["TernarySymbol", "PatternSet", "DONT_CARE"]

#: Symbol used in ternary words for an unconstrained bit.
DONT_CARE = "-"

TernarySymbol = object  # 0, 1 or DONT_CARE


class PatternSet:
    """A set of fixed-width binary words represented as a BDD.

    Parameters
    ----------
    num_positions:
        Number of monitored neurons (word positions).
    bits_per_position:
        Number of bits used to encode each position (1 for on/off monitors,
        2 or more for interval monitors).
    matcher_backend:
        Matcher-kernel back-end for :meth:`contains_batch` — a registry name
        from :func:`repro.runtime.kernels.matcher_backends`, a ready kernel
        instance, or ``None`` for the ``REPRO_MATCHER_BACKEND`` /
        ``numpy`` default.  Only execution speed depends on it; every
        back-end is bit-for-bit equivalent.
    """

    def __init__(
        self,
        num_positions: int,
        bits_per_position: int = 1,
        matcher_backend=None,
    ) -> None:
        if num_positions <= 0:
            raise ConfigurationError("num_positions must be positive")
        if bits_per_position <= 0:
            raise ConfigurationError("bits_per_position must be positive")
        self.num_positions = int(num_positions)
        self.bits_per_position = int(bits_per_position)
        self.num_bits = self.num_positions * self.bits_per_position
        self.manager = BDDManager(self.num_bits)
        self.codec = WordCodec(self.num_positions, self.bits_per_position)
        self._matcher = PackedMatcher(self.codec, backend=matcher_backend)
        self._mirror_complete = True
        self._root = FALSE
        self._insertions = 0
        # True while the canonical BDD lags behind the packed mirror (lazy
        # cold start; see from_packed_state).  While deferred, insertions go
        # to the mirror only and _ensure_bdd replays the *whole* mirror on
        # first BDD-dependent use — so incremental refit of a format-2
        # restored set never pays a BDD build it does not need.
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

    def _code_bits(self, code: int) -> Tuple[bool, ...]:
        """MSB-first bit tuple of an integer code for one position."""
        if not 0 <= code < (1 << self.bits_per_position):
            raise ConfigurationError(
                f"code {code} does not fit in {self.bits_per_position} bits"
            )
        return tuple(
            bool((code >> (self.bits_per_position - 1 - bit)) & 1)
            for bit in range(self.bits_per_position)
        )

    def _word_to_assignment(self, word: Sequence[int]) -> List[bool]:
        if len(word) != self.num_positions:
            raise ConfigurationError(
                f"word has {len(word)} positions, expected {self.num_positions}"
            )
        assignment: List[bool] = []
        for code in word:
            assignment.extend(self._code_bits(int(code)))
        return assignment

    def _validate_code_matrix(self, words: np.ndarray) -> np.ndarray:
        words = np.atleast_2d(np.asarray(words, dtype=np.int64))
        if words.ndim != 2 or words.shape[1] != self.num_positions:
            raise ConfigurationError(
                f"words have {words.shape[-1]} positions, expected "
                f"{self.num_positions}"
            )
        if words.size and (
            words.min() < 0 or words.max() >= (1 << self.bits_per_position)
        ):
            raise ConfigurationError(
                f"codes must fit in {self.bits_per_position} bits"
            )
        return words

    # ------------------------------------------------------------------
    # packed-state persistence (fast cold start)
    # ------------------------------------------------------------------
    @property
    def bdd_materialised(self) -> bool:
        """False while a packed-state restore has not been replayed yet."""
        return not self._bdd_deferred

    def packed_state(self) -> Dict[str, np.ndarray]:
        """Flat-array image of the set, suitable for ``.npz`` persistence.

        The image is the packed mirror's structures (exact rows, ternary
        value/mask planes, code ranges) — a complete description of the set
        whenever the mirror is exact, and far more compact than the word
        enumeration for ternary/range entries (no don't-care or Cartesian
        expansion).  Restore with :meth:`from_packed_state`.
        """
        if not self._mirror_complete:
            raise ConfigurationError(
                "the packed mirror is not exact for this set (a non-contiguous "
                "code set was inserted); packed-state export is unavailable"
            )
        return self._matcher.export_state()

    def set_matcher_backend(self, backend) -> None:
        """Re-bind batched membership to another matcher kernel back-end.

        The stored patterns are untouched — only the execution engine of
        :meth:`contains_batch` changes, so this is safe on a live set.
        """
        self._matcher.set_backend(backend)

    @property
    def matcher_backend(self) -> str:
        """Registry name of the active matcher kernel."""
        return self._matcher.backend_name

    @classmethod
    def from_packed_state(
        cls,
        num_positions: int,
        bits_per_position: int,
        state: Dict[str, np.ndarray],
        insertions: Optional[int] = None,
        matcher_backend=None,
    ) -> "PatternSet":
        """Rebuild a set from :meth:`packed_state` with a *lazy* BDD.

        The packed mirror — which answers every batched membership query —
        is restored directly from the flat arrays, so the set can score
        operational batches immediately.  The canonical BDD is only built
        (replayed from the mirror itself) on first use of a BDD-dependent
        operation: model counting, Hamming relaxation or word iteration.
        Bulk insertions on a deferred set extend the mirror *without*
        triggering the replay — that is what makes incremental refit of a
        deployed (format-2 restored) monitor cost array appends instead of
        a BDD build.  Cold-starting a deployed monitor therefore pays array
        I/O instead of one BDD build.
        """
        obj = cls(
            num_positions,
            bits_per_position=bits_per_position,
            matcher_backend=matcher_backend,
        )
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
        obj._bdd_deferred = not obj._matcher.is_empty
        obj._insertions = int(insertions) if insertions is not None else total_rows
        return obj

    def _ensure_bdd(self) -> None:
        """Replay the packed mirror into the canonical BDD when deferred.

        The replay reads the mirror's *current* exported state, so any bulk
        insertions performed while deferred are included — the BDD always
        materialises equal to the mirror, however late.
        """
        if not self._bdd_deferred:
            return
        self._bdd_deferred = False
        state = self._matcher.export_state()
        parts: List[int] = []
        exact = state["exact"]
        if exact.shape[0]:
            bit_rows = unpack_bool_matrix(exact, self.num_bits)
            parts.append(
                self.manager.disjoin_balanced(
                    [self.manager.from_assignment(list(row)) for row in bit_rows]
                )
            )
        values, masks = state["ternary_values"], state["ternary_masks"]
        if values.shape[0]:
            parts.append(self._ternary_bdd(values, masks))
        range_low, range_high = state["range_low"], state["range_high"]
        if range_low.shape[0]:
            parts.append(self._range_bdd(range_low, range_high))
        for part in parts:
            self._root = self.manager.apply_or(self._root, part)

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

    def _pack_bits_python(self, true_indices: Iterable[int]) -> List[int]:
        """Cheap single-row packer (pure-int bit twiddling, no array temps)."""
        machine_words = [0] * self.codec.num_words
        for index in true_indices:
            machine_words[index >> 6] |= 1 << (index & 63)
        return machine_words

    @staticmethod
    def _row_bytes(machine_words: Sequence[int]) -> bytes:
        """Little-endian byte image of a packed row (the exact-set hash key)."""
        return b"".join(word.to_bytes(8, "little") for word in machine_words)

    def add_word(self, word: Sequence[int]) -> None:
        """Insert a fully specified word (one integer code per position)."""
        assignment = self._word_to_assignment(word)
        if not self._bdd_deferred:
            cube = self.manager.from_assignment(assignment)
            self._root = self.manager.apply_or(self._root, cube)
        self._matcher.add_exact_bytes(
            self._row_bytes(
                self._pack_bits_python(
                    index for index, bit in enumerate(assignment) if bit
                )
            )
        )
        self._insertions += 1

    def add_patterns(self, words: np.ndarray) -> None:
        """Bulk-insert a ``(N, num_positions)`` matrix of code words.

        The batch is bit-packed and mirrored first; only the words the
        mirror keeps (new, and not covered by a stored ternary or range row)
        are unioned into the BDD, with a balanced disjunction over their
        cubes — far cheaper than one :meth:`add_word` per sample when
        training batches repeat patterns.
        """
        words = self._validate_code_matrix(words)
        if words.shape[0] == 0:
            return
        packed = self.codec.pack_codes(words)
        kept = self._matcher.add_exact_packed(packed)
        if not self._bdd_deferred and np.any(kept):
            bit_rows = unpack_bool_matrix(packed[kept], self.num_bits)
            cubes = [self.manager.from_assignment(list(row)) for row in bit_rows]
            self._root = self.manager.apply_or(
                self._root, self.manager.disjoin_balanced(cubes)
            )
        self._insertions += int(words.shape[0])

    def add_ternary_word(self, word: Sequence[object]) -> None:
        """Insert a ternary word of ``0`` / ``1`` / :data:`DONT_CARE` symbols.

        Only meaningful for ``bits_per_position == 1``; each don't-care leaves
        the corresponding BDD variable unconstrained (the paper's
        ``word2set``).
        """
        if self.bits_per_position != 1:
            raise ConfigurationError(
                "ternary words require a 1-bit-per-position pattern set"
            )
        if len(word) != self.num_positions:
            raise ConfigurationError(
                f"word has {len(word)} positions, expected {self.num_positions}"
            )
        literals = {}
        value_words = [0] * self.codec.num_words
        mask_words = [0] * self.codec.num_words
        for position, symbol in enumerate(word):
            if symbol == DONT_CARE:
                continue
            if symbol not in (0, 1, True, False):
                raise ConfigurationError(f"invalid ternary symbol {symbol!r}")
            value = bool(symbol)
            literals[position] = value
            mask_words[position >> 6] |= 1 << (position & 63)
            if value:
                value_words[position >> 6] |= 1 << (position & 63)
        if not self._bdd_deferred:
            cube = self.manager.cube(literals)
            self._root = self.manager.apply_or(self._root, cube)
        if len(literals) == self.num_positions:
            self._matcher.add_exact_bytes(self._row_bytes(value_words))
        else:
            self._matcher.add_ternary_raw(value_words, mask_words)
        self._insertions += 1

    def add_ternary_patterns(self, planes: TernaryPlanes) -> None:
        """Bulk-insert ternary words given as value/mask bit-planes.

        Each row contributes the cube over its constrained bits only — the
        ``word2set`` trick — and the batch of cubes is unioned with a
        balanced disjunction.  Rows the minimal mirror drops (duplicates,
        and rows inside another row) add no words, so only the rows it
        keeps are built into cubes.
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
        kept = self._matcher.add_ternary(planes)
        if not self._bdd_deferred and np.any(kept):
            self._root = self.manager.apply_or(
                self._root,
                self._ternary_bdd(planes.values[kept], planes.masks[kept]),
            )
        self._insertions += len(planes)

    def _ternary_bdd(self, values: np.ndarray, masks: np.ndarray) -> int:
        """Balanced disjunction of the cubes of packed ternary rows."""
        value_bits = unpack_bool_matrix(values, self.num_bits)
        mask_bits = unpack_bool_matrix(masks, self.num_bits)
        cubes = []
        for value_row, mask_row in zip(value_bits, mask_bits):
            literals = {
                int(index): bool(value_row[index]) for index in np.nonzero(mask_row)[0]
            }
            cubes.append(self.manager.cube(literals))
        return self.manager.disjoin_balanced(cubes)

    def add_code_sets(self, code_sets: Sequence[Iterable[int]]) -> None:
        """Insert every word whose position ``i`` code lies in ``code_sets[i]``.

        This is the robust interval monitor's ``word2set``: position ``i`` may
        take any code from a non-empty set (e.g. ``{01, 10}``), and the
        inserted set is the Cartesian product of the per-position sets.  The
        BDD is built as a conjunction over positions of per-position
        disjunctions, so the cost is linear in the total number of listed
        codes — never in the product.  Contiguous sets (the only kind the
        monotone interval encoding produces) are mirrored exactly; a
        non-contiguous set degrades batched queries to the BDD fallback.
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
            for code in codes:
                self._code_bits(code)  # validates the range
            normalised.append(codes)
        contiguous = all(
            codes[-1] - codes[0] + 1 == len(codes) for codes in normalised
        )
        if contiguous:
            low = np.array([[codes[0] for codes in normalised]], dtype=np.int64)
            high = np.array([[codes[-1] for codes in normalised]], dtype=np.int64)
            self.add_range_patterns(low, high)
            return
        self._ensure_bdd()
        self._root = self.manager.apply_or(
            self._root, self.manager.code_sets(normalised, self.bits_per_position)
        )
        self._mirror_complete = False
        self._insertions += 1

    def add_range_patterns(self, low_codes: np.ndarray, high_codes: np.ndarray) -> None:
        """Bulk-insert words given as per-position contiguous code ranges.

        Row ``i`` inserts the Cartesian product of the ranges
        ``low_codes[i, p] .. high_codes[i, p]`` — the robust interval
        abstraction of Section III-C for a whole training batch at once.
        Only the rows the minimal mirror keeps are built into the BDD.
        """
        low_codes = self._validate_code_matrix(low_codes)
        high_codes = self._validate_code_matrix(high_codes)
        if low_codes.shape != high_codes.shape:
            raise ConfigurationError("low/high code matrices must share a shape")
        if np.any(low_codes > high_codes):
            raise ConfigurationError("code range lower end exceeds upper end")
        if low_codes.shape[0] == 0:
            return
        kept = self._matcher.add_code_ranges(low_codes, high_codes)
        if not self._bdd_deferred and np.any(kept):
            self._root = self.manager.apply_or(
                self._root, self._range_bdd(low_codes[kept], high_codes[kept])
            )
        self._insertions += int(low_codes.shape[0])

    def _range_bdd(self, low_codes: np.ndarray, high_codes: np.ndarray) -> int:
        """Balanced disjunction of the BDDs of code-range rows."""
        bits = self.bits_per_position
        return self.manager.disjoin_balanced(
            [
                self.manager.code_sets(
                    [range(low, high + 1) for low, high in zip(low_row, high_row)], bits
                )
                for low_row, high_row in zip(low_codes.tolist(), high_codes.tolist())
            ]
        )

    def union(self, other: "PatternSet") -> None:
        """In-place union with another pattern set sharing the same shape."""
        if (
            other.num_positions != self.num_positions
            or other.bits_per_position != self.bits_per_position
        ):
            raise ConfigurationError("pattern sets have incompatible shapes")
        self._ensure_bdd()
        if other.manager is self.manager:
            other._ensure_bdd()
            self._root = self.manager.apply_or(self._root, other._root)
            self._matcher.merge(other._matcher)
            self._mirror_complete = self._mirror_complete and other._mirror_complete
            return
        # Different managers: re-insert other's words (sound but slower).
        words = list(other.iterate_words())
        if words:
            self.add_patterns(np.asarray(words, dtype=np.int64))

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

        Answered from the packed mirror (hash set + ternary/range broadcast
        kernels); rows the mirror cannot settle — only possible after a
        non-contiguous :meth:`add_code_sets` — fall back to one BDD
        evaluation each.  Agrees with :meth:`contains` row by row.
        """
        words = self._validate_code_matrix(words)
        if words.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        packed = self.codec.pack_codes(words)
        hits = self._matcher.contains_packed(packed, codes=words)
        if not self._mirror_complete and not np.all(hits):
            bit_rows = unpack_bool_matrix(packed, self.num_bits)
            for index in np.nonzero(~hits)[0]:
                hits[index] = self.manager.evaluate(
                    self._root, list(bit_rows[index])
                )
        return hits

    def contains_within_hamming(self, word: Sequence[int], distance: int) -> bool:
        """Membership relaxed by Hamming distance over *positions*.

        Returns True when some stored word differs from ``word`` in at most
        ``distance`` positions.  Distance 0 reduces to :meth:`contains`.  This
        reproduces the enlargement knob of the original DATE'19 monitor.
        """
        if distance < 0:
            raise ConfigurationError("Hamming distance must be non-negative")
        self._ensure_bdd()
        if self.contains(word):
            return True
        if distance == 0:
            return False
        base_assignment = self._word_to_assignment(word)
        positions = range(self.num_positions)
        for radius in range(1, min(distance, self.num_positions) + 1):
            for flipped in combinations(positions, radius):
                remaining = self._root
                fixed = {}
                for position in positions:
                    if position in flipped:
                        continue
                    for bit in range(self.bits_per_position):
                        index = self.bit_index(position, bit)
                        fixed[index] = base_assignment[index]
                restricted = self.manager.restrict(remaining, fixed)
                if restricted != FALSE:
                    return True
        return False

    def cardinality(self) -> int:
        """Number of fully specified words in the set."""
        self._ensure_bdd()
        return self.manager.count_solutions_exact(self._root)

    def dag_size(self) -> int:
        """Number of BDD nodes used to represent the set."""
        self._ensure_bdd()
        return self.manager.dag_size(self._root)

    def is_empty(self) -> bool:
        # The deferred flag is only set when the mirror holds at least one
        # row, and deferred insertions keep it set — so deferred means
        # non-empty without consulting the BDD.
        return not self._bdd_deferred and self._root == FALSE

    def iterate_words(self, limit: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """Yield the fully specified words of the set as code tuples."""
        self._ensure_bdd()
        for model in self.manager.iterate_models(self._root, limit=limit):
            word = []
            for position in range(self.num_positions):
                code = 0
                for bit in range(self.bits_per_position):
                    code = (code << 1) | int(model[self.bit_index(position, bit)])
                word.append(code)
            yield tuple(word)

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, word: Sequence[int]) -> bool:
        return self.contains(word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PatternSet(positions={self.num_positions}, "
            f"bits={self.bits_per_position}, nodes={self.dag_size()})"
        )
