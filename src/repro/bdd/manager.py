"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

The paper stores sets of Boolean activation words inside BDDs (reference
[12], Bryant's classic construction) so that the ``word2set`` expansion of
don't-care symbols never causes an exponential blow-up: a ternary word such
as ``(1, -, -, 0)`` becomes the two-literal cube ``b1 ∧ ¬b4`` regardless of
how many positions are unconstrained.

This module provides a small but complete ROBDD implementation:

* hash-consed nodes with a unique table (canonical form);
* the ``ite`` (if-then-else) operator with a computed-table cache, from which
  conjunction, disjunction and negation are derived;
* restriction, existential quantification, model counting and model
  enumeration;
* cube construction from partial assignments, which is exactly what the
  monitor's ``word2set`` needs.

Node references are plain integers (indices into the manager's node list),
``0`` being the constant FALSE terminal and ``1`` the constant TRUE terminal.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = ["BDDManager", "FALSE", "TRUE"]

FALSE = 0
TRUE = 1


class BDDManager:
    """Manager owning the node store, unique table and operation caches.

    Parameters
    ----------
    num_vars:
        Number of Boolean variables.  Variables are indexed ``0..num_vars-1``
        and ordered by their index (smaller index closer to the root).
    """

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ConfigurationError("num_vars must be non-negative")
        self.num_vars = int(num_vars)
        # Node i is a triple (var, low, high); terminals use var = num_vars.
        self._var: List[int] = [self.num_vars, self.num_vars]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # node store
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of allocated nodes, including the two terminals."""
        return len(self._var)

    def node(self, ref: int) -> Tuple[int, int, int]:
        """Return the ``(var, low, high)`` triple of node ``ref``."""
        return self._var[ref], self._low[ref], self._high[ref]

    def is_terminal(self, ref: int) -> bool:
        return ref in (FALSE, TRUE)

    def _make(self, var: int, low: int, high: int) -> int:
        """Hash-consed node constructor enforcing the reduction rules."""
        if low == high:
            return low
        key = (var, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        ref = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = ref
        return ref

    def var(self, index: int) -> int:
        """Return the BDD for the literal ``x_index``."""
        self._check_var(index)
        return self._make(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """Return the BDD for the negated literal ``¬x_index``."""
        self._check_var(index)
        return self._make(index, TRUE, FALSE)

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.num_vars:
            raise ConfigurationError(
                f"variable index {index} outside [0, {self.num_vars})"
            )

    # ------------------------------------------------------------------
    # core operator: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """Return the BDD of ``(f ∧ g) ∨ (¬f ∧ h)``.

        The recursion is the textbook one; locals are bound aggressively and
        the cofactor expansion is inlined because this is the single hottest
        loop of the BDD subsystem (every pattern insertion funnels into it).
        """
        # Terminal shortcuts.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cache = self._ite_cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        var = self._var
        lows = self._low
        highs = self._high
        f_var, g_var, h_var = var[f], var[g], var[h]
        top = f_var
        if g_var < top:
            top = g_var
        if h_var < top:
            top = h_var
        if f_var == top:
            f_low, f_high = lows[f], highs[f]
        else:
            f_low = f_high = f
        if g_var == top:
            g_low, g_high = lows[g], highs[g]
        else:
            g_low = g_high = g
        if h_var == top:
            h_low, h_high = lows[h], highs[h]
        else:
            h_low = h_high = h
        low = self.ite(f_low, g_low, h_low)
        high = self.ite(f_high, g_high, h_high)
        if low == high:
            result = low
        else:
            unique_key = (top, low, high)
            unique = self._unique
            result = unique.get(unique_key)
            if result is None:
                result = len(var)
                var.append(top)
                lows.append(low)
                highs.append(high)
                unique[unique_key] = result
        cache[key] = result
        return result

    # ------------------------------------------------------------------
    # derived Boolean operations
    # ------------------------------------------------------------------
    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def negate(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def disjoin(self, refs: Iterable[int]) -> int:
        """Disjunction of an iterable of BDDs (FALSE for the empty iterable)."""
        result = FALSE
        for ref in refs:
            result = self.apply_or(result, ref)
            if result == TRUE:
                return TRUE
        return result

    def disjoin_balanced(self, refs: Sequence[int]) -> int:
        """Disjunction by balanced pairwise reduction.

        Equivalent to :meth:`disjoin` but merges operands tournament-style,
        which keeps the intermediate BDDs small when unioning many cubes at
        once (the bulk-insertion fast path of
        :meth:`repro.bdd.patterns.PatternSet.add_patterns`).
        """
        level: List[int] = [ref for ref in refs if ref != FALSE]
        if not level:
            return FALSE
        while len(level) > 1:
            merged: List[int] = []
            for index in range(0, len(level) - 1, 2):
                result = self.apply_or(level[index], level[index + 1])
                if result == TRUE:
                    return TRUE
                merged.append(result)
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        return level[0]

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def restrict(self, f: int, assignment: Mapping[int, bool]) -> int:
        """Partial evaluation of ``f`` under a partial variable assignment."""
        if self.is_terminal(f):
            return f
        var, low, high = self.node(f)
        if var in assignment:
            return self.restrict(high if assignment[var] else low, assignment)
        new_low = self.restrict(low, assignment)
        new_high = self.restrict(high, assignment)
        return self._make(var, new_low, new_high)

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        result = f
        for var in variables:
            self._check_var(var)
            result = self.apply_or(
                self.restrict(result, {var: False}), self.restrict(result, {var: True})
            )
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: Sequence[bool]) -> bool:
        """Evaluate ``f`` on a complete assignment (index = variable)."""
        if len(assignment) != self.num_vars:
            raise ConfigurationError(
                f"assignment length {len(assignment)} does not match "
                f"{self.num_vars} variables"
            )
        ref = f
        while not self.is_terminal(ref):
            var, low, high = self.node(ref)
            ref = high if assignment[var] else low
        return ref == TRUE

    def _count_scaled(self, f: int) -> int:
        """Count solutions below ``f`` with the standard 2^{gap} scaling.

        Post-order walk on an explicit stack: a BDD over thousands of
        variables is that many levels deep, past the interpreter's
        recursion limit.
        """
        var_of, lows, highs = self._var, self._low, self._high
        counts: Dict[int, int] = {FALSE: 0, TRUE: 1}
        stack = [f]
        while stack:
            ref = stack[-1]
            if ref in counts:
                stack.pop()
                continue
            low, high = lows[ref], highs[ref]
            if low not in counts or high not in counts:
                stack.extend(child for child in (low, high) if child not in counts)
                continue
            stack.pop()
            var = var_of[ref]
            counts[ref] = (counts[low] << (var_of[low] - var - 1)) + (
                counts[high] << (var_of[high] - var - 1)
            )
        return counts[f]

    def count_solutions_exact(self, f: int) -> int:
        """Exact model count over all ``num_vars`` variables."""
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << self.num_vars
        root_var = self._var[f]
        return self._count_scaled(f) << root_var

    def iterate_models(self, f: int, limit: Optional[int] = None) -> Iterator[Tuple[bool, ...]]:
        """Yield complete satisfying assignments of ``f`` (up to ``limit``).

        Models come in lexicographic order (False before True, variable 0
        first), from a depth-first walk on an explicit stack.
        """
        if limit is not None and limit <= 0:
            return
        emitted = 0
        num_vars = self.num_vars
        partial: List[bool] = []
        # (node, next variable to assign, value just given to variable - 1)
        stack: List[Tuple[int, int, Optional[bool]]] = [(f, 0, None)]
        while stack:
            ref, var, value = stack.pop()
            if value is not None:
                del partial[var - 1 :]
                partial.append(value)
            if ref == FALSE:
                continue
            if var == num_vars:
                emitted += 1
                yield tuple(partial)
                if limit is not None and emitted >= limit:
                    return
                continue
            if self._var[ref] > var:
                low = high = ref
            else:
                low, high = self._low[ref], self._high[ref]
            stack.append((high, var + 1, True))
            stack.append((low, var + 1, False))

    def dag_size(self, f: int) -> int:
        """Number of distinct internal nodes reachable from ``f``."""
        seen = set()
        stack = [f]
        while stack:
            ref = stack.pop()
            if ref in (FALSE, TRUE) or ref in seen:
                continue
            seen.add(ref)
            stack.append(self._low[ref])
            stack.append(self._high[ref])
        return len(seen)

    # ------------------------------------------------------------------
    # cube helpers (the building block of word2set)
    # ------------------------------------------------------------------
    def cube(self, literals: Mapping[int, bool]) -> int:
        """Conjunction of literals: ``{var: value}`` ignores absent variables.

        This is exactly the paper's ``word2set`` trick: a ternary word with
        don't-cares becomes the cube over its constrained positions only, so
        the BDD size is linear in the number of constrained bits.  Built
        bottom-up with the hash-consing inlined — one pattern insertion calls
        this once per word, making it the second-hottest BDD loop after
        :meth:`ite`.
        """
        num_vars = self.num_vars
        unique = self._unique
        var_list = self._var
        low_list = self._low
        high_list = self._high
        result = TRUE
        for var in sorted(literals, reverse=True):
            if not 0 <= var < num_vars:
                raise ConfigurationError(
                    f"variable index {var} outside [0, {num_vars})"
                )
            if literals[var]:
                key = (var, FALSE, result)
            else:
                key = (var, result, FALSE)
            ref = unique.get(key)
            if ref is None:
                ref = len(var_list)
                var_list.append(var)
                low_list.append(key[1])
                high_list.append(key[2])
                unique[key] = ref
            result = ref
        return result

    def code_sets(self, code_sets: Sequence[Iterable[int]], bits: int) -> int:
        """Words whose block ``p`` takes a code from ``code_sets[p]``.

        Variables ``p·bits … p·bits + bits - 1`` hold the code of block
        ``p``, most significant bit first — the multi-bit ``word2set`` of
        the robust interval monitor.  Like :meth:`cube` the BDD is built
        bottom-up, one block at a time with the next block's BDD as its
        accepting child, so the cost is linear in the listed codes and no
        ``ite`` recursion runs (its depth would grow with the word width).
        """
        if len(code_sets) * bits > self.num_vars:
            raise ConfigurationError(
                f"{len(code_sets)} blocks of {bits} bits exceed {self.num_vars} variables"
            )
        result = TRUE
        for block in reversed(range(len(code_sets))):
            codes = sorted(set(int(code) for code in code_sets[block]))
            if codes and not 0 <= codes[0] <= codes[-1] < (1 << bits):
                raise ConfigurationError(f"codes of block {block} do not fit {bits} bits")
            result = self._code_block(block * bits, bits, codes, result)
        return result

    def _code_block(self, first_var: int, bits: int, codes: List[int], accept: int) -> int:
        """``codes`` (sorted, over ``bits`` bits from ``first_var``) → ``accept``."""
        if not codes:
            return FALSE
        if len(codes) == 1 << bits:
            return accept
        half = 1 << (bits - 1)
        split = bisect.bisect_left(codes, half)
        low = self._code_block(first_var + 1, bits - 1, codes[:split], accept)
        high = self._code_block(
            first_var + 1, bits - 1, [code - half for code in codes[split:]], accept
        )
        return self._make(first_var, low, high)

    def from_assignment(self, assignment: Sequence[bool]) -> int:
        """Cube encoding one complete assignment."""
        if len(assignment) != self.num_vars:
            raise ConfigurationError(
                f"assignment length {len(assignment)} does not match "
                f"{self.num_vars} variables"
            )
        return self.cube({index: bool(value) for index, value in enumerate(assignment)})
