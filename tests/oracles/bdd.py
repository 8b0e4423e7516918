"""BDD reference for Hamming-relaxed pattern membership.

:meth:`~repro.bdd.patterns.PatternSet.min_distance_batch` answers Hamming
relaxation on the packed mirror.  :func:`within_hamming_bdd` answers the
same question on the set's BDD alone, by restriction, so the tests pin the
mirror against it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.bdd.manager import FALSE


def within_hamming_bdd(patterns, word: Sequence[int], distance: int) -> bool:
    """True when some word of ``patterns`` differs from ``word`` in at most
    ``distance`` positions.

    Frees every combination of up to ``distance`` positions in turn and asks
    whether the BDD restricted to the rest of ``word`` is satisfiable.
    """
    root = patterns.root
    manager = patterns.manager
    assignment = patterns._word_to_assignment(word)
    if manager.evaluate(root, assignment):
        return True
    bits = patterns.bits_per_position
    positions = range(patterns.num_positions)
    for radius in range(1, min(distance, patterns.num_positions) + 1):
        for flipped in combinations(positions, radius):
            fixed = {
                index: assignment[index]
                for position in positions
                if position not in flipped
                for index in range(position * bits, (position + 1) * bits)
            }
            if manager.restrict(root, fixed) != FALSE:
                return True
    return False
