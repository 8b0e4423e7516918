"""Star-set LP bounds: the closed-form and block-stacked HiGHS tiers.

The star domain answers every per-dimension bound query with a linear
program over the star's predicate polytope.  The seed implementation
entered ``scipy.optimize.linprog`` once per dimension per sense — ``2·d``
Python round-trips into the solver for every star; ``tests/oracles/symbolic.py``
keeps that loop as the reference the tiers below are pinned against.
:class:`StackedStarLPBackend` answers a whole batch of bound queries with
two fast paths:

* *Closed form*: while the predicate polytope is still the default
  hypercube ``alpha ∈ [-1, 1]^m`` (no unstable ReLU crossed yet — the
  common case in early layers), the bounds are exactly
  ``center ± |basis|ᵀ·1`` — zero LPs, vectorised across all queried stars
  at once.
* *Block stacking*: for genuinely constrained stars the ``2·d``
  unit-direction objectives of many stars are assembled into one
  block-diagonal sparse HiGHS program per chunk.  The blocks share no
  variables, so the one solve optimises every objective independently and
  simultaneously; scipy is entered ``O(chunks)`` instead of
  ``O(stars · 2·d)`` times.  Dimensions whose basis column is all-zero are
  fixed points (``bound = center``) and skipped entirely.

:func:`resolve_star_lp_backend` returns the one shared instance.  A
:class:`StarLPBackend` instance may be passed wherever a ``star_lp_backend``
/ ``lp_backend`` argument is taken (the tests substitute the seed loop that
way); any other choice raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..exceptions import ConfigurationError, PropagationError

__all__ = [
    "StarLPBackend",
    "StackedStarLPBackend",
    "DEFAULT_STACK_CHUNK_ELEMENTS",
    "resolve_star_lp_backend",
]

#: Budget on the (estimated) non-zero count of one block-diagonal constraint
#: matrix.  Each objective block replicates its star's polytope, so the
#: estimate for a star with ``nnz`` polytope non-zeros and ``q`` LP-queried
#: dimensions is ``2·q·nnz``; chunks are cut at star granularity once the
#: running total would exceed this.
DEFAULT_STACK_CHUNK_ELEMENTS = 4_000_000


def _needs_lp(star) -> bool:
    """True when a star's bounds require solving LPs (constrained polytope)."""
    return star.num_predicates > 0 and not star.is_hypercube_domain


class StarLPBackend:
    """Interface of a star-LP bound back-end.

    The one required operation is :meth:`bounds_many` — per-dimension
    lower/upper bounds of a sequence of equal-dimension star sets, returned
    as ``(N, d)`` matrices.  :meth:`bounds` is the single-star convenience
    wrapper used by :meth:`repro.symbolic.star.StarSet.bounds`.  The stacked
    tier implements it here; the seed loop the tests pin it against
    implements it in ``tests/oracles/symbolic.py``.
    """

    name = "abstract"

    def bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounds(self, star) -> Tuple[np.ndarray, np.ndarray]:
        lows, highs = self.bounds_many([star])
        return lows[0], highs[0]

    def describe(self) -> dict:
        return {"name": self.name, "class": type(self).__name__}

    # ------------------------------------------------------------------
    @staticmethod
    def _output_arrays(stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        dimension = stars[0].dimension
        for star in stars:
            if star.dimension != dimension:
                raise ConfigurationError(
                    "bounds_many needs stars of equal dimension, got "
                    f"{star.dimension} next to {dimension}"
                )
        return (
            np.empty((len(stars), dimension)),
            np.empty((len(stars), dimension)),
        )


class StackedStarLPBackend(StarLPBackend):
    """Closed-form hypercube tier + block-stacked sparse HiGHS solves."""

    name = "stacked"

    def __init__(self, chunk_elements: int = DEFAULT_STACK_CHUNK_ELEMENTS) -> None:
        self.chunk_elements = max(1, int(chunk_elements))
        self._stats_lock = threading.Lock()
        self.reset_stats()

    # perfbench relies on stats, reset_stats and describe for its LP counts.
    def reset_stats(self) -> None:
        """Zero the tier-attribution counters (shared across threads)."""
        with self._stats_lock:
            self.stats: Dict[str, int] = {
                "closed_form_stars": 0,
                "lp_stars": 0,
                "lp_programs": 0,
                "lp_objectives": 0,
                "skipped_zero_columns": 0,
            }

    def _count(self, **increments: int) -> None:
        with self._stats_lock:
            for key, value in increments.items():
                self.stats[key] = self.stats.get(key, 0) + int(value)

    def describe(self) -> dict:
        info = super().describe()
        info["chunk_elements"] = self.chunk_elements
        return info

    # ------------------------------------------------------------------
    def bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        if not stars:
            return np.zeros((0, 0)), np.zeros((0, 0))
        lows, highs = self._output_arrays(stars)
        closed = [i for i, star in enumerate(stars) if not _needs_lp(star)]
        constrained = [i for i, star in enumerate(stars) if _needs_lp(star)]
        if closed:
            self._closed_form(stars, closed, lows, highs)
        if constrained:
            self._lp_bounds(stars, constrained, lows, highs)
        return lows, highs

    # ------------------------------------------------------------------
    # Tier 1: closed form on hypercube predicate domains
    # ------------------------------------------------------------------
    def _closed_form(
        self,
        stars: Sequence,
        indices: List[int],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        """Exact bounds without any LP: ``center ± |basis|ᵀ·1``.

        Over ``alpha ∈ [-1, 1]^m`` the extremum of ``basis[:, j] · alpha``
        is ``±Σ_i |basis[i, j]|``, attained at ``alpha_i = ±sign``.  Stars
        are grouped by basis shape so each group is one stacked ``(N, m, d)``
        absolute-sum — the reduction per star slice is the same memory walk
        as the single-star ``|basis|.sum(axis=0)``, so batched and
        single-star closed forms agree bit-for-bit.
        """
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i in indices:
            groups.setdefault(stars[i].basis.shape, []).append(i)
        for shape, members in groups.items():
            where = np.array(members)
            centers = np.stack([stars[i].center for i in members])
            if shape[0] == 0:
                lows[where] = centers
                highs[where] = centers
            else:
                bases = np.stack([stars[i].basis for i in members])
                radii = np.abs(bases).sum(axis=1)
                lows[where] = centers - radii
                highs[where] = centers + radii
        self._count(closed_form_stars=len(indices))

    # ------------------------------------------------------------------
    # Tier 2: block-diagonal stacked LP solves
    # ------------------------------------------------------------------
    def _lp_bounds(
        self,
        stars: Sequence,
        indices: List[int],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        """LP-tier bounds for genuinely constrained stars, chunk-stacked."""
        jobs = []
        skipped = 0
        for i in indices:
            star = stars[i]
            # Fixed-point initialisation: dimensions with an all-zero basis
            # column cannot move off the centre, so they need no objective.
            columns = np.nonzero(np.any(star.basis != 0.0, axis=0))[0]
            lows[i] = star.center
            highs[i] = star.center
            skipped += star.dimension - columns.size
            if columns.size == 0:
                continue
            polytope = sparse.csc_matrix(star.constraints_a)
            cost = 2 * columns.size * max(1, polytope.nnz)
            jobs.append((i, polytope, columns, cost))
        self._count(
            lp_stars=len(jobs),
            closed_form_stars=len(indices) - len(jobs),
            skipped_zero_columns=skipped,
        )
        chunk: List[tuple] = []
        running = 0
        for job in jobs:
            if chunk and running + job[3] > self.chunk_elements:
                self._solve_chunk(stars, chunk, lows, highs)
                chunk, running = [], 0
            chunk.append(job)
            running += job[3]
        if chunk:
            self._solve_chunk(stars, chunk, lows, highs)

    def _solve_chunk(
        self,
        stars: Sequence,
        jobs: List[tuple],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        """One HiGHS call covering every objective of every star in ``jobs``.

        Each objective (one dimension, one sense) owns a private copy of its
        star's predicate variables, constrained by a private copy of the
        star's polytope on the block diagonal.  Minimising the concatenated
        objective therefore minimises every block independently — one solver
        entry, ``Σ 2·q_i`` LP answers.
        """
        blocks = []
        rhs_parts = []
        objective_parts = []
        meta = []  # (star_index, dimension, is_upper, var_offset, num_vars)
        offset = 0
        for star_index, polytope, columns, _ in jobs:
            star = stars[star_index]
            num_vars = star.num_predicates
            for j in columns:
                coefficients = star.basis[:, j]
                for is_upper in (False, True):
                    blocks.append(polytope)
                    rhs_parts.append(star.constraints_b)
                    # Lower bound minimises +c·alpha; the upper bound
                    # minimises -c·alpha, i.e. maximises c·alpha.
                    objective_parts.append(-coefficients if is_upper else coefficients)
                    meta.append((star_index, j, is_upper, offset, num_vars))
                    offset += num_vars
        stacked = sparse.block_diag(blocks, format="csc")
        result = linprog(
            np.concatenate(objective_parts),
            A_ub=stacked,
            b_ub=np.concatenate(rhs_parts),
            bounds=(None, None),
            method="highs",
        )
        if not result.success:
            raise PropagationError(
                f"stacked LP bound query failed: {result.message} "
                f"(status {result.status})"
            )
        solution = result.x
        for star_index, j, is_upper, var_offset, num_vars in meta:
            star = stars[star_index]
            value = float(
                star.basis[:, j] @ solution[var_offset : var_offset + num_vars]
            )
            if is_upper:
                highs[star_index, j] = star.center[j] + value
            else:
                lows[star_index, j] = star.center[j] + value
        self._count(lp_programs=1, lp_objectives=len(meta))


#: The instance every star walk answers its bound queries with.
_SHARED = StackedStarLPBackend()


# perfbench relies on resolve_star_lp_backend(None) returning the shared instance.
def resolve_star_lp_backend(choice=None) -> StarLPBackend:
    """The shared :class:`StackedStarLPBackend`, or ``choice`` if it is a
    :class:`StarLPBackend` instance; anything else is a ConfigurationError."""
    if choice is None:
        return _SHARED
    if isinstance(choice, StarLPBackend):
        return choice
    raise ConfigurationError(
        f"star-LP backend {choice!r} is not available: pass None or a StarLPBackend instance"
    )
