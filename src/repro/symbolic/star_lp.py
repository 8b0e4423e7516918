"""Star-set LP bounds: a closed-form decide pass, then block-stacked HiGHS.

The star domain answers every per-dimension bound query with a linear
program over the star's predicate polytope.  The seed implementation
entered ``scipy.optimize.linprog`` once per dimension per sense — ``2·d``
Python round-trips into the solver for every star; ``tests/oracles/symbolic.py``
keeps that loop as the reference the tiers below are pinned against.
:class:`StackedStarLPBackend` estimates first and solves only what the
estimate leaves open (as NNV does — Tran et al., CAV 2020):

* *Closed form*: over the star's predicate box
  (:mod:`repro.symbolic.star`), ``center + basisᵀ·mid ± |basis|ᵀ·rad`` is
  a sound outer bound, vectorised across all queried stars.  While the
  polytope is the default hypercube it *is* the box, and the closed form
  (``mid = 0``, ``rad = 1``: ``center ± |basis|ᵀ·1``) is exact — zero LPs.
* *Block stacking*: the entries left open go to the LP.  Their
  unit-direction objectives, across many stars, form one block-diagonal
  sparse HiGHS program per chunk; the blocks share no variables, so one
  solve optimises every objective independently.  Dimensions whose basis
  column is all-zero are fixed points (``bound = center``) and skipped.

:meth:`~StarLPBackend.bounds_many` wants exact bounds, so every non-fixed
column of a constrained star is solved.  :meth:`~StarLPBackend.sign_bounds_many`
is the ReLU query: a ReLU reads only the sign of a stable neuron and the
exact bounds lie inside the box bounds, so only entries whose box bounds
straddle zero are solved, and the ReLU sees the same stable/unstable split
and unstable bounds as with full queries.  scipy is imported at the first
entry solved: scoring and closed-form queries never load it.

:func:`resolve_star_lp_backend` returns the one shared instance.  A
:class:`StarLPBackend` instance may be passed wherever a ``star_lp_backend``
argument is taken (the tests substitute the seed loop that way); any other
choice raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

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


class StarLPBackend:
    """Interface of a star-LP bound back-end.

    The one required operation is :meth:`bounds_many` — per-dimension
    lower/upper bounds of a sequence of equal-dimension star sets, returned
    as ``(N, d)`` matrices.  :meth:`sign_bounds_many` is the ReLU query and
    defaults to the full answer; :meth:`bounds` is the single-star
    convenience wrapper used by :meth:`repro.symbolic.star.StarSet.bounds`.
    The stacked tier implements them here; the seed loop the tests pin it
    against implements :meth:`bounds_many` in ``tests/oracles/symbolic.py``.
    """

    name = "abstract"

    def bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def sign_bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Sound ``(N, d)`` bounds, exact wherever they straddle zero.

        An entry with ``low <= 0 < high`` must be exact (the ReLU triangle
        relaxation uses its values); any other entry may be any sound bound
        on the same side of zero as the exact one.  The exact bounds always
        qualify, so by default this is :meth:`bounds_many`.
        """
        return self.bounds_many(stars)

    def bounds(self, star) -> Tuple[np.ndarray, np.ndarray]:
        lows, highs = self.bounds_many([star])
        return lows[0], highs[0]

    def describe(self) -> dict:
        return {"name": self.name, "class": type(self).__name__}

    @staticmethod
    def _dimension(stars: Sequence) -> int:
        """The common dimension of ``stars``; a ConfigurationError if none."""
        dimension = stars[0].dimension
        for star in stars:
            if star.dimension != dimension:
                raise ConfigurationError(
                    "bounds_many needs stars of equal dimension, got "
                    f"{star.dimension} next to {dimension}"
                )
        return dimension


class StackedStarLPBackend(StarLPBackend):
    """Closed-form decide pass + block-stacked sparse HiGHS solves."""

    name = "stacked"

    def __init__(self, chunk_elements: int = DEFAULT_STACK_CHUNK_ELEMENTS) -> None:
        self.chunk_elements = max(1, int(chunk_elements))
        self._stats_lock = threading.Lock()
        self.reset_stats()

    # perfbench relies on stats, reset_stats and describe for its LP counts.
    def reset_stats(self) -> None:
        """Zero the tier-attribution counters (shared across threads).
        ``closed_form_stars`` counts the stars answered without any LP."""
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
        return self._bounds(stars, sign_only=False)

    def sign_bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        return self._bounds(stars, sign_only=True)

    def _bounds(self, stars: Sequence, sign_only: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Closed form everywhere, then LP answers for the undecided entries."""
        if not stars:
            return np.zeros((0, 0)), np.zeros((0, 0))
        lows, highs = self._closed_form(stars, self._dimension(stars))
        rows, jobs = [], []
        skipped = 0
        for i, star in enumerate(stars):
            if star.is_hypercube_domain:
                continue  # the polytope is its box: the closed form is exact
            moving = np.any(star.basis != 0.0, axis=0)
            # Fixed points: an all-zero basis column cannot leave the centre.
            lows[i, ~moving] = highs[i, ~moving] = star.center[~moving]
            skipped += star.dimension - int(moving.sum())
            if sign_only:
                moving &= (lows[i] <= 0.0) & (highs[i] > 0.0)
            columns = np.nonzero(moving)[0]
            if columns.size:
                rows.append(i)
                jobs.append((star, columns))
        for i, (_, columns), (low, high) in zip(rows, jobs, self._lp_bounds(jobs)):
            lows[i, columns] = low
            highs[i, columns] = high
        self._count(
            closed_form_stars=len(stars) - len(jobs),
            lp_stars=len(jobs),
            skipped_zero_columns=skipped,
        )
        return lows, highs

    # ------------------------------------------------------------------
    # Tier 1: closed form over the predicate box
    # ------------------------------------------------------------------
    @staticmethod
    def _closed_form(stars: Sequence, dimension: int) -> Tuple[np.ndarray, np.ndarray]:
        """Outer bounds ``center + basisᵀ·mid ± |basis|ᵀ·rad`` over each
        star's predicate box ``mid ± rad``; ``(-inf, inf)`` without a box.

        Stars are grouped by basis shape, so each group is one stacked
        ``(N, m, d)`` reduction whose per-star slice is the same memory walk
        as the single-star one: batched and single-star agree bit for bit.
        """
        lows = np.full((len(stars), dimension), -np.inf)
        highs = np.full((len(stars), dimension), np.inf)
        groups: Dict[Tuple[int, int, bool], List[int]] = {}
        for i, star in enumerate(stars):
            if star.predicate_box is not None or star.num_predicates == 0:
                key = star.basis.shape + (star.is_hypercube_domain,)
                groups.setdefault(key, []).append(i)
        for (predicates, _, hypercube), members in groups.items():
            centers = np.stack([stars[i].center for i in members])
            if predicates == 0:
                lows[members] = highs[members] = centers
                continue
            bases = np.stack([stars[i].basis for i in members])
            magnitudes = np.abs(bases)
            if hypercube:
                # mid = 0 and rad = 1: no products needed.
                shifted, radii = centers, magnitudes.sum(axis=1)
            else:
                box_low, box_high = (
                    np.stack([stars[i].predicate_box[side] for i in members])[:, :, None]
                    for side in (0, 1)
                )
                shifted = centers + (bases * ((box_low + box_high) / 2.0)).sum(axis=1)
                radii = (magnitudes * ((box_high - box_low) / 2.0)).sum(axis=1)
            lows[members] = shifted - radii
            highs[members] = shifted + radii
        return lows, highs

    # ------------------------------------------------------------------
    # Tier 2: block-diagonal stacked LP solves
    # ------------------------------------------------------------------
    def _lp_bounds(self, jobs: List[tuple]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Exact ``(low, high)`` of each ``(star, columns)`` job, chunk-stacked."""
        if not jobs:
            return []
        from scipy import sparse

        answers: List[Tuple[np.ndarray, np.ndarray]] = []
        chunk: List[tuple] = []
        running = 0
        for star, columns in jobs:
            polytope = sparse.csc_matrix(star.constraints_a)
            cost = 2 * columns.size * max(1, polytope.nnz)
            if chunk and running + cost > self.chunk_elements:
                answers.extend(self._solve_chunk(chunk))
                chunk, running = [], 0
            chunk.append((star, polytope, columns))
            running += cost
        if chunk:
            answers.extend(self._solve_chunk(chunk))
        return answers

    def _solve_chunk(self, chunk: List[tuple]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One HiGHS call covering every objective of every star in ``chunk``.

        Each objective (one dimension, one sense) owns a private copy of its
        star's predicate variables, constrained by a private copy of the
        star's polytope on the block diagonal.  Minimising the concatenated
        objective therefore minimises every block independently — one solver
        entry, ``Σ 2·q_i`` LP answers.
        """
        from scipy import sparse
        from scipy.optimize import linprog

        blocks, rhs_parts, objective_parts = [], [], []
        for star, polytope, columns in chunk:
            for j in columns:
                # Lower bound minimises +c·alpha; the upper bound minimises
                # -c·alpha, i.e. maximises c·alpha.
                objective_parts += [star.basis[:, j], -star.basis[:, j]]
                blocks += [polytope, polytope]
                rhs_parts += [star.constraints_b, star.constraints_b]
        result = linprog(
            np.concatenate(objective_parts),
            A_ub=sparse.block_diag(blocks, format="csc"),
            b_ub=np.concatenate(rhs_parts),
            bounds=(None, None),
            method="highs",
        )
        if not result.success:
            raise PropagationError(
                f"stacked LP bound query failed: {result.message} "
                f"(status {result.status})"
            )
        solutions = iter(np.split(result.x, np.cumsum([b.shape[1] for b in blocks])[:-1]))
        answers = []
        for star, _, columns in chunk:
            values = [
                star.center[j] + float(star.basis[:, j] @ next(solutions))
                for j in columns
                for _sense in (0, 1)
            ]
            answers.append((np.array(values[0::2]), np.array(values[1::2])))
        self._count(lp_programs=1, lp_objectives=len(blocks))
        return answers


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
