"""Star-set abstract domain with LP-based bound queries.

A (generalised) star set is

    S = { c + V @ alpha  :  C @ alpha <= d }

where ``c`` is the centre, the rows of ``V`` are basis vectors (one per
predicate variable ``alpha_i``) and ``C alpha <= d`` is a polyhedral
constraint on the predicate variables (Tran et al., FM 2019 — reference [5]
of the paper).  Star sets propagate *exactly* through affine layers, and the
per-dimension bounds needed by the monitor construction are linear programs
over the predicate polytope, answered by :mod:`repro.symbolic.star_lp`:
while the polytope is still the default hypercube the bounds have an exact
closed form (no LP at all), and genuinely constrained stars batch their
``2·d`` objectives into block-stacked sparse HiGHS solves instead of one
``scipy.optimize.linprog`` call per dimension.

ReLU layers are handled with the sound single-star over-approximation (the
triangle relaxation applied per neuron, introducing one fresh predicate
variable per unstable neuron).  Exact ReLU splitting would produce a set of
stars; the over-approximating variant keeps the cost linear in the number of
neurons, which is what the runtime-monitor construction needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from ..exceptions import ShapeError
from .interval import Box
from .star_lp import resolve_star_lp_backend

__all__ = ["StarSet"]


class StarSet:
    """A star set ``{center + basis.T @ alpha : constraints_A @ alpha <= constraints_b}``.

    ``basis`` has shape ``(num_predicates, dimension)`` (one row per predicate
    variable, mirroring the zonotope generator layout).

    ``lp_backend`` is the :class:`~repro.symbolic.star_lp.StarLPBackend`
    instance answering this star's bound queries, or ``None`` for the shared
    stacked tier.  It is inherited by every star derived through
    :meth:`affine`, :meth:`relu` and :meth:`elementwise_monotone`.

    ``hypercube_domain`` asserts that the supplied constraints are the
    default hypercube ``alpha ∈ [-1, 1]^m`` — the flag that unlocks the
    closed-form (zero-LP) bound tier.  It is tracked automatically by the
    constructors and transformers; only pass it when rebuilding a star from
    parts you know came from the default domain.
    """

    def __init__(
        self,
        center: np.ndarray,
        basis: np.ndarray,
        constraints_a: Optional[np.ndarray] = None,
        constraints_b: Optional[np.ndarray] = None,
        lp_backend=None,
        hypercube_domain: Optional[bool] = None,
    ) -> None:
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] != center.shape[0]:
            raise ShapeError(
                f"basis must have shape (m, {center.shape[0]}), got {basis.shape}"
            )
        num_predicates = basis.shape[0]
        if constraints_a is None:
            # Default predicate domain: the unit hyper-cube alpha in [-1, 1]^m.
            constraints_a = np.vstack([np.eye(num_predicates), -np.eye(num_predicates)])
            constraints_b = np.ones(2 * num_predicates)
            hypercube_domain = True
        constraints_a = np.asarray(constraints_a, dtype=np.float64)
        constraints_b = np.asarray(constraints_b, dtype=np.float64).reshape(-1)
        if constraints_a.shape[1] != num_predicates:
            raise ShapeError(
                "constraint matrix columns must equal the number of predicates"
            )
        if constraints_a.shape[0] != constraints_b.shape[0]:
            raise ShapeError("constraint matrix and vector disagree on row count")
        self.center = center
        self.basis = basis
        self.constraints_a = constraints_a
        self.constraints_b = constraints_b
        self.lp_backend = lp_backend
        self._hypercube_domain = bool(hypercube_domain)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_box(cls, box: Box, lp_backend=None) -> "StarSet":
        """Star whose predicate variables are the box's noise directions."""
        radius = box.radius
        nonzero = np.nonzero(radius > 0)[0]
        basis = np.zeros((nonzero.shape[0], box.dimension))
        basis[np.arange(nonzero.shape[0]), nonzero] = radius[nonzero]
        return cls(box.center, basis, lp_backend=lp_backend)

    @classmethod
    def from_point(cls, point: np.ndarray, lp_backend=None) -> "StarSet":
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return cls(point, np.zeros((0, point.shape[0])), lp_backend=lp_backend)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return int(self.center.shape[0])

    @property
    def num_predicates(self) -> int:
        return int(self.basis.shape[0])

    @property
    def is_hypercube_domain(self) -> bool:
        """True while the predicate polytope is the default ``[-1, 1]^m`` box.

        Hypercube stars answer bound queries in closed form — no LP — and
        are trivially non-empty.  The flag survives :meth:`affine` (which
        never touches the polytope) and :meth:`relu` on fully stable layers;
        the first unstable ReLU clears it.
        """
        return self._hypercube_domain

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-dimension lower/upper bounds through the LP back-end.

        Dispatches to this star's :mod:`~repro.symbolic.star_lp` back-end:
        closed form (zero LPs) on a hypercube predicate domain, block-stacked
        HiGHS solves otherwise.
        """
        return resolve_star_lp_backend(self.lp_backend).bounds(self)

    def to_box(self) -> Box:
        low, high = self.bounds()
        return Box(low, high)

    def is_empty(self) -> bool:
        """True when the predicate polytope has no feasible point.

        A hypercube predicate domain always contains the origin, so the
        common case answers without entering the LP solver at all.
        """
        if self.num_predicates == 0 or self._hypercube_domain:
            return False
        result = linprog(
            np.zeros(self.num_predicates),
            A_ub=self.constraints_a,
            b_ub=self.constraints_b,
            bounds=[(None, None)] * self.num_predicates,
            method="highs",
        )
        return not result.success

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "StarSet":
        """Exact image under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape[0] != self.dimension:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match star dimension "
                f"{self.dimension}"
            )
        return StarSet(
            self.center @ weights + bias,
            self.basis @ weights,
            self.constraints_a,
            self.constraints_b,
            lp_backend=self.lp_backend,
            hypercube_domain=self._hypercube_domain,
        )

    def relu(self, bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> "StarSet":
        """Sound single-star over-approximation of elementwise ReLU.

        Stable neurons keep their affine form (identity or zero).  Each
        unstable neuron ``j`` (``l_j < 0 < u_j``) gets a fresh predicate
        variable ``beta_j`` constrained by the triangle relaxation

            beta_j >= 0,   beta_j >= x_j,   beta_j <= u_j (x_j - l_j)/(u_j - l_j)

        and the output dimension ``j`` becomes exactly ``beta_j``.

        ``bounds`` optionally supplies precomputed pre-activation bounds of
        this star — the batched lockstep walk passes them so the bound
        queries of a whole batch share one stacked solve instead of one
        back-end dispatch per row.
        """
        low, high = bounds if bounds is not None else self.bounds()
        center = np.array(self.center, copy=True)
        basis = np.array(self.basis, copy=True)
        constraints_a = self.constraints_a
        constraints_b = self.constraints_b
        num_predicates = self.num_predicates

        unstable = [j for j in range(self.dimension) if low[j] < 0.0 < high[j]]
        negative = [j for j in range(self.dimension) if high[j] <= 0.0]

        for j in negative:
            center[j] = 0.0
            if basis.shape[0]:
                basis[:, j] = 0.0

        if not unstable:
            return StarSet(
                center,
                basis,
                constraints_a,
                constraints_b,
                lp_backend=self.lp_backend,
                hypercube_domain=self._hypercube_domain,
            )

        fresh_count = len(unstable)
        # Extend existing constraints with columns for the fresh predicates.
        extended_a = np.hstack(
            [constraints_a, np.zeros((constraints_a.shape[0], fresh_count))]
        )
        extra_rows = []
        extra_b = []
        new_basis = np.vstack([basis, np.zeros((fresh_count, self.dimension))])
        for idx, j in enumerate(unstable):
            l, u = low[j], high[j]
            slope = u / (u - l)
            beta_column = num_predicates + idx
            x_coefficients = basis[:, j] if basis.shape[0] else np.zeros(0)
            x_offset = center[j]

            # beta_j >= 0   ->  -beta_j <= 0
            row = np.zeros(num_predicates + fresh_count)
            row[beta_column] = -1.0
            extra_rows.append(row)
            extra_b.append(0.0)

            # beta_j >= x_j ->  x_j - beta_j <= 0
            row = np.zeros(num_predicates + fresh_count)
            row[:num_predicates] = x_coefficients
            row[beta_column] = -1.0
            extra_rows.append(row)
            extra_b.append(-x_offset)

            # beta_j <= slope * (x_j - l) -> beta_j - slope*x_j <= -slope*l
            row = np.zeros(num_predicates + fresh_count)
            row[:num_predicates] = -slope * x_coefficients
            row[beta_column] = 1.0
            extra_rows.append(row)
            extra_b.append(slope * (x_offset - l))

            # Output dimension j is exactly beta_j.
            center[j] = 0.0
            new_basis[:num_predicates, j] = 0.0
            new_basis[beta_column, j] = 1.0

        constraints_a = np.vstack([extended_a, np.array(extra_rows)])
        constraints_b = np.concatenate([constraints_b, np.array(extra_b)])
        # Triangle-relaxation rows leave the default hypercube domain.
        return StarSet(
            center, new_basis, constraints_a, constraints_b, lp_backend=self.lp_backend
        )

    def elementwise_monotone(
        self, bound_transform, bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> "StarSet":
        """Sound relaxation of a general monotone activation via the box hull.

        ``bounds`` optionally supplies precomputed bounds of this star (see
        :meth:`relu`).
        """
        low, high = bounds if bounds is not None else self.bounds()
        new_low, new_high = bound_transform(low, high)
        return StarSet.from_box(Box(new_low, new_high), lp_backend=self.lp_backend)

    # ------------------------------------------------------------------
    def sample(
        self, count: int, rng: Optional[np.random.Generator] = None, max_tries: int = 200
    ) -> np.ndarray:
        """Rejection-sample points from the star (used only by tests)."""
        if rng is None:
            rng = np.random.default_rng()
        if self.num_predicates == 0:
            return np.tile(self.center, (count, 1))
        # Sample alpha from the bounding box of the predicate polytope.
        alpha_low = np.full(self.num_predicates, -1.0)
        alpha_high = np.full(self.num_predicates, 1.0)
        accepted = []
        tries = 0
        while len(accepted) < count and tries < max_tries:
            tries += 1
            candidates = rng.uniform(
                alpha_low, alpha_high, size=(count * 4, self.num_predicates)
            )
            feasible = np.all(
                candidates @ self.constraints_a.T <= self.constraints_b[None, :] + 1e-9,
                axis=1,
            )
            accepted.extend(candidates[feasible][: count - len(accepted)])
        if not accepted:
            return np.tile(self.center, (count, 1))
        alphas = np.array(accepted)
        return self.center[None, :] + alphas @ self.basis

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StarSet(dimension={self.dimension}, predicates={self.num_predicates}, "
            f"constraints={self.constraints_a.shape[0]})"
        )
