"""Star-set abstract domain with LP-based bound queries.

A (generalised) star set is

    S = { c + V @ alpha  :  C @ alpha <= d }

where ``c`` is the centre, the rows of ``V`` are basis vectors (one per
predicate variable ``alpha_i``) and ``C alpha <= d`` is a polyhedral
constraint on the predicate variables (Tran et al., FM 2019 — reference [5]
of the paper).  Star sets propagate *exactly* through affine layers, and the
per-dimension bounds needed by the monitor construction are linear programs
over the predicate polytope, answered by :mod:`repro.symbolic.star_lp`.

Every star also carries the *predicate box*, per-variable bounds that the
polytope implies: original predicates lie in ``[-1, 1]`` and the fresh
variable ``beta_j`` that :meth:`StarSet.relu` adds lies in ``[0, u_j]``,
``u_j`` being the upper bound that ReLU was given.  The box gives a sound
outer bound in closed form, ``c + Vᵀ·mid ± |V|ᵀ·rad``; it is exact while the
polytope *is* the box (the default hypercube), and it decides the sign of
most ReLU inputs of a constrained star without an LP.  A star built from
explicit constraints has no box (``predicate_box is None``), so every bound
query on it is an LP.

ReLU layers are handled with the sound single-star over-approximation (the
triangle relaxation applied per neuron, introducing one fresh predicate
variable per unstable neuron).  Exact ReLU splitting would produce a set of
stars; the over-approximating variant keeps the cost linear in the number of
neurons, which is what the runtime-monitor construction needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import ShapeError
from .interval import Box
from .star_lp import resolve_star_lp_backend

__all__ = ["StarSet"]


class StarSet:
    """A star set ``{center + basis.T @ alpha : constraints_A @ alpha <= constraints_b}``.

    ``basis`` has shape ``(num_predicates, dimension)`` (one row per predicate
    variable, mirroring the zonotope generator layout).

    :meth:`relu` and :meth:`elementwise_monotone` take the pre-activation
    bounds they relax from the caller: the batched walk
    (:class:`~repro.symbolic.batched.BatchedStar`) computes those of a whole
    batch in one star-LP back-end call.

    ``hypercube_domain`` asserts that the supplied constraints are the
    default hypercube ``alpha ∈ [-1, 1]^m`` — the polytope is then its own
    predicate box and the closed-form bounds are exact.  ``predicate_box``
    is a ``(low, high)`` pair of per-predicate bounds that the constraints
    imply (``None``: unbounded).  Both are tracked automatically by the
    constructors and transformers; only pass them when rebuilding a star
    from parts you know satisfy them.
    """

    def __init__(
        self,
        center: np.ndarray,
        basis: np.ndarray,
        constraints_a: Optional[np.ndarray] = None,
        constraints_b: Optional[np.ndarray] = None,
        hypercube_domain: Optional[bool] = None,
        predicate_box: Optional[Tuple[np.ndarray, np.ndarray]] = None,
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
        if predicate_box is not None and not hypercube_domain:
            predicate_box = tuple(
                np.asarray(side, dtype=np.float64).reshape(-1) for side in predicate_box
            )
            if any(side.shape[0] != num_predicates for side in predicate_box):
                raise ShapeError("predicate box must have one entry per predicate")
        self.center = center
        self.basis = basis
        self.constraints_a = constraints_a
        self.constraints_b = constraints_b
        self._hypercube_domain = bool(hypercube_domain)
        self._predicate_box = None if self._hypercube_domain else predicate_box

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_box(cls, box: Box) -> "StarSet":
        """Star whose predicate variables are the box's noise directions."""
        radius = box.radius
        nonzero = np.nonzero(radius > 0)[0]
        basis = np.zeros((nonzero.shape[0], box.dimension))
        basis[np.arange(nonzero.shape[0]), nonzero] = radius[nonzero]
        return cls(box.center, basis)

    @classmethod
    def from_point(cls, point: np.ndarray) -> "StarSet":
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return cls(point, np.zeros((0, point.shape[0])))

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

        The polytope is then its own predicate box, so the closed-form
        bounds are exact and no LP is needed; the star is also trivially
        non-empty.  The flag survives :meth:`affine` (which never touches
        the polytope) and :meth:`relu` on fully stable layers; the first
        unstable ReLU clears it.
        """
        return self._hypercube_domain

    @property
    def predicate_box(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(low, high)`` bounds of the predicate variables that the
        constraints imply, or ``None`` when none are known."""
        if self._hypercube_domain:
            ones = np.ones(self.num_predicates)
            return -ones, ones
        return self._predicate_box

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-dimension lower/upper bounds through the shared back-end.

        The shared :mod:`~repro.symbolic.star_lp` tier answers: closed form
        (zero LPs) on a hypercube predicate domain, block-stacked HiGHS
        solves otherwise.
        """
        return resolve_star_lp_backend(None).bounds(self)

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
        from scipy.optimize import linprog

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
            hypercube_domain=self._hypercube_domain,
            predicate_box=self._predicate_box,
        )

    def relu(self, bounds: Tuple[np.ndarray, np.ndarray]) -> "StarSet":
        """Sound single-star over-approximation of elementwise ReLU.

        Stable neurons keep their affine form (identity or zero).  Each
        unstable neuron ``j`` (``l_j < 0 < u_j``) gets a fresh predicate
        variable ``beta_j`` constrained by the triangle relaxation

            beta_j >= 0,   beta_j >= x_j,   beta_j <= u_j (x_j - l_j)/(u_j - l_j)

        and the output dimension ``j`` becomes exactly ``beta_j``, where
        ``(l, u)`` are the pre-activation ``bounds`` of this star.  Only the
        sign of a stable neuron's bounds is read.  The relaxation implies
        ``0 <= beta_j <= u_j``, which extends the predicate box.
        """
        low, high = (np.asarray(side, dtype=np.float64) for side in bounds)
        center = np.array(self.center, copy=True)
        basis = np.array(self.basis, copy=True)
        unstable = np.nonzero((low < 0.0) & (high > 0.0))[0]
        negative = np.nonzero(high <= 0.0)[0]
        center[negative] = 0.0
        basis[:, negative] = 0.0
        if unstable.size == 0:
            return StarSet(
                center,
                basis,
                self.constraints_a,
                self.constraints_b,
                hypercube_domain=self._hypercube_domain,
                predicate_box=self._predicate_box,
            )

        num_predicates, fresh_count = self.num_predicates, unstable.size
        l, u = low[unstable], high[unstable]
        slope = u / (u - l)
        x_offset = center[unstable]
        x_coefficients = basis[:, unstable].T
        beta = np.arange(fresh_count)
        beta_column = num_predicates + beta
        # Three triangle rows per unstable neuron, appended below the old
        # constraints (which get zero columns for the fresh predicates):
        #   beta_j >= 0             ->  -beta_j <= 0
        #   beta_j >= x_j           ->  x_j - beta_j <= 0
        #   beta_j <= slope·(x_j-l) ->  beta_j - slope·x_j <= -slope·l
        old_rows = self.constraints_a.shape[0]
        constraints_a = np.zeros((old_rows + 3 * fresh_count, num_predicates + fresh_count))
        constraints_a[:old_rows, :num_predicates] = self.constraints_a
        triangle = constraints_a[old_rows:]
        triangle[3 * beta, beta_column] = -1.0
        triangle[3 * beta + 1, :num_predicates] = x_coefficients
        triangle[3 * beta + 1, beta_column] = -1.0
        triangle[3 * beta + 2, :num_predicates] = -slope[:, None] * x_coefficients
        triangle[3 * beta + 2, beta_column] = 1.0
        triangle_b = np.zeros(3 * fresh_count)
        triangle_b[1::3] = -x_offset
        triangle_b[2::3] = slope * (x_offset - l)
        constraints_b = np.concatenate([self.constraints_b, triangle_b])

        # Output dimension j is exactly beta_j.
        center[unstable] = 0.0
        new_basis = np.zeros((num_predicates + fresh_count, self.dimension))
        new_basis[:num_predicates] = basis
        new_basis[:num_predicates, unstable] = 0.0
        new_basis[beta_column, unstable] = 1.0
        predicate_box = None
        if self.predicate_box is not None:
            box_low, box_high = self.predicate_box
            predicate_box = (
                np.concatenate([box_low, np.zeros(fresh_count)]),
                np.concatenate([box_high, u]),
            )
        # Triangle-relaxation rows leave the default hypercube domain.
        return StarSet(
            center, new_basis, constraints_a, constraints_b, predicate_box=predicate_box
        )

    def elementwise_monotone(
        self, bound_transform, bounds: Tuple[np.ndarray, np.ndarray]
    ) -> "StarSet":
        """Sound relaxation of a general monotone activation via the box hull
        of ``bound_transform`` applied to this star's ``bounds``."""
        return StarSet.from_box(Box(*bound_transform(*bounds)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StarSet(dimension={self.dimension}, predicates={self.num_predicates}, "
            f"constraints={self.constraints_a.shape[0]})"
        )
