"""Batched abstract states: the three domains the one layer walk advances.

Robust monitor construction needs the Definition-1 perturbation estimate of
*every* training input, so the abstract states carry a leading batch axis
and :func:`~repro.symbolic.propagation.propagate_bounds_batch` advances a
whole training set through one layer walk.  The three states share the
transformer methods that walk calls — ``affine``, ``relu``,
``elementwise_monotone``, ``scale_shift`` and ``bounds``:

* :class:`BatchedBox` — ``(N, d)`` lower/upper matrices; affine layers are
  one midpoint/radius matrix product each.  Bounds are checked once, when
  the box is built from caller data; transformer outputs are ordered by
  construction and skip the check.
* :class:`BatchedZonotope` — ``(N, d)`` centers and ``(N, m, d)``
  generators; affine layers are one reshaped matrix product, and the DeepZ
  ReLU relaxation is evaluated with elementwise masks over the whole batch.
* :class:`BatchedStar` — one :class:`~repro.symbolic.star.StarSet` per row
  (each row owns its predicate polytope), advanced in lockstep.  It owns
  the walk's star-LP back-end and answers each activation layer's bound
  queries, and the final ones, with one back-end call.  A ReLU layer asks
  the *sign-only* query
  (:meth:`~repro.symbolic.star_lp.StarLPBackend.sign_bounds_many`): the
  triangle relaxation reads only the sign of a stable neuron, so only the
  entries whose closed-form box bounds straddle zero are solved by LP.
  Other activations and the final bounds ask the full
  :meth:`~repro.symbolic.star_lp.StarLPBackend.bounds_many`.

Every state is sound row-for-row: row ``i`` of a batched propagation
matches propagating row ``i`` alone, which ``tests/symbolic`` pins against
the single-sample reference walk in ``tests/oracles/symbolic.py``.

Batch semantics of the zonotope ReLU relaxation
-----------------------------------------------
Different rows generally have different unstable neurons, so a row-exact
batched zonotope would need ragged generator counts.  Instead each ReLU layer
appends one fresh generator *slot* per dimension for every row; rows where a
neuron is stable carry a zero generator in that slot.  Zero generators do not
change the concretisation (they add ``0.0`` to every bound sum), so soundness
and tightness are unaffected, and all-zero slots are pruned after each layer
to bound memory.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError
from .interval import Box
from .star import StarSet
from .star_lp import StarLPBackend

__all__ = ["BatchedBox", "BatchedZonotope", "BatchedStar"]


def _as_bound_matrix(values: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ShapeError(f"{name} must be a (batch, dimension) matrix, got {matrix.shape}")
    return matrix


class BatchedBox:
    """``N`` axis-aligned boxes stored as ``(N, d)`` lower/upper matrices.

    Row ``i`` is the box ``{x : lows[i] <= x <= highs[i]}``.  Every transformer
    acts on all rows at once; the arithmetic per row is the seed single-box
    interval rule (``tests/oracles/symbolic.py``), so the batched result
    matches the single-sample result row-for-row.  The constructor checks
    caller bounds; transformers build their (ordered) results through
    :meth:`_ordered`.
    """

    def __init__(self, lows: np.ndarray, highs: np.ndarray) -> None:
        lows = _as_bound_matrix(lows, "lows")
        highs = _as_bound_matrix(highs, "highs")
        if lows.shape != highs.shape:
            raise ShapeError(
                f"batched box bounds disagree on shape: {lows.shape} vs {highs.shape}"
            )
        if np.any(lows > highs + 1e-12):
            raise ShapeError("batched box lower bound exceeds upper bound")
        self.lows = lows
        self.highs = np.maximum(lows, highs)

    @classmethod
    def _ordered(cls, lows: np.ndarray, highs: np.ndarray) -> "BatchedBox":
        """A box from bounds already known to satisfy ``lows <= highs``."""
        box = cls.__new__(cls)
        box.lows = lows
        box.highs = highs
        return box

    # ------------------------------------------------------------------
    @classmethod
    def from_centers(cls, centers: np.ndarray, radius: "float | np.ndarray") -> "BatchedBox":
        """Boxes centred at the rows of ``centers`` with common ``radius``."""
        centers = _as_bound_matrix(centers, "centers")
        radius_arr = np.broadcast_to(np.asarray(radius, dtype=np.float64), centers.shape)
        if np.any(radius_arr < 0):
            raise ShapeError("box radius must be non-negative")
        return cls(centers - radius_arr, centers + radius_arr)

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return int(self.lows.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.lows.shape[1])

    @property
    def centers(self) -> np.ndarray:
        return (self.lows + self.highs) / 2.0

    @property
    def radii(self) -> np.ndarray:
        return (self.highs - self.lows) / 2.0

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(lows, highs)`` copies as plain ``(N, d)`` arrays."""
        return np.array(self.lows, copy=True), np.array(self.highs, copy=True)

    # ------------------------------------------------------------------
    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "BatchedBox":
        """Exact image of every row under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape[0] != self.dimension:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match box dimension "
                f"{self.dimension}"
            )
        centers = self.centers @ weights + bias
        radii = self.radii @ np.abs(weights)
        return BatchedBox._ordered(centers - radii, centers + radii)

    def relu(self) -> "BatchedBox":
        """Exact image under elementwise ReLU."""
        return BatchedBox._ordered(np.maximum(self.lows, 0.0), np.maximum(self.highs, 0.0))

    def elementwise_monotone(self, bound_transform) -> "BatchedBox":
        """Image under an elementwise monotone non-decreasing function."""
        return BatchedBox._ordered(*bound_transform(self.lows, self.highs))

    def scale_shift(self, scale: float, shift: float) -> "BatchedBox":
        """Image under the fixed rescaling ``x * scale + shift``."""
        a = self.lows * scale + shift
        b = self.highs * scale + shift
        return BatchedBox._ordered(b, a) if scale < 0 else BatchedBox._ordered(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchedBox(batch={self.batch_size}, dimension={self.dimension})"


class BatchedZonotope:
    """``N`` zonotopes sharing one generator layout.

    ``centers`` has shape ``(N, d)``; ``generators`` has shape ``(N, m, d)``
    so ``generators[i]`` are the ``m`` noise-symbol rows of batch row ``i``.
    All rows share the symbol count ``m`` — rows that do not need a symbol
    carry a zero row in that slot, which leaves their concretisation
    unchanged.
    """

    def __init__(self, centers: np.ndarray, generators: np.ndarray) -> None:
        centers = _as_bound_matrix(centers, "centers")
        generators = np.asarray(generators, dtype=np.float64)
        if generators.ndim != 3 or generators.shape[0] != centers.shape[0] or (
            generators.shape[2] != centers.shape[1]
        ):
            raise ShapeError(
                f"generators must have shape ({centers.shape[0]}, m, "
                f"{centers.shape[1]}), got {generators.shape}"
            )
        self.centers = centers
        self.generators = generators

    # ------------------------------------------------------------------
    @classmethod
    def from_batched_box(cls, box: BatchedBox) -> "BatchedZonotope":
        """One axis-aligned noise symbol per dimension, per row.

        Slots are allocated only for dimensions that are non-degenerate in at
        least one row, so the generator tensor is ``(N, n_active, d)`` rather
        than a dense ``(N, d, d)`` block.
        """
        radii = box.radii
        batch, dimension = radii.shape
        active = np.nonzero(np.any(radii > 0, axis=0))[0]
        generators = np.zeros((batch, active.shape[0], dimension))
        generators[:, np.arange(active.shape[0]), active] = radii[:, active]
        return cls(box.centers, generators)

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return int(self.centers.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.centers.shape[1])

    @property
    def num_generators(self) -> int:
        return int(self.generators.shape[1])

    def radii(self) -> np.ndarray:
        """Per-row, per-dimension half-width of the bounding boxes."""
        if self.num_generators == 0:
            return np.zeros((self.batch_size, self.dimension))
        return np.abs(self.generators).sum(axis=1)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tightest ``(N, d)`` bounding-box matrices of every row."""
        radii = self.radii()
        return self.centers - radii, self.centers + radii

    def _prune_zero_slots(self) -> "BatchedZonotope":
        """Drop generator slots that are zero in every row (no-op on bounds)."""
        if self.num_generators == 0:
            return self
        live = np.any(self.generators != 0.0, axis=(0, 2))
        if np.all(live):
            return self
        return BatchedZonotope(self.centers, self.generators[:, live, :])

    # ------------------------------------------------------------------
    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "BatchedZonotope":
        """Exact image of every row under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape[0] != self.dimension:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match zonotope dimension "
                f"{self.dimension}"
            )
        centers = self.centers @ weights + bias
        batch, symbols, _ = self.generators.shape
        flat = self.generators.reshape(batch * symbols, self.dimension) @ weights
        generators = flat.reshape(batch, symbols, weights.shape[1])
        return BatchedZonotope(centers, generators)

    def relu(self) -> "BatchedZonotope":
        """DeepZ minimal-area ReLU relaxation over the whole batch.

        Per row and neuron, with pre-activation bounds ``[l, u]``:

        * ``l >= 0`` — identity (slope 1, offset 0, no fresh noise);
        * ``u <= 0`` — exactly zero (slope 0, offset 0);
        * ``l < 0 < u`` — affine form ``λ·x + μ`` with ``λ = u/(u−l)``,
          ``μ = −λ·l/2`` plus a fresh noise symbol of magnitude ``μ``.

        Each neuron contributes one fresh generator slot shared by all rows;
        rows where the neuron is stable put a zero in the slot.
        """
        lows, highs = self.bounds()
        unstable = (lows < 0.0) & (highs > 0.0)
        negative = highs <= 0.0

        slope = np.ones_like(self.centers)
        slope[negative] = 0.0
        # Guard the division on stable neurons; the mask overwrites them.
        denominator = np.where(unstable, highs - lows, 1.0)
        slope = np.where(unstable, highs / denominator, slope)
        mu = np.where(unstable, -slope * lows / 2.0, 0.0)

        centers = slope * self.centers + mu
        generators = self.generators * slope[:, None, :]

        # Fresh slots only for neurons unstable in at least one row: the
        # tensor stays (N, n_unstable, d) instead of a dense (N, d, d) block.
        unstable_columns = np.nonzero(np.any(unstable, axis=0))[0]
        if unstable_columns.size:
            batch, dimension = self.centers.shape
            fresh = np.zeros((batch, unstable_columns.shape[0], dimension))
            fresh[:, np.arange(unstable_columns.shape[0]), unstable_columns] = mu[
                :, unstable_columns
            ]
            generators = np.concatenate([generators, fresh], axis=1)
        return BatchedZonotope(centers, generators)._prune_zero_slots()

    def elementwise_monotone(self, bound_transform) -> "BatchedZonotope":
        """Sound relaxation of a monotone activation via the box hull."""
        return BatchedZonotope.from_batched_box(
            BatchedBox._ordered(*bound_transform(*self.bounds()))
        )

    def scale_shift(self, scale: float, shift: float) -> "BatchedZonotope":
        """Image under the fixed rescaling ``x * scale + shift``."""
        return BatchedZonotope(self.centers * scale + shift, self.generators * scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedZonotope(batch={self.batch_size}, dimension={self.dimension}, "
            f"generators={self.num_generators})"
        )


class BatchedStar:
    """``N`` star sets advanced in lockstep, one predicate polytope per row.

    Affine images are exact per row.  ``relu`` and ``elementwise_monotone``
    first ask ``backend`` for the pre-activation bounds of every row in one
    call and hand each star its row: ``relu`` asks
    :meth:`~repro.symbolic.star_lp.StarLPBackend.sign_bounds_many` (closed
    form wherever the predicate box decides the sign, LP for the rest),
    ``elementwise_monotone`` and :meth:`bounds` ask
    :meth:`~repro.symbolic.star_lp.StarLPBackend.bounds_many` (closed form
    while a polytope is still a hypercube, block-stacked HiGHS programs
    once unstable ReLUs constrain it).
    """

    def __init__(self, stars: Sequence[StarSet], dimension: int, backend: StarLPBackend) -> None:
        self.stars = list(stars)
        self.dimension = int(dimension)
        self.backend = backend

    @classmethod
    def from_batched_box(cls, box: BatchedBox, backend: StarLPBackend) -> "BatchedStar":
        """One star per row, its predicates the row's noise directions."""
        stars = [StarSet.from_box(Box(low, high)) for low, high in zip(box.lows, box.highs)]
        return cls(stars, box.dimension, backend)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row, per-dimension ``(N, d)`` bounds through the LP back-end."""
        return self.backend.bounds_many(self.stars)

    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "BatchedStar":
        """Exact image of every row under ``x -> x @ weights + bias``."""
        stars = [star.affine(weights, bias) for star in self.stars]
        return BatchedStar(stars, np.shape(weights)[1], self.backend)

    def relu(self) -> "BatchedStar":
        """Triangle-relaxed ReLU of every row (see :meth:`StarSet.relu`)."""
        lows, highs = self.backend.sign_bounds_many(self.stars)
        stars = [star.relu((lows[i], highs[i])) for i, star in enumerate(self.stars)]
        return BatchedStar(stars, self.dimension, self.backend)

    def elementwise_monotone(self, bound_transform) -> "BatchedStar":
        """Box-hull relaxation of a monotone activation, per row."""
        lows, highs = self.bounds()
        stars = [
            star.elementwise_monotone(bound_transform, (lows[i], highs[i]))
            for i, star in enumerate(self.stars)
        ]
        return BatchedStar(stars, self.dimension, self.backend)

    def scale_shift(self, scale: float, shift: float) -> "BatchedStar":
        """Image under the fixed rescaling ``x * scale + shift``."""
        return self.affine(
            np.eye(self.dimension) * scale, np.full(self.dimension, shift)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchedStar(batch={len(self.stars)}, dimension={self.dimension})"
