"""Axis-aligned box (interval vector) abstract domain.

The box domain is the abstraction the paper's implementation uses for the
perturbation estimate (interval bound propagation, reference [3]).  A box is
stored as a pair of numpy vectors ``(low, high)``: the single-sample input
and result type of the layer walk, whose interval arithmetic runs on
:class:`~repro.symbolic.batched.BatchedBox`.  It supports membership, join
and sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..exceptions import ShapeError

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """An axis-aligned hyper-rectangle ``{x : low <= x <= high}``."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64).reshape(-1)
        high = np.asarray(self.high, dtype=np.float64).reshape(-1)
        if low.shape != high.shape:
            raise ShapeError(
                f"box bounds disagree on dimension: {low.shape} vs {high.shape}"
            )
        if np.any(low > high + 1e-12):
            raise ShapeError("box lower bound exceeds upper bound")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", np.maximum(low, high))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_center(cls, center: np.ndarray, radius: "float | np.ndarray") -> "Box":
        """Box centred at ``center`` with (scalar or per-dim) ``radius``."""
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        radius_arr = np.broadcast_to(
            np.asarray(radius, dtype=np.float64), center.shape
        ).astype(np.float64)
        if np.any(radius_arr < 0):
            raise ShapeError("box radius must be non-negative")
        return cls(center - radius_arr, center + radius_arr)

    @classmethod
    def from_point(cls, point: np.ndarray) -> "Box":
        """Degenerate box containing a single point."""
        return cls.from_center(point, 0.0)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return int(self.low.shape[0])

    @property
    def center(self) -> np.ndarray:
        return (self.low + self.high) / 2.0

    @property
    def radius(self) -> np.ndarray:
        return (self.high - self.low) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return self.high - self.low

    def width_sum(self) -> float:
        """Total width (L1 size) — a scalar precision measure used in benches."""
        return float(np.sum(self.widths))

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------
    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        """True when ``point`` lies inside the box up to ``tolerance``."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if point.shape != self.low.shape:
            raise ShapeError(
                f"point dimension {point.shape} does not match box dimension "
                f"{self.low.shape}"
            )
        return bool(
            np.all(point >= self.low - tolerance) and np.all(point <= self.high + tolerance)
        )

    def join(self, other: "Box") -> "Box":
        """Smallest box containing both boxes (the lattice join)."""
        if other.dimension != self.dimension:
            raise ShapeError("cannot join boxes of different dimensions")
        return Box(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    # ------------------------------------------------------------------
    # sampling & iteration
    # ------------------------------------------------------------------
    def sample(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw ``count`` uniform samples from the box (rows of the result)."""
        if rng is None:
            rng = np.random.default_rng()
        return rng.uniform(self.low, self.high, size=(count, self.dimension))

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        for lo, hi in zip(self.low, self.high):
            yield float(lo), float(hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(
            self.dimension == other.dimension
            and np.allclose(self.low, other.low)
            and np.allclose(self.high, other.high)
        )

    def __hash__(self) -> int:  # dataclass(frozen) would use array hash otherwise
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.dimension <= 4:
            pairs = ", ".join(f"[{lo:.3g}, {hi:.3g}]" for lo, hi in self)
            return f"Box({pairs})"
        return f"Box(dimension={self.dimension}, width_sum={self.width_sum():.3g})"
