"""Sound symbolic reasoning substrate (abstract interpretation domains).

Provides the three bound-propagation back-ends the paper cites for computing
the perturbation estimate of Definition 1: axis-aligned boxes (interval bound
propagation), zonotopes and star sets.

One layer walk serves them all: the batched states
(:class:`~repro.symbolic.batched.BatchedBox`,
:class:`~repro.symbolic.batched.BatchedZonotope`,
:class:`~repro.symbolic.batched.BatchedStar`) carry a leading batch axis
through :func:`~repro.symbolic.propagation.propagate_bounds_batch` /
:func:`~repro.symbolic.propagation.perturbation_bounds_batch` — the code path
robust monitor fits use to estimate whole training sets in one propagation.
The single-sample :func:`~repro.symbolic.propagation.propagate_bounds` /
:func:`~repro.symbolic.propagation.perturbation_bounds` are N=1 calls into
it, and return a :class:`~repro.symbolic.interval.Box`.

The star back-end answers its LP bound queries through
:class:`~repro.symbolic.star_lp.StackedStarLPBackend`: a closed form while a
star's predicate polytope is still the default hypercube, block-stacked
sparse HiGHS solves once unstable ReLUs constrain it.  The seed
single-sample walk and per-row, per-dimension LP loop it is pinned against
live with the tests (``tests/oracles/symbolic.py``).
"""

from .batched import BatchedBox, BatchedStar, BatchedZonotope
from .interval import Box
from .propagation import (
    PROPAGATION_METHODS,
    perturbation_bounds,
    perturbation_bounds_batch,
    propagate_bounds,
    propagate_bounds_batch,
)
from .star import StarSet
from .star_lp import StackedStarLPBackend, StarLPBackend, resolve_star_lp_backend

__all__ = [
    "Box",
    "BatchedBox",
    "BatchedZonotope",
    "BatchedStar",
    "StarSet",
    "PROPAGATION_METHODS",
    "propagate_bounds",
    "propagate_bounds_batch",
    "perturbation_bounds",
    "perturbation_bounds_batch",
    "StarLPBackend",
    "StackedStarLPBackend",
    "resolve_star_lp_backend",
]
