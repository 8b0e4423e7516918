"""Sound symbolic reasoning substrate (abstract interpretation domains).

Provides the three bound-propagation back-ends the paper cites for computing
the perturbation estimate of Definition 1: axis-aligned boxes (interval bound
propagation), zonotopes and star sets, together with a unified
:func:`~repro.symbolic.propagation.propagate_bounds` /
:func:`~repro.symbolic.propagation.perturbation_bounds` API.

Every back-end also has a batched form carrying a leading batch axis
(:class:`~repro.symbolic.batched.BatchedBox`,
:class:`~repro.symbolic.batched.BatchedZonotope`, and the lockstep star
walk) behind :func:`~repro.symbolic.propagation.propagate_bounds_batch` /
:func:`~repro.symbolic.propagation.perturbation_bounds_batch` — the code
path robust monitor fits use to estimate whole training sets in one
propagation.

The star back-end answers its LP bound queries through
:class:`~repro.symbolic.star_lp.StackedStarLPBackend`: a closed form while a
star's predicate polytope is still the default hypercube, block-stacked
sparse HiGHS solves once unstable ReLUs constrain it.  The seed per-row,
per-dimension LP walk it is pinned against lives with the tests
(``tests/oracles/symbolic.py``).
"""

from .batched import BatchedBox, BatchedZonotope
from .interval import Box
from .propagation import (
    PROPAGATION_METHODS,
    perturbation_bounds,
    perturbation_bounds_batch,
    propagate_bounds,
    propagate_bounds_batch,
    propagate_box,
    propagate_star,
    propagate_zonotope,
    propagation_backends,
)
from .star import StarSet
from .star_lp import StackedStarLPBackend, StarLPBackend, resolve_star_lp_backend
from .zonotope import Zonotope

__all__ = [
    "Box",
    "BatchedBox",
    "BatchedZonotope",
    "Zonotope",
    "StarSet",
    "PROPAGATION_METHODS",
    "propagate_bounds",
    "propagate_bounds_batch",
    "propagate_box",
    "propagate_zonotope",
    "propagate_star",
    "perturbation_bounds",
    "perturbation_bounds_batch",
    "propagation_backends",
    "StarLPBackend",
    "StackedStarLPBackend",
    "resolve_star_lp_backend",
]
