"""Seed reference versions of the star-LP bounds and the robust-fit bound walk.

These are the formulations the library started from: one dense
``scipy.optimize.linprog`` call per dimension per sense for a star's bounds,
a full symbolic walk per row for a batch of boxes, and one Definition-1
perturbation estimate per input for a training set.  They are slow but
obviously right, so the tests (and the loop-vs-batched benchmarks) pin the
closed-form and block-stacked tiers and the batched walks against them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import ConfigurationError, PropagationError
from repro.monitors.perturbation import perturbation_estimate
from repro.symbolic.interval import Box
from repro.symbolic.propagation import _propagate_geometric
from repro.symbolic.star import StarSet
from repro.symbolic.star_lp import StarLPBackend


def dimension_bound(star: StarSet, direction: np.ndarray, maximise: bool) -> float:
    """LP bound of ``direction . x`` over the star (x = c + V^T alpha)."""
    offset = float(direction @ star.center)
    if star.num_predicates == 0:
        return offset
    coefficients = star.basis @ direction
    sign = -1.0 if maximise else 1.0
    result = linprog(
        sign * coefficients,
        A_ub=star.constraints_a,
        b_ub=star.constraints_b,
        bounds=[(None, None)] * star.num_predicates,
        method="highs",
    )
    if not result.success:
        raise PropagationError(
            f"LP bound query failed: {result.message} (status {result.status})"
        )
    return offset + float(coefficients @ result.x)


def star_bounds_loop(star: StarSet) -> Tuple[np.ndarray, np.ndarray]:
    """One dense LP per dimension per sense (``2·d`` calls)."""
    low = np.empty(star.dimension)
    high = np.empty(star.dimension)
    for j in range(star.dimension):
        direction = np.zeros(star.dimension)
        direction[j] = 1.0
        low[j] = dimension_bound(star, direction, maximise=False)
        high[j] = dimension_bound(star, direction, maximise=True)
    return low, high


class LoopStarLPBackend(StarLPBackend):
    """:func:`star_bounds_loop` behind the star-LP back-end interface.

    No closed form, no stacking: pass an instance wherever a
    ``star_lp_backend`` / ``lp_backend`` is taken to run the seed path.
    """

    name = "loop"

    def bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        if not stars:
            return np.zeros((0, 0)), np.zeros((0, 0))
        lows, highs = self._output_arrays(stars)
        for index, star in enumerate(stars):
            lows[index], highs[index] = star_bounds_loop(star)
        return lows, highs


def star_bounds_loop_batch(
    network, batched_box, from_layer: int, to_layer: int, star_lp_backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """The star back-end walked one row at a time.

    Each row runs its own full symbolic walk and answers its bound queries
    through ``star_lp_backend`` — by default a :class:`LoopStarLPBackend`,
    i.e. the original ``2·d``-LPs-per-query path.
    """
    backend = star_lp_backend if star_lp_backend is not None else LoopStarLPBackend()
    batch = batched_box.batch_size
    out_dim = network.layer_output_dim(to_layer)
    lows = np.empty((batch, out_dim))
    highs = np.empty((batch, out_dim))
    for index in range(batch):
        low, high = batched_box.row(index)
        star = _propagate_geometric(
            network,
            StarSet.from_box(Box(low, high), lp_backend=backend),
            from_layer,
            to_layer,
        )
        lows[index], highs[index] = star.bounds()
    return lows, highs


def collect_bound_arrays_loop(
    network, inputs: np.ndarray, monitored_layer: int, spec
) -> Tuple[np.ndarray, np.ndarray]:
    """``collect_bound_arrays`` with one symbolic propagation per input row."""
    if spec.layer >= monitored_layer:
        raise ConfigurationError(
            f"perturbation layer k_p={spec.layer} must be strictly before the "
            f"monitored layer k={monitored_layer}"
        )
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if spec.is_trivial:
        features = np.atleast_2d(network.forward_to(monitored_layer, inputs))
        return features, np.array(features, copy=True)
    lows, highs = [], []
    for row in inputs:
        estimate = perturbation_estimate(network, row, monitored_layer, spec)
        lows.append(np.atleast_1d(estimate.low))
        highs.append(np.atleast_1d(estimate.high))
    return np.vstack(lows), np.vstack(highs)
