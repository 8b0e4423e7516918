"""Seed reference versions of the symbolic walk, the star-LP bounds and the
robust-fit bound collection.

These are the formulations the library started from: single-box interval
arithmetic (:func:`box_affine`, :func:`box_elementwise_monotone`), a
single-sample :class:`Zonotope`, a single-sample layer walk
(:func:`_propagate_geometric`)
over a :class:`~repro.symbolic.interval.Box`, a :class:`Zonotope` or a
:class:`~repro.symbolic.star.StarSet`, one dense ``scipy.optimize.linprog``
call per dimension per sense for a star's bounds, one Definition-1
perturbation estimate per input for a training set, the per-neuron star
ReLU (:func:`star_relu_loop`), the hypercube closed form
(:func:`hypercube_bounds`) and the lockstep star walk whose ReLU layers ask
full bound queries (:func:`star_walk_full_query`).  They are slow but
obviously right, and they share no layer walk with ``repro.symbolic``, so
the tests (and the loop-vs-batched benchmarks) pin the batched walk, the
closed-form and block-stacked tiers against them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import ConfigurationError, PropagationError, ShapeError
from repro.nn.activations import ReLU
from repro.nn.layers import ActivationLayer, Dense, Dropout, Flatten, Scale
from repro.symbolic.interval import Box
from repro.symbolic.star import StarSet
from repro.symbolic.star_lp import StarLPBackend


class Zonotope:
    """A zonotope ``{center + generators.T @ eps : eps ∈ [-1, 1]^m}``.

    ``generators`` is stored with shape ``(num_symbols, dimension)`` so that
    each row is one noise symbol's contribution.  ReLU layers use the DeepZ
    minimal-area relaxation (Singh et al., NeurIPS 2018), one neuron at a
    time; other monotone activations fall back to the box hull.
    """

    def __init__(self, center: np.ndarray, generators: np.ndarray) -> None:
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        generators = np.asarray(generators, dtype=np.float64)
        if generators.ndim != 2 or generators.shape[1] != center.shape[0]:
            raise ShapeError(
                f"generators must have shape (m, {center.shape[0]}), got "
                f"{generators.shape}"
            )
        self.center = center
        self.generators = generators

    @classmethod
    def from_box(cls, box: Box) -> "Zonotope":
        """Zonotope with one noise symbol per non-degenerate dimension."""
        radius = box.radius
        nonzero = np.nonzero(radius > 0)[0]
        generators = np.zeros((nonzero.shape[0], box.dimension))
        for row, dim in enumerate(nonzero):
            generators[row, dim] = radius[dim]
        return cls(box.center, generators)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tightest per-dimension ``(low, high)`` of the zonotope."""
        radius = np.abs(self.generators).sum(axis=0)
        return self.center - radius, self.center + radius

    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "Zonotope":
        """Exact image under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.center.shape[0]:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match zonotope dimension "
                f"{self.center.shape[0]}"
            )
        return Zonotope(self.center @ weights + bias, self.generators @ weights)

    def relu(self) -> "Zonotope":
        """DeepZ relaxation: per unstable neuron (``l < 0 < u``) the affine
        form ``λ·x + μ`` with ``λ = u/(u−l)``, ``μ = −λ·l/2`` plus a fresh
        noise symbol of magnitude ``μ``; stable neurons are exact."""
        low, high = self.bounds()
        center = np.array(self.center, copy=True)
        generators = np.array(self.generators, copy=True)
        fresh_rows = []
        for j in range(center.shape[0]):
            l, u = low[j], high[j]
            if l >= 0.0:
                continue
            if u <= 0.0:
                center[j] = 0.0
                generators[:, j] = 0.0
                continue
            slope = u / (u - l)
            mu = -slope * l / 2.0
            center[j] = slope * center[j] + mu
            generators[:, j] *= slope
            fresh = np.zeros(center.shape[0])
            fresh[j] = mu
            fresh_rows.append(fresh)
        if fresh_rows:
            generators = np.vstack([generators, np.array(fresh_rows)])
        return Zonotope(center, generators)

    def elementwise_monotone(self, bound_transform) -> "Zonotope":
        """Box-hull relaxation of a monotone activation."""
        return Zonotope.from_box(Box(*bound_transform(*self.bounds())))


def box_affine(box: Box, weights: np.ndarray, bias: np.ndarray) -> Box:
    """Exact box image under ``x -> x @ weights + bias``."""
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.shape[0] != box.dimension:
        raise ShapeError(
            f"weight rows {weights.shape[0]} do not match box dimension "
            f"{box.dimension}"
        )
    center = box.center @ weights + bias
    radius = box.radius @ np.abs(weights)
    return Box(center - radius, center + radius)


def box_elementwise_monotone(box: Box, function) -> Box:
    """Box image under an elementwise monotone non-decreasing ``function``."""
    return Box(function(box.low), function(box.high))


def _box_layer(layer, box: Box) -> Box:
    """Interval arithmetic of one layer (the seed per-layer box rule)."""
    if isinstance(layer, Dense):
        return box_affine(box, layer.weights, layer.bias)
    if isinstance(layer, ActivationLayer):
        return Box(*layer.activation.bound_transform(box.low, box.high))
    if isinstance(layer, Scale):
        low = box.low * layer.scale + layer.shift
        high = box.high * layer.scale + layer.shift
        return Box(high, low) if layer.scale < 0 else Box(low, high)
    return box


def _propagate_geometric(
    network, abstract, from_layer: int, to_layer: int, star_lp_backend=None
):
    """The seed single-sample layer walk over a Box, Zonotope or StarSet.

    A star answers its bound queries through ``star_lp_backend`` (default:
    :class:`LoopStarLPBackend`, the seed per-dimension LPs).
    """
    backend = star_lp_backend if star_lp_backend is not None else LoopStarLPBackend()
    for layer in network.layers[from_layer:to_layer]:
        if not isinstance(layer, (Dense, ActivationLayer, Dropout, Flatten, Scale)):
            raise PropagationError(f"no rule for layer type {type(layer).__name__}")
        if isinstance(abstract, Box):
            abstract = _box_layer(layer, abstract)
        elif isinstance(layer, Dense):
            abstract = abstract.affine(layer.weights, layer.bias)
        elif isinstance(layer, Scale):
            dimension = abstract.center.shape[0]
            abstract = abstract.affine(
                np.eye(dimension) * layer.scale, np.full(dimension, layer.shift)
            )
        elif isinstance(layer, ActivationLayer):
            relu = isinstance(layer.activation, ReLU)
            transform = layer.activation.bound_transform
            if isinstance(abstract, StarSet):
                bounds = backend.bounds(abstract)
                abstract = (
                    abstract.relu(bounds)
                    if relu
                    else abstract.elementwise_monotone(transform, bounds)
                )
            else:
                abstract = abstract.relu() if relu else abstract.elementwise_monotone(transform)
    return abstract


def propagate_single(
    network, box: Box, from_layer: int, to_layer: int, method: str, star_lp_backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Seed ``(low, high)`` of one box at ``to_layer`` under ``method``."""
    if method == "box":
        result = _propagate_geometric(network, box, from_layer, to_layer)
        return result.low, result.high
    if method == "zonotope":
        return _propagate_geometric(
            network, Zonotope.from_box(box), from_layer, to_layer
        ).bounds()
    backend = star_lp_backend if star_lp_backend is not None else LoopStarLPBackend()
    star = _propagate_geometric(network, StarSet.from_box(box), from_layer, to_layer, backend)
    return backend.bounds(star)


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
    ``star_lp_backend`` is taken to run the seed path.
    """

    name = "loop"

    def bounds_many(self, stars: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        if not stars:
            return np.zeros((0, 0)), np.zeros((0, 0))
        self._dimension(stars)
        answers = [star_bounds_loop(star) for star in stars]
        return np.stack([low for low, _ in answers]), np.stack([high for _, high in answers])


def star_bounds_loop_batch(
    network, batched_box, from_layer: int, to_layer: int, star_lp_backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """The star back-end walked one row at a time.

    Each row runs its own full symbolic walk and answers its bound queries
    through ``star_lp_backend`` — by default a :class:`LoopStarLPBackend`,
    i.e. the original ``2·d``-LPs-per-query path.
    """
    batch = batched_box.batch_size
    out_dim = network.layer_output_dim(to_layer)
    lows = np.empty((batch, out_dim))
    highs = np.empty((batch, out_dim))
    for index in range(batch):
        box = Box(batched_box.lows[index], batched_box.highs[index])
        lows[index], highs[index] = propagate_single(
            network, box, from_layer, to_layer, "star", star_lp_backend
        )
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
        anchor = np.asarray(network.forward_to(spec.layer, row)).reshape(-1)
        box = Box.from_center(anchor, spec.delta)
        low, high = propagate_single(network, box, spec.layer, monitored_layer, spec.method)
        lows.append(low)
        highs.append(high)
    return np.vstack(lows), np.vstack(highs)


def star_relu_loop(star: StarSet, bounds: Tuple[np.ndarray, np.ndarray]) -> StarSet:
    """The seed :meth:`StarSet.relu`: one neuron at a time, one triangle row
    appended at a time.  The result carries no predicate box."""
    low, high = bounds
    center = np.array(star.center, copy=True)
    basis = np.array(star.basis, copy=True)
    constraints_a = star.constraints_a
    constraints_b = star.constraints_b
    num_predicates = star.num_predicates

    unstable = [j for j in range(star.dimension) if low[j] < 0.0 < high[j]]
    negative = [j for j in range(star.dimension) if high[j] <= 0.0]

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
            hypercube_domain=star.is_hypercube_domain,
        )

    fresh_count = len(unstable)
    extended_a = np.hstack(
        [constraints_a, np.zeros((constraints_a.shape[0], fresh_count))]
    )
    extra_rows = []
    extra_b = []
    new_basis = np.vstack([basis, np.zeros((fresh_count, star.dimension))])
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
    return StarSet(center, new_basis, constraints_a, constraints_b)


def hypercube_bounds(star: StarSet) -> Tuple[np.ndarray, np.ndarray]:
    """The seed closed form of a hypercube star: ``center ± |basis|ᵀ·1``."""
    radius = np.abs(star.basis).sum(axis=0)
    return star.center - radius, star.center + radius


def star_walk_full_query(
    network, batched_box, from_layer: int, to_layer: int, backend, record=None
):
    """The lockstep star walk with full bound queries at every ReLU layer.

    Each ReLU layer asks ``backend.bounds_many`` for exact pre-activation
    bounds of every row, and :func:`star_relu_loop` relaxes each row.  When
    ``record`` is a list, one ``(unstable, negative)`` pair of ``(N, d)``
    masks is appended per ReLU layer.  Returns the final stars.
    """
    stars = [
        StarSet.from_box(Box(low, high))
        for low, high in zip(batched_box.lows, batched_box.highs)
    ]
    for layer in network.layers[from_layer:to_layer]:
        if isinstance(layer, Dense):
            stars = [star.affine(layer.weights, layer.bias) for star in stars]
        elif isinstance(layer, Scale):
            dimension = stars[0].dimension
            stars = [
                star.affine(np.eye(dimension) * layer.scale, np.full(dimension, layer.shift))
                for star in stars
            ]
        elif isinstance(layer, ActivationLayer):
            lows, highs = backend.bounds_many(stars)
            if isinstance(layer.activation, ReLU):
                if record is not None:
                    record.append(((lows < 0.0) & (highs > 0.0), highs <= 0.0))
                stars = [
                    star_relu_loop(star, (lows[i], highs[i])) for i, star in enumerate(stars)
                ]
            else:
                transform = layer.activation.bound_transform
                stars = [
                    star.elementwise_monotone(transform, (lows[i], highs[i]))
                    for i, star in enumerate(stars)
                ]
    return stars
