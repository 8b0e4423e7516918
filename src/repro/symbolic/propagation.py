"""Unified sound bound propagation through a trained network.

This module implements the computational core of Definition 1 of the paper:
given a training input ``v_tr``, a perturbation layer ``k_p``, a perturbation
budget ``Δ`` and a monitored layer ``k``, compute per-neuron bounds
``(l_j, u_j)`` that are guaranteed to contain ``G^{k_p+1 ↪ k}_j(v̆)`` for every
``v̆`` obtained by perturbing ``G^{k_p}(v_tr)`` by at most ``Δ`` in every
dimension.

Three back-ends are provided, matching the three techniques cited by the
paper: ``"box"`` (interval bound propagation [3]), ``"zonotope"`` [4] and
``"star"`` [5].  All three are sound; they differ only in tightness and cost.

Two API levels are offered:

* single-sample — :func:`propagate_bounds` / :func:`perturbation_bounds`
  take one :class:`~repro.symbolic.interval.Box` / input vector;
* batched — :func:`propagate_bounds_batch` / :func:`perturbation_bounds_batch`
  take ``(N, d)`` bound/input matrices and push the whole batch through the
  abstract transformers at once (see :mod:`repro.symbolic.batched`).  The
  box and zonotope back-ends vectorise fully; the star back-end walks all
  rows in lockstep, layer by layer, so every bound query of the batch goes
  through one :mod:`~repro.symbolic.star_lp` back-end call — closed form
  (zero LPs) while predicate polytopes are still hypercubes, block-stacked
  sparse HiGHS solves once ReLUs go unstable.  The seed one-row-at-a-time
  star walk the batched path is pinned against lives with the tests
  (``tests/oracles/symbolic.py``).

The batched level is what robust monitor construction uses
(:func:`repro.monitors.perturbation.collect_bound_arrays`); row ``i`` of a
batched result agrees with the single-sample result of row ``i``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import ConfigurationError, LayerIndexError, PropagationError
from ..nn.activations import ReLU
from ..nn.layers import ActivationLayer, Dense, Dropout, Flatten, Scale
from ..nn.network import Sequential
from .batched import BatchedBox, BatchedZonotope
from .interval import Box
from .star import StarSet
from .star_lp import resolve_star_lp_backend
from .zonotope import Zonotope

__all__ = [
    "PROPAGATION_METHODS",
    "propagate_box",
    "propagate_zonotope",
    "propagate_star",
    "propagate_bounds",
    "propagate_bounds_batch",
    "perturbation_bounds",
    "perturbation_bounds_batch",
    "propagation_backends",
]

PROPAGATION_METHODS = ("box", "zonotope", "star")

#: Element budget for one batched-zonotope generator tensor.  The batch is
#: split so that ``rows_per_chunk * num_symbols * dimension`` stays under
#: this (~64 MB of float64), bounding peak memory on wide input layers where
#: a whole training set at once would allocate O(N·d²) dense generators.
ZONOTOPE_CHUNK_ELEMENTS = 8_000_000


def _check_slice(network: Sequential, from_layer: int, to_layer: int) -> None:
    if not 0 <= from_layer <= network.num_layers:
        raise LayerIndexError(f"from_layer {from_layer} outside network")
    if not 1 <= to_layer <= network.num_layers:
        raise LayerIndexError(f"to_layer {to_layer} outside network")
    if from_layer >= to_layer:
        raise LayerIndexError(
            f"from_layer ({from_layer}) must be strictly before to_layer ({to_layer})"
        )


def propagate_box(
    network: Sequential, box: Box, from_layer: int, to_layer: int
) -> Box:
    """Interval bound propagation from layer ``from_layer`` to ``to_layer``."""
    _check_slice(network, from_layer, to_layer)
    low, high = network.propagate_box(box.low, box.high, from_layer, to_layer)
    return Box(low, high)


def _propagate_geometric(
    network: Sequential,
    abstract,
    from_layer: int,
    to_layer: int,
) -> "Zonotope | StarSet":
    """Shared layer walk for the zonotope and star back-ends."""
    for layer in network.layers[from_layer:to_layer]:
        if isinstance(layer, Dense):
            abstract = abstract.affine(layer.weights, layer.bias)
        elif isinstance(layer, ActivationLayer):
            if isinstance(layer.activation, ReLU):
                abstract = abstract.relu()
            else:
                abstract = abstract.elementwise_monotone(
                    layer.activation.bound_transform
                )
        elif isinstance(layer, (Dropout, Flatten)):
            # Inference-time identity layers.
            continue
        elif isinstance(layer, Scale):
            dimension = abstract.dimension
            weights = np.eye(dimension) * layer.scale
            bias = np.full(dimension, layer.shift)
            abstract = abstract.affine(weights, bias)
        else:
            raise PropagationError(
                f"layer type {type(layer).__name__} has no geometric propagation rule"
            )
    return abstract


def propagate_zonotope(
    network: Sequential, box: Box, from_layer: int, to_layer: int
) -> Zonotope:
    """Zonotope propagation from layer ``from_layer`` to ``to_layer``."""
    _check_slice(network, from_layer, to_layer)
    return _propagate_geometric(network, Zonotope.from_box(box), from_layer, to_layer)


def propagate_star(
    network: Sequential,
    box: Box,
    from_layer: int,
    to_layer: int,
    star_lp_backend=None,
) -> StarSet:
    """Star-set propagation from layer ``from_layer`` to ``to_layer``.

    ``star_lp_backend`` is the :class:`~repro.symbolic.star_lp.StarLPBackend`
    instance answering the walk's bound queries (``None``: the shared
    stacked tier).
    """
    _check_slice(network, from_layer, to_layer)
    return _propagate_geometric(
        network, StarSet.from_box(box, lp_backend=star_lp_backend), from_layer, to_layer
    )


def _check_method(method: str) -> None:
    """Validate a back-end name with an actionable error message.

    Raises :class:`~repro.exceptions.ConfigurationError` (a ``ValueError``)
    listing the valid :func:`propagation_backends` keys, so a typo like
    ``"zontope"`` fails with the available choices instead of a bare lookup
    error deep inside the dispatch.
    """
    if method not in PROPAGATION_METHODS:
        valid = ", ".join(sorted(propagation_backends()))
        raise ConfigurationError(
            f"unknown propagation method '{method}'; valid backends are: {valid}"
        )


def _propagate_zonotope_batch_walk(
    network: Sequential,
    batched_box: BatchedBox,
    from_layer: int,
    to_layer: int,
) -> BatchedZonotope:
    """Batched layer walk of the zonotope back-end (mirrors the single walk)."""
    abstract = BatchedZonotope.from_batched_box(batched_box)
    for layer in network.layers[from_layer:to_layer]:
        if isinstance(layer, Dense):
            abstract = abstract.affine(layer.weights, layer.bias)
        elif isinstance(layer, ActivationLayer):
            if isinstance(layer.activation, ReLU):
                abstract = abstract.relu()
            else:
                abstract = abstract.elementwise_monotone(
                    layer.activation.bound_transform
                )
        elif isinstance(layer, (Dropout, Flatten)):
            continue
        elif isinstance(layer, Scale):
            abstract = abstract.scale_shift(layer.scale, layer.shift)
        else:
            raise PropagationError(
                f"layer type {type(layer).__name__} has no geometric propagation rule"
            )
    return abstract


def _zonotope_rows_per_chunk(network: Sequential, from_layer: int, to_layer: int) -> int:
    """Rows per chunk keeping one generator tensor under the element budget.

    The symbol count grows along the walk: the input embedding contributes up
    to ``d_in`` symbols and every ReLU layer up to its width, so the peak
    per-row tensor is about ``total_symbols * widest_layer`` elements.
    """
    input_dim = network.layer_output_dim(from_layer)
    total_symbols = input_dim
    widest = input_dim
    for index in range(from_layer, to_layer):
        width = network.layer_output_dim(index + 1)
        widest = max(widest, width)
        layer = network.layers[index]
        if isinstance(layer, ActivationLayer) and isinstance(layer.activation, ReLU):
            total_symbols += width
    per_row = max(1, total_symbols * widest)
    return max(1, ZONOTOPE_CHUNK_ELEMENTS // per_row)


def _propagate_zonotope_batch(
    network: Sequential,
    batched_box: BatchedBox,
    from_layer: int,
    to_layer: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zonotope bounds for a batch of boxes, memory-bounded via row chunks.

    Rows are independent, so chunking changes peak memory only — row ``i`` of
    the result is the same (up to generator-slot layout, which bound sums are
    insensitive to) whatever the chunk size.
    """
    batch = batched_box.batch_size
    rows = _zonotope_rows_per_chunk(network, from_layer, to_layer)
    if rows >= batch:
        return _propagate_zonotope_batch_walk(
            network, batched_box, from_layer, to_layer
        ).bounds()
    out_dim = network.layer_output_dim(to_layer)
    lows = np.empty((batch, out_dim))
    highs = np.empty((batch, out_dim))
    for start in range(0, batch, rows):
        stop = min(start + rows, batch)
        chunk = BatchedBox(batched_box.lows[start:stop], batched_box.highs[start:stop])
        lows[start:stop], highs[start:stop] = _propagate_zonotope_batch_walk(
            network, chunk, from_layer, to_layer
        ).bounds()
    return lows, highs


def _propagate_star_batch(
    network: Sequential,
    batched_box: BatchedBox,
    from_layer: int,
    to_layer: int,
    star_lp_backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Star back-end over a batch of boxes, walked in lockstep.

    Each row owns its predicate polytope, but the *bound queries* of all
    rows at a given layer are independent LPs — so the walk keeps every
    row's star alive, advances them layer by layer together, and answers
    each layer's batch of bound queries with one
    :meth:`~repro.symbolic.star_lp.StarLPBackend.bounds_many` call: closed
    form while the polytopes are hypercubes, chunked block-stacked HiGHS
    programs once they are constrained.  Row ``i`` of the result matches
    the single-sample star propagation of row ``i`` (exactly on the
    closed-form tier, to LP tolerance on the stacked tier).
    """
    backend = resolve_star_lp_backend(star_lp_backend)
    stars = [
        StarSet.from_box(Box(*batched_box.row(index)), lp_backend=backend)
        for index in range(batched_box.batch_size)
    ]
    for layer in network.layers[from_layer:to_layer]:
        if isinstance(layer, Dense):
            stars = [star.affine(layer.weights, layer.bias) for star in stars]
        elif isinstance(layer, ActivationLayer):
            lows, highs = backend.bounds_many(stars)
            if isinstance(layer.activation, ReLU):
                stars = [
                    star.relu(bounds=(lows[index], highs[index]))
                    for index, star in enumerate(stars)
                ]
            else:
                transform = layer.activation.bound_transform
                stars = [
                    star.elementwise_monotone(
                        transform, bounds=(lows[index], highs[index])
                    )
                    for index, star in enumerate(stars)
                ]
        elif isinstance(layer, (Dropout, Flatten)):
            continue
        elif isinstance(layer, Scale):
            dimension = stars[0].dimension if stars else 0
            weights = np.eye(dimension) * layer.scale
            bias = np.full(dimension, layer.shift)
            stars = [star.affine(weights, bias) for star in stars]
        else:
            raise PropagationError(
                f"layer type {type(layer).__name__} has no geometric propagation rule"
            )
    return backend.bounds_many(stars)


def propagate_bounds_batch(
    network: Sequential,
    lows: np.ndarray,
    highs: np.ndarray,
    from_layer: int,
    to_layer: int,
    method: str = "box",
    star_lp_backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sound per-neuron bounds at ``to_layer`` for a whole batch of boxes.

    ``lows`` / ``highs`` are ``(N, d)`` matrices describing one input box per
    row; the result is the ``(N, d_k)`` pair of bound matrices whose row ``i``
    is the axis-aligned hull of propagating box ``i`` with the chosen
    back-end — identical (box) or tolerance-close (zonotope, star) to the
    single-sample :func:`propagate_bounds` of that row.  ``star_lp_backend``
    is the star-LP back-end instance of the ``star`` method (ignored by the
    others); ``None`` uses the shared stacked tier.
    """
    _check_method(method)
    _check_slice(network, from_layer, to_layer)
    batched_box = BatchedBox(lows, highs)
    expected = network.layer_output_dim(from_layer)
    if batched_box.dimension != expected:
        raise ConfigurationError(
            f"batched bounds have dimension {batched_box.dimension}, layer "
            f"{from_layer} produces {expected}"
        )
    if method == "box":
        return network.propagate_box_batch(
            batched_box.lows, batched_box.highs, from_layer, to_layer
        )
    if method == "zonotope":
        return _propagate_zonotope_batch(network, batched_box, from_layer, to_layer)
    return _propagate_star_batch(
        network, batched_box, from_layer, to_layer, star_lp_backend=star_lp_backend
    )


def propagate_bounds(
    network: Sequential,
    box: Box,
    from_layer: int,
    to_layer: int,
    method: str = "box",
    star_lp_backend=None,
) -> Box:
    """Sound per-neuron bounds at ``to_layer`` for any point of ``box``.

    Returns the axis-aligned bounding box of the chosen abstraction; the
    result is always a sound over-approximation regardless of the back-end.
    """
    _check_method(method)
    if method == "box":
        return propagate_box(network, box, from_layer, to_layer)
    if method == "zonotope":
        return propagate_zonotope(network, box, from_layer, to_layer).to_box()
    return propagate_star(
        network, box, from_layer, to_layer, star_lp_backend=star_lp_backend
    ).to_box()


def perturbation_bounds(
    network: Sequential,
    input_vector: np.ndarray,
    monitored_layer: int,
    perturbation_layer: int = 0,
    delta: float = 0.0,
    method: str = "box",
    star_lp_backend=None,
) -> Box:
    """Compute the perturbation estimate ``pe^G_k(v, k_p, Δ)`` of Definition 1.

    The feature vector at ``perturbation_layer`` is computed concretely, a
    box of radius ``delta`` is placed around it, and the box is propagated
    soundly to ``monitored_layer``.  With ``delta = 0`` the result is the
    degenerate box containing exactly ``G^k(v)`` (up to the over-approximation
    of the chosen back-end, which is exact for a point input).
    """
    if delta < 0:
        raise ConfigurationError("perturbation bound delta must be non-negative")
    if not 0 <= perturbation_layer < monitored_layer:
        raise ConfigurationError(
            "perturbation layer must satisfy 0 <= k_p < k (monitored layer)"
        )
    anchor = network.forward_to(perturbation_layer, np.asarray(input_vector))
    box = Box.from_center(np.asarray(anchor, dtype=np.float64).reshape(-1), delta)
    if delta == 0.0:
        # Point propagation: evaluate concretely, avoiding any relaxation.
        value = network.forward_from_to(
            perturbation_layer + 1, monitored_layer, box.center
        )
        return Box.from_point(value)
    return propagate_bounds(
        network,
        box,
        perturbation_layer,
        monitored_layer,
        method=method,
        star_lp_backend=star_lp_backend,
    )


def perturbation_bounds_batch(
    network: Sequential,
    inputs: np.ndarray,
    monitored_layer: int,
    perturbation_layer: int = 0,
    delta: float = 0.0,
    method: str = "box",
    anchors: "np.ndarray | None" = None,
    star_lp_backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Definition-1 perturbation estimates: one row per input.

    The anchor feature vectors at ``perturbation_layer`` are computed with a
    single batched forward pass (or taken from ``anchors``, e.g. an engine
    activation cache — this is what lets a sweep over ``delta`` values pay
    for the concrete pass once), a box of radius ``delta`` is placed around
    every row, and the whole batch of boxes is propagated soundly to
    ``monitored_layer``.  Returns ``(lows, highs)`` matrices of shape
    ``(N, d_k)``; with ``delta = 0`` both equal the concrete features.
    """
    _check_method(method)
    if delta < 0:
        raise ConfigurationError("perturbation bound delta must be non-negative")
    if not 0 <= perturbation_layer < monitored_layer:
        raise ConfigurationError(
            "perturbation layer must satisfy 0 <= k_p < k (monitored layer)"
        )
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if anchors is None:
        anchors = network.forward_to(perturbation_layer, inputs)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    if anchors.shape[0] != inputs.shape[0]:
        raise ConfigurationError(
            f"anchors have {anchors.shape[0]} rows for {inputs.shape[0]} inputs"
        )
    if delta == 0.0:
        # Point propagation: evaluate concretely, avoiding any relaxation.
        values = np.atleast_2d(
            network.forward_from_to(perturbation_layer + 1, monitored_layer, anchors)
        )
        return values, np.array(values, copy=True)
    return propagate_bounds_batch(
        network,
        anchors - delta,
        anchors + delta,
        perturbation_layer,
        monitored_layer,
        method=method,
        star_lp_backend=star_lp_backend,
    )


def propagation_backends() -> Dict[str, Callable]:
    """Return a mapping of back-end name to propagation callable."""
    return {
        "box": propagate_box,
        "zonotope": propagate_zonotope,
        "star": propagate_star,
    }
