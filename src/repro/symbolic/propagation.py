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

There is one layer walk, :func:`_walk`: a single layer-type dispatch over
the batched abstract states of :mod:`repro.symbolic.batched`
(:class:`~repro.symbolic.batched.BatchedBox`,
:class:`~repro.symbolic.batched.BatchedZonotope`,
:class:`~repro.symbolic.batched.BatchedStar`), which share its transformer
methods.  :func:`propagate_bounds_batch` / :func:`perturbation_bounds_batch`
push ``(N, d)`` bound/input matrices through it — what robust monitor
construction uses (:func:`repro.monitors.perturbation.collect_bound_arrays`).
The single-sample :func:`propagate_bounds` / :func:`perturbation_bounds` are
N=1 calls into the same walk.  The seed single-sample walk the batched one
is pinned against lives with the tests (``tests/oracles/symbolic.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import ConfigurationError, LayerIndexError, PropagationError
from ..nn.activations import ReLU
from ..nn.layers import ActivationLayer, Dense, Dropout, Flatten, Scale
from ..nn.network import Sequential
from .batched import BatchedBox, BatchedStar, BatchedZonotope
from .interval import Box
from .star_lp import resolve_star_lp_backend

__all__ = [
    "PROPAGATION_METHODS",
    "propagate_bounds",
    "propagate_bounds_batch",
    "perturbation_bounds",
    "perturbation_bounds_batch",
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


def _check_method(method: str) -> None:
    """Validate a back-end name with an actionable error message.

    Raises :class:`~repro.exceptions.ConfigurationError` (a ``ValueError``)
    listing the valid :data:`PROPAGATION_METHODS`, so a typo like
    ``"zontope"`` fails with the available choices instead of a bare lookup
    error deep inside the dispatch.
    """
    if method not in PROPAGATION_METHODS:
        valid = ", ".join(sorted(PROPAGATION_METHODS))
        raise ConfigurationError(
            f"unknown propagation method '{method}'; valid backends are: {valid}"
        )


def _walk(
    network: Sequential,
    method: str,
    box: BatchedBox,
    from_layer: int,
    to_layer: int,
    star_lp_backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds at ``to_layer`` of ``box`` walked through layers ``from_layer+1..``.

    The walk owns its abstract state, so each layer's input state is freed
    as soon as the layer has transformed it (the input-layer zonotope or
    star basis is the largest one on a wide input).
    """
    if method == "box":
        state = box
    elif method == "zonotope":
        state = BatchedZonotope.from_batched_box(box)
    else:
        state = BatchedStar.from_batched_box(box, star_lp_backend)
    for layer in network.layers[from_layer:to_layer]:
        if isinstance(layer, Dense):
            state = state.affine(layer.weights, layer.bias)
        elif isinstance(layer, ActivationLayer):
            if isinstance(layer.activation, ReLU):
                state = state.relu()
            else:
                state = state.elementwise_monotone(layer.activation.bound_transform)
        elif isinstance(layer, Scale):
            state = state.scale_shift(layer.scale, layer.shift)
        elif not isinstance(layer, (Dropout, Flatten)):
            # Dropout and Flatten are the identity at inference time.
            raise PropagationError(
                f"layer type {type(layer).__name__} has no propagation rule"
            )
    return state.bounds()


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
    back-end.  ``star_lp_backend`` is the star-LP back-end instance of the
    ``star`` method (ignored by the others); ``None`` uses the shared stacked
    tier.

    The zonotope walk runs in row chunks that keep one generator tensor
    under :data:`ZONOTOPE_CHUNK_ELEMENTS`.  Rows are independent, so
    chunking changes peak memory only.  The star walk issues one
    ``bounds_many`` call per activation layer plus one for the result.
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
    backend = resolve_star_lp_backend(star_lp_backend) if method == "star" else None
    batch = batched_box.batch_size
    rows = batch
    if method == "zonotope":
        rows = _zonotope_rows_per_chunk(network, from_layer, to_layer)
    if rows >= batch:
        return _walk(network, method, batched_box, from_layer, to_layer, backend)
    out_dim = network.layer_output_dim(to_layer)
    out_lows = np.empty((batch, out_dim))
    out_highs = np.empty((batch, out_dim))
    for start in range(0, batch, rows):
        chunk = slice(start, start + rows)
        box = BatchedBox._ordered(batched_box.lows[chunk], batched_box.highs[chunk])
        out_lows[chunk], out_highs[chunk] = _walk(
            network, method, box, from_layer, to_layer, backend
        )
    return out_lows, out_highs


def propagate_bounds(
    network: Sequential,
    box: Box,
    from_layer: int,
    to_layer: int,
    method: str = "box",
    star_lp_backend=None,
) -> Box:
    """Sound per-neuron bounds at ``to_layer`` for any point of ``box``.

    The N=1 case of :func:`propagate_bounds_batch`: returns the axis-aligned
    bounding box of the chosen abstraction, always a sound over-approximation
    regardless of the back-end.
    """
    lows, highs = propagate_bounds_batch(
        network,
        box.low[None, :],
        box.high[None, :],
        from_layer,
        to_layer,
        method=method,
        star_lp_backend=star_lp_backend,
    )
    return Box(lows[0], highs[0])


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

    The N=1 case of :func:`perturbation_bounds_batch`: the feature vector at
    ``perturbation_layer`` is computed concretely, a box of radius ``delta``
    is placed around it, and the box is propagated soundly to
    ``monitored_layer``.  With ``delta = 0`` the result is the degenerate box
    containing exactly ``G^k(v)``.
    """
    lows, highs = perturbation_bounds_batch(
        network,
        np.asarray(input_vector, dtype=np.float64).reshape(1, -1),
        monitored_layer,
        perturbation_layer,
        delta,
        method,
        star_lp_backend=star_lp_backend,
    )
    return Box(lows[0], highs[0])


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
