"""Perturbation specification and the perturbation estimate of Definition 1.

A :class:`PerturbationSpec` bundles the three ingredients of the paper's
robust construction:

* ``delta`` — the per-dimension perturbation budget ``Δ``;
* ``layer`` — the layer ``k_p`` at whose *output* the perturbation is applied
  (``0`` means the raw input, i.e. pixel-level perturbation);
* ``method`` — the sound bound-propagation back-end (``"box"``,
  ``"zonotope"`` or ``"star"``).

:func:`collect_bound_arrays` computes ``pe^G_k(v, k_p, Δ)`` for every row of
a data set through the one batched layer walk
(:func:`repro.symbolic.propagation.perturbation_bounds_batch`) — one
propagation for the whole set.  This is the inner loop of every robust
monitor's ``fit``.  :func:`perturbation_estimate` is the single-input form,
an N=1 call into the same walk.  The original one-row-at-a-time path, the
reference for equivalence tests and benchmarks, lives in
``tests/oracles/symbolic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.network import Sequential
from ..symbolic.interval import Box
from ..symbolic.propagation import (
    PROPAGATION_METHODS,
    perturbation_bounds,
    perturbation_bounds_batch,
)

__all__ = ["PerturbationSpec", "perturbation_estimate", "collect_bound_arrays"]


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation model ``(Δ, k_p, back-end)`` used by robust monitors."""

    delta: float = 0.0
    layer: int = 0
    method: str = "box"

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ConfigurationError("perturbation delta must be non-negative")
        if self.layer < 0:
            raise ConfigurationError("perturbation layer k_p must be non-negative")
        if self.method not in PROPAGATION_METHODS:
            raise ConfigurationError(
                f"unknown propagation method '{self.method}'; choose one of "
                f"{PROPAGATION_METHODS}"
            )

    @property
    def is_trivial(self) -> bool:
        """True when ``Δ = 0`` so the estimate degenerates to a point."""
        return self.delta == 0.0

    @property
    def cache_key(self) -> Tuple[float, int, str]:
        """Hashable identity of the perturbation model (for bound caches)."""
        return (self.delta, self.layer, self.method)

    def describe(self) -> str:
        return f"Δ={self.delta}, k_p={self.layer}, method={self.method}"


def perturbation_estimate(
    network: Sequential,
    input_vector: np.ndarray,
    monitored_layer: int,
    spec: PerturbationSpec,
) -> Box:
    """Compute ``pe^G_k(v, k_p, Δ)`` as a :class:`~repro.symbolic.interval.Box`.

    The returned box is a sound per-neuron enclosure of the monitored-layer
    feature vector of every input whose layer-``k_p`` representation is within
    ``Δ`` (infinity norm) of that of ``input_vector``.
    """
    if spec.layer >= monitored_layer:
        raise ConfigurationError(
            f"perturbation layer k_p={spec.layer} must be strictly before the "
            f"monitored layer k={monitored_layer}"
        )
    return perturbation_bounds(
        network,
        input_vector,
        monitored_layer=monitored_layer,
        perturbation_layer=spec.layer,
        delta=spec.delta,
        method=spec.method,
    )


def collect_bound_arrays(
    network: Sequential,
    inputs: np.ndarray,
    monitored_layer: int,
    spec: PerturbationSpec,
    anchors: "np.ndarray | None" = None,
    star_lp_backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack every row's perturbation estimate into ``(N, d_k)`` bound matrices.

    This is the batch-friendly form the vectorised robust monitors consume:
    row ``i`` of the returned ``(lows, highs)`` pair is ``pe^G_k`` of input
    ``i``.  The whole batch goes through one symbolic propagation — the box
    and zonotope back-ends perform no per-sample Python loop; the star
    back-end advances all rows' stars in lockstep and answers each layer's
    bound queries through the star-LP back-end (:mod:`repro.symbolic.star_lp`;
    ``star_lp_backend`` substitutes an instance).
    A trivial spec (``Δ = 0``) degenerates to one batched forward pass with
    ``lows == highs``.

    ``anchors`` optionally supplies precomputed layer-``k_p`` activations of
    ``inputs`` (e.g. from a
    :class:`~repro.runtime.engine.ActivationCache`), skipping the concrete
    anchor pass — that is how a sweep over ``Δ`` values pays for the forward
    pass once.
    """
    if spec.layer >= monitored_layer:
        raise ConfigurationError(
            f"perturbation layer k_p={spec.layer} must be strictly before the "
            f"monitored layer k={monitored_layer}"
        )
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if spec.is_trivial:
        if anchors is not None:
            features = np.atleast_2d(
                network.forward_from_to(
                    spec.layer + 1, monitored_layer, np.asarray(anchors)
                )
            )
        else:
            features = np.atleast_2d(network.forward_to(monitored_layer, inputs))
        # Distinct arrays: callers that adjust one bound in place must not
        # silently drag the other (or a cached entry) along with it.
        return features, np.array(features, copy=True)
    return perturbation_bounds_batch(
        network,
        inputs,
        monitored_layer=monitored_layer,
        perturbation_layer=spec.layer,
        delta=spec.delta,
        method=spec.method,
        anchors=anchors,
        star_lp_backend=star_lp_backend,
    )
