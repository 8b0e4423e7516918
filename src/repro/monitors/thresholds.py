"""Threshold (cut-point) selection strategies for pattern monitors.

Boolean on/off monitors need one constant ``c_j`` per monitored neuron;
interval (multi-bit) monitors need an increasing sequence of cut points
``c_j1 < c_j2 < ... `` per neuron.  The paper leaves the constants
"pre-defined" and mentions two natural choices — the sign of the neuron value
and the average of all visited values.  This module implements those and a
few additional strategies (percentiles, equal-width range splits, the
min/max-derived cuts that make the 2-bit monitor a strict generalisation of
the min-max monitor).

Every strategy consumes the matrix of visited activation values (rows =
training samples, columns = monitored neurons) and returns an array of cut
points with shape ``(num_neurons, num_cuts)`` where each row is strictly
increasing.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..exceptions import ConfigurationError, ShapeError

__all__ = [
    "zero_thresholds",
    "mean_thresholds",
    "median_thresholds",
    "percentile_thresholds",
    "equal_width_thresholds",
    "range_extension_thresholds",
    "get_threshold_strategy",
    "validate_cut_points",
]


def _validate_activations(activations: np.ndarray) -> np.ndarray:
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 2 or activations.shape[0] == 0:
        raise ShapeError(
            "activations must be a non-empty 2-D array of shape "
            "(num_samples, num_neurons)"
        )
    # Per-neuron reductions sum in an order set by the memory layout; one
    # column-major layout makes the cut points independent of whether the
    # caller passed a row-major view or a gathered copy of the columns.
    return np.asfortranarray(activations)


def validate_cut_points(cut_points: np.ndarray) -> np.ndarray:
    """Check that every row of ``cut_points`` is strictly increasing."""
    cut_points = np.asarray(cut_points, dtype=np.float64)
    if cut_points.ndim != 2:
        raise ShapeError("cut points must be a 2-D array (num_neurons, num_cuts)")
    if cut_points.shape[1] >= 2 and not np.all(np.diff(cut_points, axis=1) > 0):
        raise ConfigurationError("cut points must be strictly increasing per neuron")
    return cut_points


def _spread_ties(cut_points: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Break ties in cut-point rows so rows become strictly increasing.

    Data-driven strategies (percentiles of constant neurons, for instance)
    can produce repeated values; a tiny neuron-scale-relative jitter restores
    strict monotonicity without materially changing the abstraction.
    """
    num_cuts = cut_points.shape[1]
    if num_cuts < 2:
        return cut_points
    epsilon = np.maximum(scale, 1.0)[:, None] * 1e-9
    offsets = np.arange(num_cuts)[None, :] * epsilon
    adjusted = np.maximum.accumulate(cut_points, axis=1) + offsets
    return adjusted


def zero_thresholds(activations: np.ndarray, num_cuts: int = 1) -> np.ndarray:
    """Cut points at zero (the "sign of the neuron value" choice).

    With more than one cut the remaining cuts are spread across the visited
    value range so that all intervals remain meaningful.
    """
    activations = _validate_activations(activations)
    num_neurons = activations.shape[1]
    if num_cuts == 1:
        return np.zeros((num_neurons, 1))
    return equal_width_thresholds(activations, num_cuts)


def mean_thresholds(activations: np.ndarray, num_cuts: int = 1) -> np.ndarray:
    """Single cut at the mean of visited values; extra cuts at ±k·stddev."""
    activations = _validate_activations(activations)
    mean = activations.mean(axis=0)
    if num_cuts == 1:
        return mean[:, None]
    std = activations.std(axis=0)
    half = (num_cuts - 1) / 2.0
    offsets = np.linspace(-half, half, num_cuts)
    cuts = mean[:, None] + offsets[None, :] * np.maximum(std, 1e-9)[:, None]
    return _spread_ties(cuts, np.abs(mean) + std)


def median_thresholds(activations: np.ndarray, num_cuts: int = 1) -> np.ndarray:
    """Cut points at evenly spaced quantiles centred on the median."""
    return percentile_thresholds(activations, num_cuts)


def percentile_thresholds(activations: np.ndarray, num_cuts: int = 1) -> np.ndarray:
    """Cut points at evenly spaced percentiles of the visited values.

    ``num_cuts = 3`` gives the 25/50/75-percentile cuts, which balances the
    population of the four 2-bit codes.
    """
    activations = _validate_activations(activations)
    if num_cuts < 1:
        raise ConfigurationError("num_cuts must be at least 1")
    quantiles = np.linspace(0.0, 1.0, num_cuts + 2)[1:-1]
    cuts = np.quantile(activations, quantiles, axis=0).T
    scale = np.abs(activations).max(axis=0)
    return validate_cut_points(_spread_ties(cuts, scale))


def equal_width_thresholds(activations: np.ndarray, num_cuts: int = 1) -> np.ndarray:
    """Cut points splitting the visited range into equal-width intervals."""
    activations = _validate_activations(activations)
    if num_cuts < 1:
        raise ConfigurationError("num_cuts must be at least 1")
    low = activations.min(axis=0)
    high = activations.max(axis=0)
    fractions = np.linspace(0.0, 1.0, num_cuts + 2)[1:-1]
    cuts = low[:, None] + fractions[None, :] * (high - low)[:, None]
    scale = np.abs(activations).max(axis=0)
    return validate_cut_points(_spread_ties(cuts, scale))


def range_extension_thresholds(
    activations: np.ndarray, num_cuts: int = 3, margin: float = 0.0
) -> np.ndarray:
    """Min/max-derived cuts that make the 2-bit monitor generalise min-max.

    Following the paper's footnote, the top cut is the maximum visited value,
    the second cut is the minimum visited value and the remaining (lowest)
    cuts are pushed towards ``-inf`` (here: far below the visited range).
    A 2-bit monitor with these cuts flags exactly the values outside the
    visited ``[min, max]`` envelope.
    """
    activations = _validate_activations(activations)
    if num_cuts < 2:
        raise ConfigurationError("range extension needs at least 2 cuts")
    low = activations.min(axis=0)
    high = activations.max(axis=0)
    span = np.maximum(high - low, 1e-9)
    top = high + margin * span
    second = low - margin * span
    cuts = np.empty((activations.shape[1], num_cuts))
    cuts[:, -1] = top
    cuts[:, -2] = second
    for extra in range(num_cuts - 2):
        cuts[:, num_cuts - 3 - extra] = second - (extra + 1) * (span + 1.0) * 10.0
    return validate_cut_points(cuts)


_STRATEGIES: Dict[str, Callable[..., np.ndarray]] = {
    "zero": zero_thresholds,
    "sign": zero_thresholds,
    "mean": mean_thresholds,
    "median": median_thresholds,
    "percentile": percentile_thresholds,
    "equal_width": equal_width_thresholds,
    "range_extension": range_extension_thresholds,
}


def get_threshold_strategy(name: str) -> Callable[..., np.ndarray]:
    """Return a threshold strategy callable from its registry ``name``."""
    try:
        return _STRATEGIES[name]
    except KeyError as exc:
        known = ", ".join(sorted(_STRATEGIES))
        raise ConfigurationError(
            f"unknown threshold strategy '{name}'; known strategies: {known}"
        ) from exc
