"""Input-space perturbation samplers.

Lemma 1 guarantees that the robust monitor never warns on an input whose
layer-``k_p`` representation is within ``Δ`` of a training point.  The
empirical counterpart — and the property-based tests — need to *sample*
perturbed versions of training inputs; this module provides the samplers
(uniform-in-box, worst-case corners, Gaussian clipped to the budget).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import DataError

__all__ = [
    "uniform_perturbations",
    "corner_perturbations",
    "gaussian_perturbations",
    "perturb_dataset_inputs",
]


def uniform_perturbations(
    vector: np.ndarray,
    delta: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
    clip_range: Optional[tuple] = None,
) -> np.ndarray:
    """Sample ``count`` perturbations uniformly from the ∞-ball of radius Δ."""
    if delta < 0:
        raise DataError("delta must be non-negative")
    if count <= 0:
        raise DataError("count must be positive")
    if rng is None:
        rng = np.random.default_rng()
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    noise = rng.uniform(-delta, delta, size=(count, vector.shape[0]))
    perturbed = vector[None, :] + noise
    if clip_range is not None:
        perturbed = np.clip(perturbed, clip_range[0], clip_range[1])
    return perturbed


def corner_perturbations(
    vector: np.ndarray,
    delta: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample perturbations at corners of the Δ-box (each coordinate ±Δ).

    Corner perturbations maximise the per-dimension displacement and are the
    hardest cases for the non-robust monitor, so they make the false-positive
    contrast between standard and robust monitors most visible.
    """
    if delta < 0:
        raise DataError("delta must be non-negative")
    if count <= 0:
        raise DataError("count must be positive")
    if rng is None:
        rng = np.random.default_rng()
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    signs = rng.choice([-1.0, 1.0], size=(count, vector.shape[0]))
    return vector[None, :] + delta * signs


def gaussian_perturbations(
    vector: np.ndarray,
    delta: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Gaussian noise truncated to the Δ-box (a softer aleatory model)."""
    if delta < 0:
        raise DataError("delta must be non-negative")
    if count <= 0:
        raise DataError("count must be positive")
    if rng is None:
        rng = np.random.default_rng()
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    noise = rng.normal(0.0, delta / 2.0 if delta > 0 else 0.0, size=(count, vector.shape[0]))
    noise = np.clip(noise, -delta, delta)
    return vector[None, :] + noise


def perturb_dataset_inputs(
    inputs: np.ndarray,
    delta: float,
    rng: Optional[np.random.Generator] = None,
    kind: str = "uniform",
) -> np.ndarray:
    """Return one perturbed copy of every row of ``inputs``."""
    if rng is None:
        rng = np.random.default_rng()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    samplers = {
        "uniform": uniform_perturbations,
        "corner": corner_perturbations,
        "gaussian": gaussian_perturbations,
    }
    if kind not in samplers:
        raise DataError(f"unknown perturbation kind '{kind}'")
    sampler = samplers[kind]
    return np.vstack([sampler(row, delta, 1, rng=rng) for row in inputs])
