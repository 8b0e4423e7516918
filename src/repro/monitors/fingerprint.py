"""Stable content fingerprints of fitted monitors.

A lifecycle deployment needs to *name* the exact abstraction a monitor
serves — "which version produced this verdict?" — across save/load
round-trips and insertion-order differences.
:func:`monitor_fingerprint` digests the monitor's canonicalised state
(family, layer, neuron selection, codec parameters and the abstraction
content itself) into a short hex string with these properties:

* equal for a monitor and its ``save_monitor``/``load_monitor`` round-trip
  (the packed mirror is the canonical content, and exporting it never
  materialises a lazily restored BDD — fingerprinting a cold-started
  deployment artefact stays cheap);
* equal for pattern sets holding the same entries in a different insertion
  order (rows are lexicographically sorted before hashing);
* different whenever the served verdict function differs (envelope bounds,
  thresholds/cut points, stored patterns, perturbation model).

The fingerprint is what :class:`~repro.monitors.registry.MonitorRegistry`
reports per entry and what the artefact store records per version, so STATS
frames and store manifests attribute verdicts to one identifiable monitor
state.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["monitor_fingerprint"]


def _sorted_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows of a 2-D array in lexicographic order (duplicates preserved)."""
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.shape[0] < 2:
        return matrix
    order = np.lexsort(matrix.T[::-1])
    return matrix[order]


def _update_array(hasher, label: str, array) -> None:
    array = np.ascontiguousarray(np.asarray(array))
    hasher.update(label.encode())
    hasher.update(str(array.dtype.str).encode())
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())


def _update_patterns(hasher, patterns) -> None:
    state = patterns.packed_state()
    _update_array(hasher, "exact", _sorted_rows(state["exact"]))
    # Ternary rows and ranges are insertion-ordered in the mirror; sort the
    # value/mask (and low/high) planes as paired rows so two sets holding
    # the same entries in a different order fingerprint identically.
    ternary = np.hstack(
        [
            np.atleast_2d(state["ternary_values"]),
            np.atleast_2d(state["ternary_masks"]),
        ]
    )
    _update_array(hasher, "ternary", _sorted_rows(ternary))
    ranges = np.hstack(
        [np.atleast_2d(state["range_low"]), np.atleast_2d(state["range_high"])]
    )
    _update_array(hasher, "ranges", _sorted_rows(ranges))


def monitor_fingerprint(monitor) -> str:
    """Stable hex fingerprint of a fitted monitor's served state.

    Works for every serialisable monitor family (min-max envelopes and
    Boolean/interval pattern monitors, standard and robust) and degrades
    gracefully for foreign scoreables: anything without recognised state
    hashes over its class name and ``describe()`` output.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(type(monitor).__name__.encode())
    layer_index = getattr(monitor, "layer_index", None)
    if layer_index is not None:
        hasher.update(f"layer={int(layer_index)}".encode())
    neuron_indices = getattr(monitor, "neuron_indices", None)
    if neuron_indices is not None:
        _update_array(hasher, "neurons", np.asarray(neuron_indices, dtype=np.int64))
    perturbation = getattr(monitor, "perturbation", None)
    if perturbation is not None:
        hasher.update(
            f"perturbation={perturbation.delta}:{perturbation.layer}:"
            f"{perturbation.method}".encode()
        )

    recognised = False
    lower = getattr(monitor, "lower", None)
    upper = getattr(monitor, "upper", None)
    if lower is not None and upper is not None:
        _update_array(hasher, "lower", lower)
        _update_array(hasher, "upper", upper)
        recognised = True
    thresholds = getattr(monitor, "thresholds", None)
    if thresholds is not None and not isinstance(thresholds, str):
        _update_array(hasher, "thresholds", thresholds)
        recognised = True
    cut_points = getattr(monitor, "cut_points", None)
    if cut_points is not None:
        _update_array(hasher, "cut_points", cut_points)
        recognised = True
    hamming = getattr(monitor, "hamming_tolerance", None)
    if hamming is not None:
        hasher.update(f"hamming={int(hamming)}".encode())
    patterns = getattr(monitor, "patterns", None)
    if patterns is not None and hasattr(patterns, "packed_state"):
        _update_patterns(hasher, patterns)
        recognised = True
    if not recognised:
        describe = getattr(monitor, "describe", None)
        if callable(describe):
            hasher.update(repr(sorted(describe().items())).encode())
    return hasher.hexdigest()
