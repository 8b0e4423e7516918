"""Saving and loading fitted monitors.

A deployed monitor must be constructed offline (the training data set is not
available in the vehicle) and shipped as an artefact next to the frozen
network.  This module serialises fitted monitors to a single ``.npz`` archive
holding a JSON header (monitor family, layer, thresholds/cut-points,
perturbation model) plus the abstraction state:

* min-max monitors store the ``(lower, upper)`` envelope;
* Boolean/interval pattern monitors store the *packed mirror* of their
  pattern set (format 2): the exact bit-packed rows, ternary
  value/mask bit-planes and per-position code ranges of
  :class:`~repro.runtime.matcher.PackedMatcher`.  This is a complete
  description of the stored set with no don't-care or Cartesian-product
  expansion, and on load it restores the vectorised scoring path directly —
  the canonical BDD is rebuilt lazily only if a BDD-dependent operation
  (model counting, Hamming relaxation) is actually used, so cold-starting a
  deployed monitor costs array I/O instead of a BDD build.

Archives written by earlier versions (format 1, an explicit word list
re-inserted on load) remain loadable; only format 2 is written.

The network itself is serialised separately (``repro.nn.serialization``); on
load the caller passes the network so that weights are never duplicated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..exceptions import NotFittedError, SerializationError
from ..nn.network import Sequential
from .base import ActivationMonitor
from .boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from .interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from .minmax import MinMaxMonitor, RobustMinMaxMonitor
from .perturbation import PerturbationSpec

__all__ = ["save_monitor", "load_monitor"]

_HEADER_KEY = "__monitor_json__"

_CLASS_NAMES = {
    "MinMaxMonitor": MinMaxMonitor,
    "RobustMinMaxMonitor": RobustMinMaxMonitor,
    "BooleanPatternMonitor": BooleanPatternMonitor,
    "RobustBooleanPatternMonitor": RobustBooleanPatternMonitor,
    "IntervalPatternMonitor": IntervalPatternMonitor,
    "RobustIntervalPatternMonitor": RobustIntervalPatternMonitor,
}


def _perturbation_to_dict(spec: PerturbationSpec) -> dict:
    return {"delta": spec.delta, "layer": spec.layer, "method": spec.method}


def _perturbation_from_dict(data: dict) -> PerturbationSpec:
    return PerturbationSpec(
        delta=float(data["delta"]), layer=int(data["layer"]), method=str(data["method"])
    )


#: Array names of the packed-mirror image (format 2 pattern monitors).
_PACKED_KEYS = {
    "exact": "packed_exact",
    "ternary_values": "packed_ternary_values",
    "ternary_masks": "packed_ternary_masks",
    "range_low": "packed_range_low",
    "range_high": "packed_range_high",
}


def _pattern_arrays(monitor, arrays: dict, header: dict) -> None:
    """Add the packed-mirror image of a fitted pattern monitor to ``arrays``."""
    state = monitor.patterns.packed_state()
    header["format"] = 2
    header["insertions"] = monitor.patterns.insertions
    for state_key, array_key in _PACKED_KEYS.items():
        arrays[array_key] = state[state_key]


def save_monitor(monitor: ActivationMonitor, path: Union[str, Path]) -> Path:
    """Serialise a fitted monitor to ``path`` (``.npz`` appended when missing).

    Pattern sets are stored as their packed-mirror image (format 2) for
    compact artefacts and lazy-BDD cold starts.
    """
    if not monitor.is_fitted:
        raise NotFittedError("only fitted monitors can be serialised")
    class_name = type(monitor).__name__
    if class_name not in _CLASS_NAMES:
        raise SerializationError(f"unsupported monitor class {class_name}")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz") if path.suffix else path.with_suffix(".npz")

    header = {
        "class": class_name,
        "layer_index": monitor.layer_index,
        "num_training_samples": monitor.num_training_samples,
    }
    arrays = {"neuron_indices": np.asarray(monitor.neuron_indices, dtype=np.int64)}

    if isinstance(monitor, MinMaxMonitor):
        arrays["lower"] = monitor.lower
        arrays["upper"] = monitor.upper
        header["enlargement"] = monitor.enlargement
    if isinstance(monitor, BooleanPatternMonitor):
        arrays["thresholds"] = monitor.thresholds
        _pattern_arrays(monitor, arrays, header)
        header["hamming_tolerance"] = monitor.hamming_tolerance
    if isinstance(monitor, IntervalPatternMonitor):
        arrays["cut_points"] = monitor.cut_points
        _pattern_arrays(monitor, arrays, header)
        header["num_cuts"] = monitor.num_cuts
        header["cut_strategy"] = monitor.cut_strategy
    if isinstance(
        monitor, (RobustMinMaxMonitor, RobustBooleanPatternMonitor, RobustIntervalPatternMonitor)
    ):
        header["perturbation"] = _perturbation_to_dict(monitor.perturbation)

    arrays[_HEADER_KEY] = np.array(json.dumps(header))
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        np.savez(path, **arrays)
    except OSError as exc:  # pragma: no cover - filesystem failure
        raise SerializationError(f"failed to write monitor to {path}: {exc}") from exc
    return path


def _restore_patterns(archive, header: dict, num_positions: int, bits_per_position: int):
    """Rebuild a monitor's pattern set from a loaded archive.

    Format-2 archives restore the packed mirror directly (the BDD is
    materialised lazily on first BDD-dependent use); format-1 archives
    re-insert the enumerated word list.
    """
    from ..bdd.patterns import PatternSet

    if int(header.get("format", 1)) == 2:
        state = {
            state_key: archive[array_key]
            for state_key, array_key in _PACKED_KEYS.items()
        }
        return PatternSet.from_packed_state(
            num_positions,
            bits_per_position,
            state,
            insertions=header.get("insertions"),
        )
    patterns = PatternSet(num_positions, bits_per_position=bits_per_position)
    words = archive["words"]
    if words.shape[0]:
        patterns.add_patterns(words)
    return patterns


def load_monitor(path: Union[str, Path], network: Sequential) -> ActivationMonitor:
    """Load a monitor saved by :func:`save_monitor`, re-attaching ``network``."""
    path = Path(path)
    if not path.exists():
        candidate = path.with_suffix(".npz")
        if candidate.exists():
            path = candidate
        else:
            raise SerializationError(f"monitor file not found: {path}")
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SerializationError(f"failed to read monitor from {path}: {exc}") from exc
    if _HEADER_KEY not in archive:
        raise SerializationError(f"{path} is not a serialised repro monitor")
    header = json.loads(str(archive[_HEADER_KEY]))
    class_name = header["class"]
    if class_name not in _CLASS_NAMES:
        raise SerializationError(f"unknown monitor class '{class_name}' in {path}")
    neuron_indices = archive["neuron_indices"]
    layer_index = int(header["layer_index"])

    monitor: ActivationMonitor
    if class_name == "MinMaxMonitor":
        monitor = MinMaxMonitor(
            network,
            layer_index,
            neuron_indices=neuron_indices,
            enlargement=float(header.get("enlargement", 0.0)),
        )
        monitor.lower = archive["lower"]
        monitor.upper = archive["upper"]
    elif class_name == "RobustMinMaxMonitor":
        monitor = RobustMinMaxMonitor(
            network,
            layer_index,
            _perturbation_from_dict(header["perturbation"]),
            neuron_indices=neuron_indices,
        )
        monitor.lower = archive["lower"]
        monitor.upper = archive["upper"]
    elif class_name in ("BooleanPatternMonitor", "RobustBooleanPatternMonitor"):
        if class_name == "BooleanPatternMonitor":
            monitor = BooleanPatternMonitor(
                network,
                layer_index,
                thresholds=archive["thresholds"],
                neuron_indices=neuron_indices,
                hamming_tolerance=int(header.get("hamming_tolerance", 0)),
            )
        else:
            monitor = RobustBooleanPatternMonitor(
                network,
                layer_index,
                _perturbation_from_dict(header["perturbation"]),
                thresholds=archive["thresholds"],
                neuron_indices=neuron_indices,
                hamming_tolerance=int(header.get("hamming_tolerance", 0)),
            )
        monitor.thresholds = archive["thresholds"]
        monitor.patterns = _restore_patterns(
            archive, header, len(neuron_indices), bits_per_position=1
        )
    else:  # interval families
        cut_points = archive["cut_points"]
        if class_name == "IntervalPatternMonitor":
            monitor = IntervalPatternMonitor(
                network,
                layer_index,
                num_cuts=int(header["num_cuts"]),
                cut_strategy=str(header.get("cut_strategy", "percentile")),
                cut_points=cut_points,
                neuron_indices=neuron_indices,
            )
        else:
            monitor = RobustIntervalPatternMonitor(
                network,
                layer_index,
                _perturbation_from_dict(header["perturbation"]),
                num_cuts=int(header["num_cuts"]),
                cut_strategy=str(header.get("cut_strategy", "percentile")),
                cut_points=cut_points,
                neuron_indices=neuron_indices,
            )
        monitor.cut_points = cut_points
        monitor.patterns = _restore_patterns(
            archive, header, len(neuron_indices), bits_per_position=monitor.bits_per_neuron
        )

    monitor._fitted = True
    monitor._num_training_samples = int(header.get("num_training_samples", 0))
    return monitor
