"""Common interface of all activation-pattern monitors.

Every monitor observes the activation vector of a single network layer
(optionally restricted to a subset of neurons), is fitted on the training
data set and afterwards answers, for any operational input, whether the
observed activation pattern lies outside the abstraction built from the
training data (``warn = True``) or inside it (``warn = False``).

The class hierarchy mirrors the paper:

* :class:`ActivationMonitor` — shared plumbing (layer selection, feature
  extraction, batched warnings, evaluation helpers);
* concrete standard monitors (min-max, Boolean pattern, interval pattern)
  fitted directly on feature vectors;
* robust variants fitted on the perturbation estimates of Definition 1,
  configured through a :class:`~repro.monitors.perturbation.PerturbationSpec`.

Batched API contract
--------------------
The batch path is authoritative: subclasses implement
``_verdicts_from_features`` (and optionally a faster ``_warn_from_features``)
over a 2-D feature matrix, and the single-sample ``verdict`` / ``warn``
wrappers delegate to it with a one-row batch.  Feature extraction is one
vectorised forward pass per batch; because BLAS kernels may differ in the
last float across batch sizes, comparisons against learned constants use
small scale-relative tolerances (see :mod:`repro.runtime.codec`) so batch
and single-sample verdicts agree on any workload.
``warn_batch_from_layer`` / ``verdict_batch_from_layer`` accept precomputed
full-layer activations, which is how the
:class:`~repro.runtime.engine.BatchScoringEngine` shares one forward pass
across every monitor fitted on the same network.

A monitor may additionally be *bound* to an engine (:meth:`bind_engine`):
feature extraction then goes through the engine's activation cache, and
robust fits pull their perturbation-estimate matrices from the engine's
bound cache — so several robust monitor families sharing one perturbation
model and training set pay for a single symbolic propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError, ShapeError
from ..nn.network import Sequential
from .perturbation import PerturbationSpec, collect_bound_arrays

__all__ = ["MonitorVerdict", "ActivationMonitor"]


@dataclass
class MonitorVerdict:
    """Detailed outcome of a monitor query for a single input.

    ``warn`` is the paper's ``M(v_op) = true``; ``violations`` lists the
    indices of monitored neurons whose value fell outside the abstraction
    (empty for pattern monitors that only give a set-membership answer), and
    ``details`` carries monitor-specific diagnostic values.
    """

    warn: bool
    violations: Sequence[int] = field(default_factory=tuple)
    details: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.warn


class ActivationMonitor:
    """Base class for monitors over a single monitored layer.

    Parameters
    ----------
    network:
        The trained, frozen network ``G``.
    layer_index:
        The monitored layer ``k`` (1-based, as in the paper).
    neuron_indices:
        Optional subset of neuron indices of layer ``k`` to monitor; ``None``
        monitors every neuron in the layer.
    """

    #: Human-readable monitor family name, overridden by subclasses.
    kind = "activation"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        neuron_indices: Optional[Sequence[int]] = None,
    ) -> None:
        if not 1 <= layer_index <= network.num_layers:
            raise ConfigurationError(
                f"monitored layer {layer_index} outside the network's "
                f"[1, {network.num_layers}] range"
            )
        self.network = network
        self.layer_index = int(layer_index)
        layer_width = network.layer_output_dim(self.layer_index)
        if neuron_indices is None:
            self.neuron_indices = np.arange(layer_width)
        else:
            indices = np.asarray(sorted(set(int(i) for i in neuron_indices)), dtype=np.int64)
            if indices.size == 0:
                raise ConfigurationError("neuron_indices must not be empty")
            if indices.min() < 0 or indices.max() >= layer_width:
                raise ConfigurationError(
                    f"neuron indices must lie in [0, {layer_width})"
                )
            self.neuron_indices = indices
        # Column selector of the monitored neurons: a slice (a view, no
        # copy) when they are one contiguous run, else the index array.
        first, last = int(self.neuron_indices[0]), int(self.neuron_indices[-1])
        if last - first + 1 == self.neuron_indices.shape[0]:
            self._columns = slice(first, last + 1)
        else:
            self._columns = self.neuron_indices
        self._fitted = False
        self._num_training_samples = 0
        self._engine = None

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    @property
    def num_monitored_neurons(self) -> int:
        return int(self.neuron_indices.shape[0])

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def num_training_samples(self) -> int:
        """Number of training samples the abstraction was built from."""
        return self._num_training_samples

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                f"{self.__class__.__name__} must be fitted before use"
            )

    def bind_engine(self, engine) -> "ActivationMonitor":
        """Attach a :class:`~repro.runtime.engine.BatchScoringEngine`.

        A bound monitor routes feature extraction and (for robust variants)
        perturbation-estimate computation through the engine's caches, so
        every monitor bound to the same engine shares forward passes and
        symbolic propagations.  The engine must wrap this monitor's network;
        pass ``None`` to detach.  Returns ``self`` for chaining.

        Binding is meant for *batch* work — fitting and bulk evaluation.
        Keep per-frame deployment scoring unbound: a one-row ``warn`` through
        the cache pays fingerprinting plus an all-layers forward pass and
        churns the LRU for no reuse.  The builder/ensemble/class-conditional
        helpers therefore bind only for the duration of ``fit`` and detach
        before returning.
        """
        if engine is not None and getattr(engine, "network", None) is not self.network:
            raise ConfigurationError(
                "bind_engine needs an engine built on this monitor's network"
            )
        self._engine = engine
        return self

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """Monitored-layer feature vectors of ``inputs`` (always 2-D).

        One vectorised forward pass for the whole batch — the runtime hot
        path.  Fit and scoring both go through here, so abstractions and
        queries see the same arithmetic for identical batches.  Monitors
        bound to an engine read the pass from its activation cache (the same
        sequential layer walk, so results are identical).
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape[0] == 0:
            return np.zeros((0, self.num_monitored_neurons))
        if self._engine is not None:
            features = self._engine.layer_features(inputs, self.layer_index)
        else:
            features = np.atleast_2d(self.network.forward_to(self.layer_index, inputs))
        return features[:, self.neuron_indices]

    def _perturbation_bound_arrays(
        self, inputs: np.ndarray, spec: PerturbationSpec
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Full-layer ``(lows, highs)`` perturbation estimates of ``inputs``.

        Robust fits call this instead of
        :func:`~repro.monitors.perturbation.collect_bound_arrays` directly so
        that engine-bound monitors share cached propagations (one per
        ``(training set, layer, spec)`` across all monitor families).
        """
        if self._engine is not None:
            return self._engine.bound_arrays(inputs, self.layer_index, spec)
        return collect_bound_arrays(self.network, inputs, self.layer_index, spec)

    def features_from_layer(self, layer_activations: np.ndarray) -> np.ndarray:
        """Monitored-neuron slice of precomputed full-layer activations.

        A contiguous neuron run comes back as a view of
        ``layer_activations`` (e.g. a cached engine entry), so callers must
        not write into it.
        """
        layer_activations = np.atleast_2d(np.asarray(layer_activations, dtype=np.float64))
        expected = self.network.layer_output_dim(self.layer_index)
        if layer_activations.shape[1] != expected:
            raise ShapeError(
                f"layer activations have width {layer_activations.shape[1]}, "
                f"expected {expected}"
            )
        return layer_activations[:, self._columns]

    # ------------------------------------------------------------------
    # API to be implemented by subclasses
    # ------------------------------------------------------------------
    def fit(self, training_inputs: np.ndarray) -> "ActivationMonitor":
        """Build the abstraction from the training data set ``D_tr``."""
        raise NotImplementedError

    def _verdicts_from_features(self, features: np.ndarray) -> List[MonitorVerdict]:
        """Family-specific batched kernel: one verdict per feature row."""
        raise NotImplementedError

    def _warn_from_features(self, features: np.ndarray) -> np.ndarray:
        """Warning flags per feature row; subclasses may vectorise further."""
        verdicts = self._verdicts_from_features(features)
        return np.fromiter((v.warn for v in verdicts), dtype=bool, count=len(verdicts))

    # ------------------------------------------------------------------
    # batched scoring API
    # ------------------------------------------------------------------
    def verdict_batch(self, inputs: np.ndarray) -> List[MonitorVerdict]:
        """Full verdicts for every row of ``inputs`` in one batched pass."""
        self._require_fitted()
        return self._verdicts_from_features(self.features(inputs))

    def warn_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Vector of warning flags for every row of ``inputs``."""
        self._require_fitted()
        return self._warn_from_features(self.features(inputs))

    def verdict_batch_from_layer(self, layer_activations: np.ndarray) -> List[MonitorVerdict]:
        """Batched verdicts from precomputed full-layer activations."""
        self._require_fitted()
        return self._verdicts_from_features(self.features_from_layer(layer_activations))

    def warn_batch_from_layer(self, layer_activations: np.ndarray) -> np.ndarray:
        """Batched warning flags from precomputed full-layer activations."""
        self._require_fitted()
        return self._warn_from_features(self.features_from_layer(layer_activations))

    # ------------------------------------------------------------------
    # single-sample wrappers
    # ------------------------------------------------------------------
    def verdict(self, input_vector: np.ndarray) -> MonitorVerdict:
        """Full verdict (warning flag + diagnostics) for one input."""
        return self.verdict_batch(np.atleast_2d(np.asarray(input_vector, dtype=np.float64)))[0]

    def warn(self, input_vector: np.ndarray) -> bool:
        """The paper's ``M(v_op)``: True when the input looks out-of-ODD."""
        return bool(self.verdict(input_vector).warn)

    def warning_rate(self, inputs: np.ndarray) -> float:
        """Fraction of inputs that trigger a warning.

        On in-distribution data this is the false-positive rate; on
        out-of-ODD data it is the detection rate.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape[0] == 0:
            raise ShapeError("warning_rate needs at least one input")
        return float(np.mean(self.warn_batch(inputs)))

    def describe(self) -> Dict[str, object]:
        """Human-readable summary of the monitor configuration and state."""
        return {
            "kind": self.kind,
            "layer_index": self.layer_index,
            "num_monitored_neurons": self.num_monitored_neurons,
            "fitted": self._fitted,
            "num_training_samples": self._num_training_samples,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.__class__.__name__}(layer={self.layer_index}, "
            f"neurons={self.num_monitored_neurons}, fitted={self._fitted})"
        )
