"""High-level monitor construction helpers.

:class:`MonitorBuilder` turns a declarative configuration (monitor family,
monitored layer, perturbation model, thresholds) into a fitted monitor, which
keeps the benchmark harness and examples free of per-family constructor
details.  :class:`ClassConditionalMonitor` builds one monitor per predicted
class of a classification network — the configuration used by the original
DATE'19 monitor on MNIST/GTSRB — and dispatches operational inputs to the
monitor of the class the network predicts.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError, ShapeError
from ..nn.network import Sequential
from .base import ActivationMonitor, MonitorVerdict
from .boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from .interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from .minmax import MinMaxMonitor, RobustMinMaxMonitor
from .perturbation import PerturbationSpec

__all__ = ["MonitorBuilder", "ClassConditionalMonitor", "MONITOR_FAMILIES"]

MONITOR_FAMILIES = ("minmax", "boolean", "interval")


class MonitorBuilder:
    """Declarative factory for standard and robust monitors.

    Parameters
    ----------
    family:
        One of ``"minmax"``, ``"boolean"`` or ``"interval"``.
    layer_index:
        The monitored layer ``k``.
    perturbation:
        ``None`` builds the standard monitor of the family; a
        :class:`PerturbationSpec` builds the robust variant.
    options:
        Family-specific keyword arguments forwarded to the monitor
        constructor (``thresholds``, ``num_cuts``, ``hamming_tolerance``,
        ``enlargement``, ``neuron_indices``, ...).
    """

    def __init__(
        self,
        family: str,
        layer_index: int,
        perturbation: Optional[PerturbationSpec] = None,
        **options,
    ) -> None:
        if family not in MONITOR_FAMILIES:
            raise ConfigurationError(
                f"unknown monitor family '{family}'; choose one of {MONITOR_FAMILIES}"
            )
        self.family = family
        self.layer_index = int(layer_index)
        self.perturbation = perturbation
        self.options = dict(options)

    @property
    def is_robust(self) -> bool:
        return self.perturbation is not None

    def build(self, network: Sequential, engine=None) -> ActivationMonitor:
        """Instantiate the (unfitted) monitor for ``network``.

        ``engine`` optionally binds a
        :class:`~repro.runtime.engine.BatchScoringEngine` so the monitor's
        fit and scoring share the engine's activation/bound caches with
        every other monitor bound to it.
        """
        monitor = self._instantiate(network)
        if engine is not None:
            monitor.bind_engine(engine)
        return monitor

    def _instantiate(self, network: Sequential) -> ActivationMonitor:
        options = dict(self.options)
        if self.family == "minmax":
            if self.is_robust:
                options.pop("enlargement", None)
                return RobustMinMaxMonitor(
                    network, self.layer_index, self.perturbation, **options
                )
            return MinMaxMonitor(network, self.layer_index, **options)
        if self.family == "boolean":
            if self.is_robust:
                return RobustBooleanPatternMonitor(
                    network, self.layer_index, self.perturbation, **options
                )
            return BooleanPatternMonitor(network, self.layer_index, **options)
        if self.is_robust:
            return RobustIntervalPatternMonitor(
                network, self.layer_index, self.perturbation, **options
            )
        return IntervalPatternMonitor(network, self.layer_index, **options)

    def build_and_fit(
        self, network: Sequential, training_inputs: np.ndarray, engine=None
    ) -> ActivationMonitor:
        """Instantiate the monitor and fit it on ``training_inputs``.

        A supplied ``engine`` is bound for the duration of the fit only (so
        concurrent fits share cached forward passes and symbolic
        propagations) and detached before returning: the fitted monitor's
        per-frame scoring path stays engine-free, and no fit-time cache is
        pinned by the monitor.  Call :meth:`build` and bind manually to keep
        a persistent binding.
        """
        monitor = self.build(network, engine=engine)
        try:
            monitor.fit(training_inputs)
        finally:
            if engine is not None:
                monitor.bind_engine(None)
        return monitor

    def describe(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "layer_index": self.layer_index,
            "robust": self.is_robust,
            "perturbation": self.perturbation.describe() if self.perturbation else None,
            "options": dict(self.options),
        }


class ClassConditionalMonitor:
    """One monitor per predicted class of a classification network.

    The abstraction of class ``c`` is built only from the training inputs the
    network assigns to class ``c``; at operation time the input is first
    classified and then checked against the monitor of the predicted class.
    This is strictly tighter than a single class-agnostic monitor and matches
    the per-class BDD construction of the original DATE'19 work.
    """

    def __init__(self, builder: MonitorBuilder, num_classes: int) -> None:
        if num_classes <= 1:
            raise ConfigurationError("class-conditional monitoring needs >= 2 classes")
        self.builder = builder
        self.num_classes = int(num_classes)
        self._monitors: Dict[int, ActivationMonitor] = {}
        self._network: Optional[Sequential] = None
        self._fallback_warn = True

    @property
    def is_fitted(self) -> bool:
        return self._network is not None

    def fit(
        self,
        network: Sequential,
        training_inputs: np.ndarray,
        labels: Optional[np.ndarray] = None,
        engine=None,
    ) -> "ClassConditionalMonitor":
        """Fit one monitor per class.

        ``labels`` defaults to the network's own predictions, matching the
        deployment situation where ground truth is unavailable; passing the
        true training labels is also supported.  Every per-class monitor is
        bound to one shared :class:`~repro.runtime.engine.BatchScoringEngine`
        (``engine``, or a fresh one when not given) so the per-class fits —
        including robust symbolic propagations — go through one set of
        caches.
        """
        training_inputs = np.atleast_2d(np.asarray(training_inputs, dtype=np.float64))
        if training_inputs.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        if labels is None:
            labels = network.predict_classes(training_inputs)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != training_inputs.shape[0]:
            raise ShapeError("labels and training inputs disagree on sample count")
        if engine is None:
            from ..runtime.engine import BatchScoringEngine

            engine = BatchScoringEngine(network, max_cache_entries=self.num_classes + 2)
        self._network = network
        self._monitors = {}
        for class_id in range(self.num_classes):
            members = training_inputs[labels == class_id]
            if members.shape[0] == 0:
                # No training data for this class: warn on any input routed here.
                continue
            self._monitors[class_id] = self.builder.build_and_fit(
                network, members, engine=engine
            )
        return self

    def _require_fitted(self) -> None:
        if self._network is None:
            raise NotFittedError("ClassConditionalMonitor must be fitted before use")

    def verdict(self, input_vector: np.ndarray) -> MonitorVerdict:
        self._require_fitted()
        predicted = int(self._network.predict_classes(np.atleast_2d(input_vector))[0])
        monitor = self._monitors.get(predicted)
        if monitor is None:
            return MonitorVerdict(
                warn=self._fallback_warn,
                details={"predicted_class": predicted, "reason": "class never seen"},
            )
        verdict = monitor.verdict(input_vector)
        verdict.details["predicted_class"] = predicted
        return verdict

    def warn(self, input_vector: np.ndarray) -> bool:
        return self.verdict(input_vector).warn

    def warn_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Batched dispatch: classify once, then score one batch per class.

        Inputs are grouped by predicted class so that each per-class monitor
        sees a single vectorised batch instead of one query per row; classes
        without a fitted monitor fall back to the configured warning default.
        """
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        predicted = np.asarray(self._network.predict_classes(inputs), dtype=np.int64)
        warnings = np.full(inputs.shape[0], self._fallback_warn, dtype=bool)
        for class_id in np.unique(predicted):
            monitor = self._monitors.get(int(class_id))
            if monitor is None:
                continue
            members = np.nonzero(predicted == class_id)[0]
            warnings[members] = monitor.warn_batch(inputs[members])
        return warnings

    def warning_rate(self, inputs: np.ndarray) -> float:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape[0] == 0:
            raise ShapeError("warning_rate needs at least one input")
        return float(np.mean(self.warn_batch(inputs)))

    def monitor_for_class(self, class_id: int) -> Optional[ActivationMonitor]:
        """Return the fitted monitor of ``class_id`` (None if never seen)."""
        self._require_fitted()
        return self._monitors.get(int(class_id))

    def describe(self) -> Dict[str, object]:
        return {
            "builder": self.builder.describe(),
            "num_classes": self.num_classes,
            "classes_with_monitors": sorted(self._monitors),
        }
