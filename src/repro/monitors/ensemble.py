"""Combining several monitors into one decision.

The paper notes that extending the simplistic single-layer setup to
multi-layer monitoring is straightforward; :class:`MonitorEnsemble` provides
that extension.  Member monitors (typically the same family applied to
different layers, or different families on the same layer) are fitted
together and their warnings combined with a configurable voting rule:

* ``"any"`` — warn when at least one member warns (highest detection rate);
* ``"all"`` — warn only when every member warns (lowest false-positive rate);
* ``"majority"`` — warn when more than half of the members warn;
* an integer ``k`` — warn when at least ``k`` members warn.

Batch scoring shares forward passes: members fitted on the same network are
fed from one :class:`~repro.runtime.engine.BatchScoringEngine` activation
cache, so an ensemble over ``m`` layers of one network costs one forward
pass per batch instead of ``m``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..runtime.engine import BatchScoringEngine
from .base import ActivationMonitor, MonitorVerdict

__all__ = ["MonitorEnsemble"]


class MonitorEnsemble:
    """Combine the verdicts of several fitted or unfitted monitors."""

    def __init__(
        self,
        monitors: Sequence[ActivationMonitor],
        vote: Union[str, int] = "any",
    ) -> None:
        if not monitors:
            raise ConfigurationError("an ensemble needs at least one monitor")
        self.monitors: List[ActivationMonitor] = list(monitors)
        self.vote = vote
        self._threshold = self._resolve_threshold(vote, len(self.monitors))
        self._engines: Dict[int, BatchScoringEngine] = {}

    @staticmethod
    def _resolve_threshold(vote: Union[str, int], count: int) -> int:
        if isinstance(vote, int):
            if not 1 <= vote <= count:
                raise ConfigurationError(
                    f"vote threshold {vote} outside [1, {count}]"
                )
            return vote
        if vote == "any":
            return 1
        if vote == "all":
            return count
        if vote == "majority":
            return count // 2 + 1
        raise ConfigurationError(
            f"unknown vote rule '{vote}'; use 'any', 'all', 'majority' or an integer"
        )

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return all(monitor.is_fitted for monitor in self.monitors)

    def fit(self, training_inputs: np.ndarray) -> "MonitorEnsemble":
        """Fit every member monitor on the same training data.

        Unbound members sharing a network are bound to the ensemble's
        per-network engine for the duration of the fit, so their fits share
        forward passes and — for robust members with the same perturbation
        model — one symbolic propagation of the training set instead of one
        per member.  The temporary bindings are detached afterwards (keeping
        members' per-frame scoring engine-free); members the caller already
        bound to an engine keep that binding and its caches.
        """
        ensemble_bound = []
        try:
            for monitor in self.monitors:
                if getattr(monitor, "_engine", None) is None and hasattr(
                    monitor, "bind_engine"
                ):
                    engine = self._engine_for(monitor)
                    if engine is not None:
                        monitor.bind_engine(engine)
                        ensemble_bound.append(monitor)
                monitor.fit(training_inputs)
        finally:
            for monitor in ensemble_bound:
                monitor.bind_engine(None)
            # Fit-time scratch (training-set activations and bound matrices)
            # is not needed for scoring; drop it instead of letting it age
            # out of the LRU while eval batches come in.
            for engine in self._engines.values():
                engine.cache.clear()
        return self

    # ------------------------------------------------------------------
    def _engine_for(self, monitor: ActivationMonitor) -> Optional[BatchScoringEngine]:
        network = getattr(monitor, "network", None)
        if network is None or not hasattr(monitor, "warn_batch_from_layer"):
            return None
        key = id(network)
        engine = self._engines.get(key)
        if engine is None:
            engine = BatchScoringEngine(network)
            self._engines[key] = engine
        return engine

    def _member_warn_matrix(self, inputs: np.ndarray) -> np.ndarray:
        """``(num_members, N)`` warning matrix with shared forward passes."""
        rows = []
        for monitor in self.monitors:
            engine = self._engine_for(monitor)
            if engine is not None:
                activations = engine.layer_features(inputs, monitor.layer_index)
                rows.append(monitor.warn_batch_from_layer(activations))
            else:
                rows.append(np.asarray(monitor.warn_batch(inputs), dtype=bool))
        return np.vstack(rows) if rows else np.zeros((0, inputs.shape[0]), dtype=bool)

    def warn_batch(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        member_warnings = self._member_warn_matrix(inputs)
        votes = member_warnings.sum(axis=0)
        return votes >= self._threshold

    def verdict_batch(self, inputs: np.ndarray) -> List[MonitorVerdict]:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        member_warnings = self._member_warn_matrix(inputs)
        votes = member_warnings.sum(axis=0)
        return [
            MonitorVerdict(
                warn=bool(row_votes >= self._threshold),
                details={
                    "votes": int(row_votes),
                    "threshold": self._threshold,
                    "member_warnings": tuple(bool(w) for w in member_warnings[:, index]),
                },
            )
            for index, row_votes in enumerate(votes)
        ]

    def verdict(self, input_vector: np.ndarray) -> MonitorVerdict:
        return self.verdict_batch(
            np.atleast_2d(np.asarray(input_vector, dtype=np.float64))
        )[0]

    def warn(self, input_vector: np.ndarray) -> bool:
        return bool(self.verdict(input_vector).warn)

    def warning_rate(self, inputs: np.ndarray) -> float:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape[0] == 0:
            raise ShapeError("warning_rate needs at least one input")
        return float(np.mean(self.warn_batch(inputs)))

    def describe(self) -> Dict[str, object]:
        return {
            "vote": self.vote,
            "threshold": self._threshold,
            "members": [monitor.describe() for monitor in self.monitors],
        }

    def __len__(self) -> int:
        return len(self.monitors)
