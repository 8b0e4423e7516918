"""Quantitative (score-based) activation monitors.

The binary monitors of the paper answer "inside or outside the abstraction".
Follow-up work the paper cites (Lukina, Schilling, Henzinger — "Into the
unknown: active monitoring of neural networks", reference [11]) replaces the
binary decision by a *quantitative* one: how far is the observed activation
from the abstraction?  A score permits threshold tuning after deployment,
ROC-style evaluation, and graceful degradation policies (e.g. slow down at a
medium score, hand over at a high score).

Two scores are provided, one per abstraction family:

* :class:`EnvelopeDistanceMonitor` — scaled distance of the feature vector to
  the (standard or robust) min-max envelope: 0 inside, grows with the largest
  per-neuron violation measured in units of the neuron's envelope width;
* :class:`PatternDistanceMonitor` — Hamming distance (in monitored positions)
  between the observed activation word and the nearest word stored in the
  pattern monitor's set, normalised by the word length.

Both wrap an existing fitted monitor, so robust variants are obtained simply
by wrapping the robust monitor.  Batch scoring is vectorised: one shared
forward pass per batch, and for pattern distances the distance-0 case (the
overwhelmingly common one on in-ODD traffic) is answered by the pattern
set's membership mirror, and the misses by one minimum-distance pass over
the same mirror.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from .base import MonitorVerdict
from .boolean import BooleanPatternMonitor
from .interval import IntervalPatternMonitor
from .minmax import MinMaxMonitor

__all__ = ["EnvelopeDistanceMonitor", "PatternDistanceMonitor"]


class EnvelopeDistanceMonitor:
    """Quantitative wrapper around a (robust) min-max monitor.

    The score of an input is the maximum over neurons of the distance of the
    neuron value to the envelope ``[L_j, U_j]``, normalised by the envelope
    width of that neuron (so a score of 1.0 means "one envelope-width outside
    the visited range").  ``warn`` compares the score against a threshold.
    """

    def __init__(self, monitor: MinMaxMonitor, threshold: float = 0.0) -> None:
        if not isinstance(monitor, MinMaxMonitor):
            raise ConfigurationError(
                "EnvelopeDistanceMonitor wraps a MinMaxMonitor (or robust subclass)"
            )
        if threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        self.monitor = monitor
        self.threshold = float(threshold)

    def _require_fitted(self) -> None:
        if not self.monitor.is_fitted:
            raise NotFittedError("the wrapped min-max monitor has not been fitted")

    def _scores_from_features(self, features: np.ndarray) -> np.ndarray:
        width = np.maximum(self.monitor.upper - self.monitor.lower, 1e-12)
        below = (self.monitor.lower[None, :] - features) / width[None, :]
        above = (features - self.monitor.upper[None, :]) / width[None, :]
        distance = np.maximum(np.maximum(below, above), 0.0)
        return distance.max(axis=1, initial=0.0)

    def score_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Normalised envelope distances of a whole batch in one pass."""
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        return self._scores_from_features(self.monitor.features(inputs))

    def score(self, input_vector: np.ndarray) -> float:
        """Normalised distance of the feature vector to the envelope (0 = inside)."""
        return float(self.score_batch(np.atleast_2d(np.asarray(input_vector, dtype=np.float64)))[0])

    def verdict(self, input_vector: np.ndarray) -> MonitorVerdict:
        value = self.score(input_vector)
        return MonitorVerdict(
            warn=value > self.threshold,
            details={"score": value, "threshold": self.threshold},
        )

    def warn(self, input_vector: np.ndarray) -> bool:
        return self.verdict(input_vector).warn

    def warn_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.score_batch(inputs) > self.threshold

    def warning_rate(self, inputs: np.ndarray) -> float:
        return float(np.mean(self.warn_batch(inputs)))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "envelope_distance",
            "threshold": self.threshold,
            "wrapped": self.monitor.describe(),
        }


class PatternDistanceMonitor:
    """Quantitative wrapper around a (robust) Boolean or interval pattern monitor.

    The score of an input is the smallest number of monitored positions whose
    code must change for the observed word to match a stored word, divided by
    the number of monitored positions.  The distances of a whole batch come
    from one vectorised pass over the pattern set's packed mirror, which
    compares each word with every stored exact, ternary or range row at
    once; distances beyond ``max_distance`` read ``max_distance + 1``.
    """

    def __init__(self, monitor, threshold: float = 0.0, max_distance: Optional[int] = None) -> None:
        if not isinstance(monitor, (BooleanPatternMonitor, IntervalPatternMonitor)):
            raise ConfigurationError(
                "PatternDistanceMonitor wraps a Boolean or interval pattern monitor"
            )
        if threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        self.monitor = monitor
        self.threshold = float(threshold)
        self.max_distance = max_distance

    def _require_fitted(self) -> None:
        if not self.monitor.is_fitted:
            raise NotFittedError("the wrapped pattern monitor has not been fitted")

    def _distance_limit(self) -> int:
        if self.max_distance is None:
            return self.monitor.num_monitored_neurons
        return min(self.max_distance, self.monitor.num_monitored_neurons)

    def distance_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Hamming distances of every row, distance-0 answered vectorised."""
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        features = self.monitor.features(inputs)
        codes = self.monitor.codec.codes(features)
        patterns = self.monitor.patterns
        distances = np.zeros(codes.shape[0], dtype=np.int64)
        if patterns.is_empty():
            distances[:] = self.monitor.num_monitored_neurons
            return distances
        unknown = ~patterns.contains_batch(codes)
        if np.any(unknown):
            distances[unknown] = patterns.min_distance_batch(
                codes[unknown], self._distance_limit()
            )
        return distances

    def distance(self, input_vector: np.ndarray) -> int:
        """Hamming distance (in positions) to the nearest stored word."""
        return int(
            self.distance_batch(
                np.atleast_2d(np.asarray(input_vector, dtype=np.float64))
            )[0]
        )

    def score_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.distance_batch(inputs) / self.monitor.num_monitored_neurons

    def score(self, input_vector: np.ndarray) -> float:
        """Normalised Hamming distance in ``[0, 1]`` (0 = pattern was visited)."""
        return self.distance(input_vector) / self.monitor.num_monitored_neurons

    def verdict(self, input_vector: np.ndarray) -> MonitorVerdict:
        value = self.score(input_vector)
        return MonitorVerdict(
            warn=value > self.threshold,
            details={"score": value, "threshold": self.threshold},
        )

    def warn(self, input_vector: np.ndarray) -> bool:
        return self.verdict(input_vector).warn

    def warn_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.score_batch(inputs) > self.threshold

    def warning_rate(self, inputs: np.ndarray) -> float:
        return float(np.mean(self.warn_batch(inputs)))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "pattern_distance",
            "threshold": self.threshold,
            "max_distance": self.max_distance,
            "wrapped": self.monitor.describe(),
        }
