"""Boolean on/off activation-pattern monitors (standard and robust).

The standard monitor (Cheng et al., DATE 2019) abstracts the monitored-layer
feature vector into a Boolean word — bit ``j`` is 1 when neuron ``j`` exceeds
its threshold ``c_j`` — and stores the set of words visited by the training
data in a BDD.  An operational input warns when its word is not in the set.

The robust variant applies the abstraction to the perturbation estimate
``[l_j, u_j]`` instead of the concrete value: bit ``j`` becomes 1 when
``l_j > c_j``, 0 when ``u_j ≤ c_j`` and the *don't-care* symbol otherwise.
The ternary word is expanded into the set of all compatible binary words via
``word2set``, which the BDD represents with a cube over the constrained bits
only (no exponential blow-up).

Both variants run on the :mod:`repro.runtime` pattern codec: a training or
evaluation batch is binarised against the thresholds in one vectorised pass,
bulk-inserted as bit-packed words (standard) or ternary value/mask bit-planes
(robust), and scored through the pattern set's vectorised membership mirror;
a Hamming tolerance costs one more mirror pass over the batch's misses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError, ShapeError
from ..nn.network import Sequential
from ..bdd.patterns import DONT_CARE, PatternSet
from ..runtime.codec import PatternCodec
from ..runtime.packing import popcount
from .base import ActivationMonitor, MonitorVerdict
from .perturbation import PerturbationSpec
from .thresholds import get_threshold_strategy

__all__ = ["BooleanPatternMonitor", "RobustBooleanPatternMonitor"]


class BooleanPatternMonitor(ActivationMonitor):
    """Standard on/off activation-pattern monitor backed by a BDD.

    Parameters
    ----------
    thresholds:
        Either a per-neuron array of constants ``c_j``, or the name of a
        threshold strategy (``"zero"``, ``"mean"``, ``"percentile"``, ...)
        evaluated on the training activations during :meth:`fit`.
    hamming_tolerance:
        Accept operational words within this Hamming distance of a stored
        word (the enlargement knob of the original DATE'19 monitor); the
        default 0 is exact membership.
    """

    kind = "boolean_pattern"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        thresholds: Union[str, np.ndarray] = "zero",
        neuron_indices: Optional[Sequence[int]] = None,
        hamming_tolerance: int = 0,
    ) -> None:
        super().__init__(network, layer_index, neuron_indices)
        if hamming_tolerance < 0:
            raise ConfigurationError("hamming_tolerance must be non-negative")
        self.hamming_tolerance = int(hamming_tolerance)
        self._threshold_spec = thresholds
        self.thresholds: Optional[np.ndarray] = None
        self.patterns: Optional[PatternSet] = None
        self._codec: Optional[PatternCodec] = None

    # ------------------------------------------------------------------
    @property
    def codec(self) -> PatternCodec:
        """The fitted 1-bit pattern codec (features → packed words)."""
        if self._codec is None:
            if self.thresholds is None:
                raise NotFittedError("the codec exists only after fitting")
            self._codec = PatternCodec.from_thresholds(self.thresholds)
        return self._codec

    def _resolve_thresholds(self, activations: np.ndarray) -> np.ndarray:
        if isinstance(self._threshold_spec, str):
            strategy = get_threshold_strategy(self._threshold_spec)
            cuts = strategy(activations, 1)
            return cuts[:, 0]
        thresholds = np.asarray(self._threshold_spec, dtype=np.float64).reshape(-1)
        if thresholds.shape[0] != self.num_monitored_neurons:
            raise ShapeError(
                f"expected {self.num_monitored_neurons} thresholds, got "
                f"{thresholds.shape[0]}"
            )
        return thresholds

    def _set_thresholds(self, thresholds: np.ndarray) -> None:
        self.thresholds = thresholds
        self._codec = None

    def _word(self, feature: np.ndarray) -> List[int]:
        """The abstraction ``ab``: bit ``j`` = 1 iff ``v_j > c_j``."""
        return [int(code) for code in self.codec.codes(np.atleast_2d(feature))[0]]

    # ------------------------------------------------------------------
    def fit(self, training_inputs: np.ndarray) -> "BooleanPatternMonitor":
        features = self.features(training_inputs)
        if features.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        self._set_thresholds(self._resolve_thresholds(features))
        self.patterns = PatternSet(self.num_monitored_neurons, bits_per_position=1)
        self.patterns.add_patterns(self.codec.codes(features))
        self._fitted = True
        self._num_training_samples = int(features.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "BooleanPatternMonitor":
        """Fold additional data (e.g. a validation set) into the pattern set."""
        self._require_fitted()
        features = self.features(inputs)
        self.patterns.add_patterns(self.codec.codes(features))
        self._num_training_samples += int(features.shape[0])
        return self

    # ------------------------------------------------------------------
    def _known_from_features(self, features: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Codes and membership flags of a feature batch."""
        codes = self.codec.codes(features)
        known = self.patterns.contains_batch(codes)
        if self.hamming_tolerance > 0 and not np.all(known):
            unknown = ~known
            known[unknown] = (
                self.patterns.min_distance_batch(codes[unknown], self.hamming_tolerance)
                <= self.hamming_tolerance
            )
        return codes, known

    def _warn_from_features(self, features: np.ndarray) -> np.ndarray:
        _, known = self._known_from_features(features)
        return ~known

    def _verdicts_from_features(self, features: np.ndarray) -> List[MonitorVerdict]:
        codes, known = self._known_from_features(features)
        return [
            MonitorVerdict(
                warn=bool(not row_known),
                details={
                    "word": tuple(int(code) for code in row_codes),
                    "hamming_tolerance": self.hamming_tolerance,
                },
            )
            for row_codes, row_known in zip(codes, known)
        ]

    # ------------------------------------------------------------------
    def pattern_count(self) -> int:
        """Number of distinct activation words in the abstraction."""
        self._require_fitted()
        return self.patterns.cardinality()

    def bdd_size(self) -> int:
        """Number of BDD nodes storing the abstraction."""
        self._require_fitted()
        return self.patterns.dag_size()

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["hamming_tolerance"] = self.hamming_tolerance
        if self._fitted:
            info["stored_rows"] = self.patterns.stored_rows
            info["bdd_materialised"] = self.patterns.bdd_materialised
        return info


class RobustBooleanPatternMonitor(BooleanPatternMonitor):
    """Robust on/off pattern monitor ``M_{⟨G, k, k_p, Δ⟩}`` (Section III-B).

    The abstraction function ``ab_R`` maps each neuron's perturbation-estimate
    bound to 1 / 0 / don't-care; the batch of ternary words is encoded as
    value/mask bit-planes and inserted via ``word2set`` in bulk.
    """

    kind = "robust_boolean_pattern"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        perturbation: PerturbationSpec,
        thresholds: Union[str, np.ndarray] = "zero",
        neuron_indices: Optional[Sequence[int]] = None,
        hamming_tolerance: int = 0,
    ) -> None:
        super().__init__(
            network,
            layer_index,
            thresholds=thresholds,
            neuron_indices=neuron_indices,
            hamming_tolerance=hamming_tolerance,
        )
        if perturbation.layer >= layer_index:
            raise ConfigurationError(
                "perturbation layer k_p must be strictly before the monitored layer"
            )
        self.perturbation = perturbation
        self._dont_care_count = 0

    def _ternary_word(self, low: np.ndarray, high: np.ndarray) -> List[object]:
        """The robust abstraction ``ab_R`` producing 0 / 1 / don't-care."""
        low_codes, high_codes = self.codec.bound_codes(
            np.atleast_2d(low), np.atleast_2d(high)
        )
        return [
            int(lo) if lo == hi else DONT_CARE
            for lo, hi in zip(low_codes[0], high_codes[0])
        ]

    def _insert_robust_batch(self, inputs: np.ndarray) -> None:
        lows, highs = self._perturbation_bound_arrays(inputs, self.perturbation)
        lows = lows[:, self._columns]
        highs = highs[:, self._columns]
        planes = self.codec.ternary_planes(lows, highs)
        constrained_bits = int(popcount(planes.masks).sum())
        self._dont_care_count += (
            planes.values.shape[0] * self.num_monitored_neurons - constrained_bits
        )
        self.patterns.add_ternary_patterns(planes)

    def fit(self, training_inputs: np.ndarray) -> "RobustBooleanPatternMonitor":
        training_inputs = np.atleast_2d(np.asarray(training_inputs, dtype=np.float64))
        if training_inputs.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        features = self.features(training_inputs)
        self._set_thresholds(self._resolve_thresholds(features))
        self.patterns = PatternSet(self.num_monitored_neurons, bits_per_position=1)
        self._dont_care_count = 0
        self._insert_robust_batch(training_inputs)
        self._fitted = True
        self._num_training_samples = int(training_inputs.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "RobustBooleanPatternMonitor":
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        self._insert_robust_batch(inputs)
        self._num_training_samples += int(inputs.shape[0])
        return self

    @property
    def dont_care_fraction(self) -> float:
        """Average fraction of don't-care bits per inserted ternary word."""
        if self._num_training_samples == 0:
            raise NotFittedError("monitor has not been fitted")
        total_bits = self._num_training_samples * self.num_monitored_neurons
        return self._dont_care_count / total_bits

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["perturbation"] = self.perturbation.describe()
        if self._fitted:
            info["dont_care_fraction"] = self.dont_care_fraction
        return info
