"""Interval (multi-bit) activation-pattern monitors (Section III-C).

Instead of a single on/off bit per neuron, the interval monitor encodes which
of several value intervals — delimited by per-neuron cut points
``c_j1 < c_j2 < ...`` — the neuron value falls into.  With ``m`` cut points
the code needs ``ceil(log2(m+1))`` bits; the paper's exposition uses 2 bits
(3 cut points), and the footnote observes that the scheme strictly
generalises both the min-max monitor and the on/off monitor.

The robust variant maps each neuron's perturbation-estimate bound
``[l_j, u_j]`` to the *range* of codes reachable by any value inside the
bound (contiguous, thanks to monotonicity of the encoding); the per-neuron
code ranges are bulk-inserted as range rows (the multi-bit ``word2set``), so
the stored set is the Cartesian product without enumeration.

Both variants run on the :mod:`repro.runtime` pattern codec: whole batches
are coded against the cut-point matrix in one vectorised pass and scored
through the pattern set's vectorised membership mirror.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError, ShapeError
from ..nn.network import Sequential
from ..bdd.patterns import PatternSet
from ..runtime.codec import PatternCodec
from .base import ActivationMonitor, MonitorVerdict
from .encoding import bits_for_cuts
from .perturbation import PerturbationSpec
from .thresholds import get_threshold_strategy, validate_cut_points

__all__ = ["IntervalPatternMonitor", "RobustIntervalPatternMonitor"]


class IntervalPatternMonitor(ActivationMonitor):
    """Standard multi-bit interval activation monitor.

    Parameters
    ----------
    num_cuts:
        Number of cut points per neuron (``num_cuts + 1`` interval codes,
        ``3`` reproduces the paper's 2-bit setup).
    cut_strategy:
        Name of the threshold strategy used to place the cut points when an
        explicit ``cut_points`` array is not given.
    cut_points:
        Optional explicit array of shape ``(num_monitored_neurons, num_cuts)``.
    """

    kind = "interval_pattern"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        num_cuts: int = 3,
        cut_strategy: str = "percentile",
        cut_points: Optional[np.ndarray] = None,
        neuron_indices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(network, layer_index, neuron_indices)
        if num_cuts < 1:
            raise ConfigurationError("num_cuts must be at least 1")
        self.num_cuts = int(num_cuts)
        self.cut_strategy = cut_strategy
        self._explicit_cut_points = cut_points
        self.cut_points: Optional[np.ndarray] = None
        self.patterns: Optional[PatternSet] = None
        self._codec: Optional[PatternCodec] = None

    # ------------------------------------------------------------------
    @property
    def bits_per_neuron(self) -> int:
        """Bits used to encode one neuron's interval code."""
        return bits_for_cuts(self.num_cuts)

    @property
    def codec(self) -> PatternCodec:
        """The fitted multi-bit pattern codec (features → packed words)."""
        if self._codec is None:
            if self.cut_points is None:
                raise NotFittedError("the codec exists only after fitting")
            self._codec = PatternCodec(self.cut_points)
        return self._codec

    def _resolve_cut_points(self, activations: np.ndarray) -> np.ndarray:
        if self._explicit_cut_points is not None:
            cuts = validate_cut_points(np.asarray(self._explicit_cut_points, dtype=np.float64))
            if cuts.shape != (self.num_monitored_neurons, self.num_cuts):
                raise ShapeError(
                    "cut_points must have shape "
                    f"({self.num_monitored_neurons}, {self.num_cuts}), got {cuts.shape}"
                )
            return cuts
        strategy = get_threshold_strategy(self.cut_strategy)
        return validate_cut_points(strategy(activations, self.num_cuts))

    def _set_cut_points(self, cut_points: np.ndarray) -> None:
        self.cut_points = cut_points
        self._codec = None

    def _codes(self, feature: np.ndarray) -> List[int]:
        return [int(code) for code in self.codec.codes(np.atleast_2d(feature))[0]]

    # ------------------------------------------------------------------
    def fit(self, training_inputs: np.ndarray) -> "IntervalPatternMonitor":
        features = self.features(training_inputs)
        if features.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        self._set_cut_points(self._resolve_cut_points(features))
        self.patterns = PatternSet(
            self.num_monitored_neurons, bits_per_position=self.bits_per_neuron
        )
        self.patterns.add_patterns(self.codec.codes(features))
        self._fitted = True
        self._num_training_samples = int(features.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "IntervalPatternMonitor":
        """Fold additional data into the stored pattern set."""
        self._require_fitted()
        features = self.features(inputs)
        self.patterns.add_patterns(self.codec.codes(features))
        self._num_training_samples += int(features.shape[0])
        return self

    # ------------------------------------------------------------------
    def _warn_from_features(self, features: np.ndarray) -> np.ndarray:
        return ~self.patterns.contains_batch(self.codec.codes(features))

    def _verdicts_from_features(self, features: np.ndarray) -> List[MonitorVerdict]:
        codes = self.codec.codes(features)
        known = self.patterns.contains_batch(codes)
        return [
            MonitorVerdict(
                warn=bool(not row_known),
                details={
                    "codes": tuple(int(code) for code in row_codes),
                    "bits_per_neuron": self.bits_per_neuron,
                },
            )
            for row_codes, row_known in zip(codes, known)
        ]

    def pattern_count(self) -> int:
        """Number of distinct code words in the abstraction."""
        self._require_fitted()
        return self.patterns.cardinality()

    def bdd_size(self) -> int:
        """Number of BDD nodes storing the abstraction."""
        self._require_fitted()
        return self.patterns.dag_size()

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["num_cuts"] = self.num_cuts
        info["bits_per_neuron"] = self.bits_per_neuron
        info["cut_strategy"] = self.cut_strategy
        if self._fitted:
            info["stored_rows"] = self.patterns.stored_rows
            info["bdd_materialised"] = self.patterns.bdd_materialised
        return info


class RobustIntervalPatternMonitor(IntervalPatternMonitor):
    """Robust multi-bit interval monitor (Section III-C, Figure 1).

    Each training input contributes the Cartesian product of its per-neuron
    admissible code ranges — the codes reachable by any value inside the
    perturbation-estimate bound ``[l_j, u_j]`` — bulk-inserted per batch.
    """

    kind = "robust_interval_pattern"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        perturbation: PerturbationSpec,
        num_cuts: int = 3,
        cut_strategy: str = "percentile",
        cut_points: Optional[np.ndarray] = None,
        neuron_indices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            network,
            layer_index,
            num_cuts=num_cuts,
            cut_strategy=cut_strategy,
            cut_points=cut_points,
            neuron_indices=neuron_indices,
        )
        if perturbation.layer >= layer_index:
            raise ConfigurationError(
                "perturbation layer k_p must be strictly before the monitored layer"
            )
        self.perturbation = perturbation
        self._ambiguous_positions = 0

    def _insert_robust_batch(self, inputs: np.ndarray) -> None:
        lows, highs = self._perturbation_bound_arrays(inputs, self.perturbation)
        lows = lows[:, self._columns]
        highs = highs[:, self._columns]
        low_codes, high_codes = self.codec.bound_codes(lows, highs)
        self._ambiguous_positions += int((high_codes > low_codes).sum())
        self.patterns.add_range_patterns(low_codes, high_codes)

    def fit(self, training_inputs: np.ndarray) -> "RobustIntervalPatternMonitor":
        training_inputs = np.atleast_2d(np.asarray(training_inputs, dtype=np.float64))
        if training_inputs.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        features = self.features(training_inputs)
        self._set_cut_points(self._resolve_cut_points(features))
        self.patterns = PatternSet(
            self.num_monitored_neurons, bits_per_position=self.bits_per_neuron
        )
        self._ambiguous_positions = 0
        self._insert_robust_batch(training_inputs)
        self._fitted = True
        self._num_training_samples = int(training_inputs.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "RobustIntervalPatternMonitor":
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        self._insert_robust_batch(inputs)
        self._num_training_samples += int(inputs.shape[0])
        return self

    @property
    def ambiguous_position_fraction(self) -> float:
        """Average fraction of neurons per sample whose code was ambiguous."""
        self._require_fitted()
        total = self._num_training_samples * self.num_monitored_neurons
        return self._ambiguous_positions / total

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["perturbation"] = self.perturbation.describe()
        if self._fitted:
            info["ambiguous_position_fraction"] = self.ambiguous_position_fraction
        return info
