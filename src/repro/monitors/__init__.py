"""Neuron activation-pattern monitors — the paper's primary contribution.

Three monitor families, each with a standard and a provably-robust variant:

* :class:`MinMaxMonitor` / :class:`RobustMinMaxMonitor` — per-neuron value
  envelopes;
* :class:`BooleanPatternMonitor` / :class:`RobustBooleanPatternMonitor` —
  on/off activation words stored in a BDD, with don't-care expansion for the
  robust construction;
* :class:`IntervalPatternMonitor` / :class:`RobustIntervalPatternMonitor` —
  multi-bit interval codes per neuron (Section III-C, Figure 1).

Robust variants are parameterised by a :class:`PerturbationSpec`
``(Δ, k_p, back-end)`` and fitted on the perturbation estimates of
Definition 1, which yields the Lemma 1 guarantee: an input whose layer-``k_p``
representation is within ``Δ`` of some training input never triggers a
warning.
"""

from .base import ActivationMonitor, MonitorVerdict
from .boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from .builder import MONITOR_FAMILIES, ClassConditionalMonitor, MonitorBuilder
from .encoding import (
    bits_for_cuts,
    code_of_value,
    code_range_of_bound,
    code_sets_of_bounds,
    codes_of_values,
    num_codes,
    paper_code_2bit,
    paper_robust_code_set_2bit,
)
from .ensemble import MonitorEnsemble
from .fingerprint import monitor_fingerprint
from .interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from .minmax import MinMaxMonitor, RobustMinMaxMonitor
from .perturbation import PerturbationSpec, perturbation_estimate
from .quantitative import EnvelopeDistanceMonitor, PatternDistanceMonitor
from .registry import MonitorRegistry
from .serialization import load_monitor, save_monitor
from .thresholds import (
    equal_width_thresholds,
    get_threshold_strategy,
    mean_thresholds,
    median_thresholds,
    percentile_thresholds,
    range_extension_thresholds,
    validate_cut_points,
    zero_thresholds,
)

__all__ = [
    "ActivationMonitor",
    "MonitorVerdict",
    "MinMaxMonitor",
    "RobustMinMaxMonitor",
    "BooleanPatternMonitor",
    "RobustBooleanPatternMonitor",
    "IntervalPatternMonitor",
    "RobustIntervalPatternMonitor",
    "MonitorBuilder",
    "ClassConditionalMonitor",
    "MonitorEnsemble",
    "MonitorRegistry",
    "MONITOR_FAMILIES",
    "PerturbationSpec",
    "EnvelopeDistanceMonitor",
    "PatternDistanceMonitor",
    "save_monitor",
    "load_monitor",
    "monitor_fingerprint",
    "perturbation_estimate",
    "code_of_value",
    "codes_of_values",
    "code_range_of_bound",
    "code_sets_of_bounds",
    "num_codes",
    "bits_for_cuts",
    "paper_code_2bit",
    "paper_robust_code_set_2bit",
    "zero_thresholds",
    "mean_thresholds",
    "median_thresholds",
    "percentile_thresholds",
    "equal_width_thresholds",
    "range_extension_thresholds",
    "get_threshold_strategy",
    "validate_cut_points",
]
