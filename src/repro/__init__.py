"""repro — Provably-Robust Runtime Monitoring of Neuron Activation Patterns.

A self-contained reproduction of Cheng, "Provably-Robust Runtime Monitoring
of Neuron Activation Patterns" (DATE 2021).  The library provides:

* :mod:`repro.nn` — a numpy feed-forward DNN substrate (training and
  layer-sliced evaluation ``G^k`` / ``G^{l↪k}``);
* :mod:`repro.symbolic` — sound abstract domains (box, zonotope, star set)
  used for the perturbation estimate of Definition 1, all advanced by one
  batched layer walk;
* :mod:`repro.bdd` — a reduced ordered BDD manager and the pattern-set
  wrapper implementing ``word2set``;
* :mod:`repro.runtime` — the vectorised bit-packed pattern substrate: codec
  (batched binarisation, ternary bit-planes), TCAM-style membership matcher
  and the batched scoring engine with its per-layer activation cache;
* :mod:`repro.monitors` — the paper's contribution: min-max, Boolean on/off
  and multi-bit interval activation monitors, each with a standard and a
  provably-robust variant;
* :mod:`repro.data` — synthetic digits, race-track/waypoint imagery and
  out-of-ODD scenario transforms replacing the paper's lab setup;
* :mod:`repro.eval` — false-positive / detection-rate metrics, experiment
  runners and parameter sweeps;
* :mod:`repro.service` — the streaming scoring service: frames submitted
  one at a time are coalesced into micro-batches and scored through one
  shared engine pass across every registered monitor;
* :mod:`repro.serving` — the out-of-process face of that service: a
  length-prefixed TCP protocol, deployment bundles, a multi-process worker
  pool fed through shared memory, and the socket server/client pair;
* :mod:`repro.lifecycle` — the online monitor lifecycle: a versioned
  artefact store, shadow scoring of candidate monitors on live traffic,
  atomic promotion/rollback and incremental refit from streamed frames;
* :mod:`repro.core` — end-to-end pipelines and reference workloads.

Quickstart
----------
>>> from repro import build_track_workload, MonitorPipeline, PerturbationSpec
>>> workload = build_track_workload(num_samples=200, epochs=5, seed=0)
>>> pipeline = MonitorPipeline(
...     workload, family="minmax",
...     perturbation=PerturbationSpec(delta=0.05, layer=0, method="box"))
>>> result = pipeline.run()
>>> result.score("robust").false_positive_rate <= result.score("standard").false_positive_rate
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Every public name and the subpackage it is read from on first use.
_EXPORTS = {
    "ReproError": "exceptions",
    "ConfigurationError": "exceptions",
    "ShapeError": "exceptions",
    "LayerIndexError": "exceptions",
    "NotFittedError": "exceptions",
    "PropagationError": "exceptions",
    "SerializationError": "exceptions",
    "DataError": "exceptions",
    "ProtocolError": "exceptions",
    "RemoteScoringError": "exceptions",
    "WorkerCrashError": "exceptions",
    "LifecycleStateError": "exceptions",
    "Sequential": "nn",
    "mlp": "nn",
    "Box": "symbolic",
    "StarSet": "symbolic",
    "propagate_bounds": "symbolic",
    "perturbation_bounds": "symbolic",
    "MonitorVerdict": "monitors",
    "MinMaxMonitor": "monitors",
    "RobustMinMaxMonitor": "monitors",
    "BooleanPatternMonitor": "monitors",
    "RobustBooleanPatternMonitor": "monitors",
    "IntervalPatternMonitor": "monitors",
    "RobustIntervalPatternMonitor": "monitors",
    "MonitorBuilder": "monitors",
    "ClassConditionalMonitor": "monitors",
    "PerturbationSpec": "monitors",
    "PatternCodec": "runtime",
    "BatchScoringEngine": "runtime",
    "BatchPolicy": "service",
    "StreamingScorer": "service",
    "LifecycleManager": "lifecycle",
    "MonitorStore": "lifecycle",
    "DEFAULT_PERTURBATION": "core",
    "MonitoringWorkload": "core",
    "MonitorPipeline": "core",
    "build_track_workload": "core",
    "build_digits_workload": "core",
    "default_monitored_layer": "core",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
