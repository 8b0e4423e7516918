"""Shared workloads for the benchmark harness.

Each benchmark module reproduces one experiment from DESIGN.md (E1–E9).  The
workloads are built once per session: a trained track/waypoint regressor and
a trained synthetic-digit classifier, each with in-ODD evaluation data
(held-out scenes plus Δ-perturbed training scenes) and the out-of-ODD
scenario suites of the paper.

Benchmarks print the paper-style result tables; run with ``-s`` to see them,
e.g. ``pytest benchmarks/ -m benchmark -s``.  Every benchmark is marked both
``benchmark`` and ``slow``, so the default tier-1 run (``-m "not slow"``)
skips them; select them explicitly with ``-m benchmark``.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the session workloads (fewer samples
and epochs) for a fast CI smoke run, typically combined with
``--benchmark-disable`` so each benchmark body executes exactly once.

Perf-regression gate
--------------------
Benchmarks that should be guarded against regressions record wall times into
the session-scoped :class:`BenchRecorder` (``bench_record`` fixture).  At
session end the recorder writes a ``BENCH_<date>.json`` summary (path
overridable via ``REPRO_BENCH_JSON``) containing the recorded timings plus a
``_calibration`` entry — a fixed numpy workload timed on the same machine, so
the gate (``benchmarks/perf_gate.py``) can compare machine-normalised ratios
against the committed ``benchmarks/bench_baseline.json`` instead of raw
seconds.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.core.pipeline import (
    MonitoringWorkload,
    build_digits_workload,
    build_track_workload,
    default_monitored_layer,
)
from repro.data.perturbations import perturb_dataset_inputs
from repro.eval.experiments import MonitorExperiment

#: Quick-mode switch for CI smoke runs.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def pytest_collection_modifyitems(items):
    # Every test here already carries @pytest.mark.benchmark(...); the extra
    # ``slow`` marker keeps them out of the default ``-m "not slow"`` run.
    for item in items:
        item.add_marker(pytest.mark.slow)


class BenchRecorder:
    """Collects named wall times for the perf-regression gate.

    ``measure`` runs a callable ``repeats`` times and records the *minimum*
    wall time (the standard low-noise estimator) under ``name``; the
    callable's last return value is handed back so benchmark bodies can keep
    asserting on results.  The first ``measure`` call also times a fixed
    numpy calibration workload, stored as ``_calibration``, which the gate
    uses to normalise away machine-speed differences.
    """

    CALIBRATION_KEY = "_calibration"

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}
        self.attributes: Dict[str, Dict[str, object]] = {}

    def _calibrate(self) -> None:
        if self.CALIBRATION_KEY in self.timings:
            return
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(256, 256))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            accumulator = matrix
            for _ in range(8):
                accumulator = np.tanh(accumulator @ matrix * 1e-3)
            float(accumulator.sum())
            best = min(best, time.perf_counter() - start)
        self.timings[self.CALIBRATION_KEY] = best

    def measure(
        self,
        name: str,
        workload: Callable[[], object],
        repeats: int = 3,
        inner: int = 1,
    ):
        """Record ``min over repeats`` of the mean time of ``inner`` calls.

        Sub-millisecond workloads need ``inner > 1`` so that one timing
        sample is large relative to timer resolution and scheduler noise —
        otherwise the 25% regression threshold of the perf gate trips on
        jitter.
        """
        self._calibrate()
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(max(1, inner)):
                result = workload()
            best = min(best, (time.perf_counter() - start) / max(1, inner))
        self.timings[name] = best
        return result

    def record(self, name: str, seconds: float) -> None:
        """Record an externally measured timing (e.g. a derived ratio)."""
        self._calibrate()
        self.timings[name] = float(seconds)

    def annotate(self, name: str, **attrs: object) -> None:
        """Attach JSON-serialisable attributes to a recorded timing.

        Used for context the gate should *see* but not compare — e.g. the
        shape of a timed case, or the LP tier counts behind a star timing.
        """
        self.attributes.setdefault(name, {}).update(attrs)

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "quick": QUICK,
            "timings": dict(sorted(self.timings.items())),
        }
        if self.attributes:
            summary["attributes"] = dict(sorted(self.attributes.items()))
        return summary


_RECORDER = BenchRecorder()


@pytest.fixture(scope="session")
def bench_record() -> BenchRecorder:
    return _RECORDER


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDER.timings:
        return
    date = datetime.date.today().isoformat()
    path = os.environ.get("REPRO_BENCH_JSON", f"BENCH_{date}.json")
    with open(path, "w") as handle:
        json.dump(_RECORDER.summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")


#: Perturbation budget used throughout the track experiments.  Matched to the
#: aleatory jitter of the in-ODD evaluation data (see DESIGN.md E1).
TRACK_DELTA = 0.002

#: Perturbation budget for the digits workload.
DIGITS_DELTA = 0.005


@pytest.fixture(scope="session")
def track_workload() -> MonitoringWorkload:
    if QUICK:
        return build_track_workload(num_samples=200, epochs=5, seed=100)
    return build_track_workload(num_samples=360, epochs=10, seed=100)


@pytest.fixture(scope="session")
def track_layer(track_workload) -> int:
    return default_monitored_layer(track_workload.network)


@pytest.fixture(scope="session")
def track_experiment(track_workload) -> MonitorExperiment:
    """E1/E2 evaluation sets: Δ-perturbed training scenes + jittered held-out scenes."""
    rng = np.random.default_rng(0)
    perturbed_training = perturb_dataset_inputs(
        track_workload.train.inputs, TRACK_DELTA, rng=rng
    )
    in_odd = np.vstack([perturbed_training, track_workload.in_odd_eval.inputs])
    return MonitorExperiment(
        track_workload.network,
        track_workload.train.inputs,
        in_odd,
        {name: data.inputs for name, data in track_workload.out_of_odd_eval.items()},
    )


@pytest.fixture(scope="session")
def digits_workload() -> MonitoringWorkload:
    if QUICK:
        return build_digits_workload(num_samples=250, num_classes=5, epochs=5, seed=200)
    return build_digits_workload(num_samples=400, num_classes=5, epochs=10, seed=200)


@pytest.fixture(scope="session")
def digits_layer(digits_workload) -> int:
    return default_monitored_layer(digits_workload.network)
