"""Shared pieces of the benchmark: inputs, deployments, statistics, records.

Deployments are fixed (a network trained from a constant seed, like a
model checkpoint); the workload seed only generates the inputs the program
receives — evaluation and streamed frames, perturbations, frame order.
"""

from __future__ import annotations

import collections
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: Seed of the fixed track deployment (network, training and held-out rows).
TRACK_SEED = 100
TRACK_SAMPLES = 360
TRACK_EPOCHS = 10
#: Perturbation budget Δ of the robust monitors (pixel level, k_p = 0).
DELTA = 0.002
#: Training rows the star-spec fit uses (a fixed slice, the same every run).
STAR_ROWS = 8

#: Where runs keep scratch artefacts (deployment bundles, span dumps),
#: relative to the checkout the benchmark runs from.
WORK_DIR = ".perfbench"

clock = time.perf_counter


@dataclass
class Outcome:
    """What a workload run hands back to the entry point."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def timing_summary(seconds, scale: float = 1e3) -> Dict[str, float]:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count (values scaled, milliseconds by default)."""
    values = np.asarray(seconds, dtype=np.float64) * scale
    summary: Dict[str, float] = {"n": int(values.size)}
    if values.size == 0:
        return summary
    summary["p50"] = float(np.median(values))
    summary["p99"] = float(np.percentile(values, 99))
    for q in TAIL_PERCENTILES:
        if values.size * (1.0 - q / 100.0) >= 10:
            summary["tail_q"] = q
            summary["tail"] = float(np.percentile(values, q))
            break
    return summary


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def slot_latency(slots):
    """(p50, p95) in milliseconds from per-slot latency samples (seconds).

    The median is the fastest slot's: a slow spell of the host only ever
    slows a slot down, and one slot holds samples enough for a median.  The
    tail is taken over the samples of every slot: it rests on the rare slow
    samples, whose count within one slot swings with the host's stalls, and
    the whole run gives it many more than ten samples beyond.  It is the
    95th percentile: the 99th moved by a quarter between runs of the same
    code, set by how often the host stalled in each run.
    """
    p50 = min(float(np.median(values)) for values in slots)
    p95 = float(np.percentile(np.concatenate(slots), 95))
    return p50 * 1e3, p95 * 1e3


def closed_loop(submit, check, seconds: float, window: int) -> float:
    """Keep ``window`` submissions in flight for ``seconds``, then drain.

    ``submit()`` starts one and returns a handle; ``check(handle)`` waits
    for it, checks its verdicts and returns the frames it resolved.
    Returns resolved frames per second.
    """
    in_flight = collections.deque()
    frames = 0
    begin = clock()
    deadline = begin + seconds
    while clock() < deadline or in_flight:
        if clock() < deadline:
            while len(in_flight) < window:
                in_flight.append(submit())
        frames += check(in_flight.popleft())
    return frames / (clock() - begin)


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory of a process (``VmHWM``, which unlike
    ``ru_maxrss`` is not inherited across fork + exec)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _present(module: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(module) is not None


def environment(blas_env) -> Dict[str, object]:
    """Where the numbers were measured, and which back-ends produced them
    (``blas_env``: the thread-count variables the entry point pinned)."""
    import scipy

    from repro.runtime.kernels import resolve_matcher_backend
    from repro.symbolic.star_lp import resolve_star_lp_backend

    kernel = resolve_matcher_backend(None)
    star_backend = resolve_star_lp_backend(None)
    record: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": _present("numba"),
        "highspy": _present("highspy"),
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
        "matcher_backend": kernel.name,
        "matcher_effective": kernel.effective_name,
    }
    record["star_lp_backend"] = star_backend.describe()
    record["star_lp_stats"] = dict(getattr(star_backend, "stats", {}))
    return record


# ----------------------------------------------------------------------
# the track deployment
# ----------------------------------------------------------------------
@dataclass
class TrackDeployment:
    network: object
    layer: int
    train: np.ndarray
    held_out: object  # repro.data.datasets.Dataset (the raw test split)


def track_deployment() -> TrackDeployment:
    from repro.core.pipeline import build_track_workload, default_monitored_layer
    from repro.data.datasets import train_validation_test_split
    from repro.data.track import generate_track_dataset

    workload = build_track_workload(
        num_samples=TRACK_SAMPLES, epochs=TRACK_EPOCHS, seed=TRACK_SEED
    )
    # build_track_workload keeps only the jittered test split; regenerate
    # the raw one (same seeds) so every run jitters it afresh.
    dataset = generate_track_dataset(TRACK_SAMPLES, seed=TRACK_SEED)
    _, _, test = train_validation_test_split(dataset, seed=TRACK_SEED + 1)
    network = workload.network
    return TrackDeployment(
        network=network,
        layer=default_monitored_layer(network),
        train=workload.train.inputs,
        held_out=test,
    )


def box_spec():
    from repro.monitors.perturbation import PerturbationSpec

    return PerturbationSpec(delta=DELTA, layer=0, method="box")


def star_spec():
    from repro.monitors.perturbation import PerturbationSpec

    return PerturbationSpec(delta=DELTA, layer=0, method="star")


def six_monitor_builders(layer: int):
    """Standard and robust min-max, Boolean and 2-bit interval monitors."""
    from repro.monitors.builder import MonitorBuilder

    builders = {}
    for family, options in (
        ("minmax", {}),
        ("boolean", {"thresholds": "mean"}),
        ("interval", {"num_cuts": 3}),
    ):
        builders[f"std_{family}"] = MonitorBuilder(family, layer, **options)
        builders[f"robust_{family}"] = MonitorBuilder(
            family, layer, perturbation=box_spec(), **options
        )
    return builders


def star_monitor_builders(layer: int):
    """Robust Boolean and robust interval monitors under the star spec."""
    from repro.monitors.builder import MonitorBuilder

    return {
        "star_boolean": MonitorBuilder(
            "boolean", layer, perturbation=star_spec(), thresholds="mean"
        ),
        "star_interval": MonitorBuilder(
            "interval", layer, perturbation=star_spec(), num_cuts=3
        ),
    }


def fit_all(builders, network, rows, engine) -> Dict[str, object]:
    return {
        name: builder.build_and_fit(network, rows, engine=engine)
        for name, builder in builders.items()
    }


def track_frames(
    deployment: TrackDeployment,
    seed: int,
    in_odd: int,
    ood: int,
    perturbed_training: bool = True,
):
    """Seeded in-ODD and out-of-ODD frame pools of the given sizes.

    In-ODD frames are Δ-perturbed training rows (one copy of each, in
    training order, when ``perturbed_training``) followed by jittered
    held-out rows; out-of-ODD frames come from the paper's dark /
    construction / ice scenarios applied to the held-out rows.
    """
    from repro.data.perturbations import perturb_dataset_inputs
    from repro.data.scenarios import in_odd_jitter, scenario_suite

    rng = np.random.default_rng([seed, 11])
    inside: List[np.ndarray] = []
    if perturbed_training:
        inside.append(perturb_dataset_inputs(deployment.train, DELTA, rng=rng))
    count = sum(block.shape[0] for block in inside)
    while count < in_odd:
        jittered = in_odd_jitter(
            deployment.held_out,
            brightness_std=0.04,
            noise_std=0.04 / 3.0,
            seed=int(rng.integers(2**31)),
        ).inputs
        inside.append(jittered)
        count += jittered.shape[0]
    outside: List[np.ndarray] = []
    count = 0
    while count < ood:
        for dataset in scenario_suite(
            deployment.held_out, seed=int(rng.integers(2**31))
        ).values():
            outside.append(dataset.inputs)
            count += dataset.inputs.shape[0]
    return np.vstack(inside)[:in_odd], np.vstack(outside)[:ood]


def robust_names(monitors) -> List[str]:
    return [name for name in monitors if not name.startswith("std_")]


def quality(monitors, in_odd: np.ndarray, ood: np.ndarray) -> Dict[str, float]:
    """Share of in-ODD / out-of-ODD frames on which any robust monitor warns."""
    names = robust_names(monitors)
    fp = np.any([monitors[n].warn_batch(in_odd) for n in names], axis=0)
    detect = np.any([monitors[n].warn_batch(ood) for n in names], axis=0)
    return {"fp_rate": float(fp.mean()), "detect_rate": float(detect.mean())}


def mirror_mismatches(monitors, frames: np.ndarray, sample: int) -> int:
    """Probes on which the packed mirror disagrees with the canonical BDD.

    For every pattern monitor, the codes of ``sample`` frames are checked
    with ``PatternSet.contains_batch`` (mirror) and ``PatternSet.contains``
    (BDD walk), frame by frame.
    """
    mismatches = 0
    for monitor in monitors.values():
        patterns = getattr(monitor, "patterns", None)
        if patterns is None:
            continue
        codes = monitor.codec.codes(monitor.features(frames[:sample]))
        mirror = patterns.contains_batch(codes)
        canonical = np.array([patterns.contains(row) for row in codes], dtype=bool)
        mismatches += int(np.sum(mirror != canonical))
    return mismatches


def pattern_sets(monitors):
    return [m.patterns for m in monitors.values() if getattr(m, "patterns", None) is not None]
