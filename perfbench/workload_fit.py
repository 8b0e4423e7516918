"""Monitor construction workloads: ``fit_box`` and ``fit_star``.

``fit_box`` fits the six-monitor set (standard and robust min-max,
Boolean and 2-bit interval; robust under box Δ at k_p = 0) on every
training row through one shared ``BatchScoringEngine``, as the builder
does.  ``fit_star`` fits robust Boolean and robust interval under the star
spec on a fixed slice of the training rows.  Each fit starts from a fresh
engine, so it pays its forward pass and symbolic propagation.

The run alternates one-second slots of repeated fits with slots of an
offline evaluation pass: the fitted set scores a seeded pool of in-ODD and
out-of-ODD frames in 256-frame ``score_batch`` calls, the pass a fit job
reports its false-positive and detection rates from.  The run reports its
fastest evaluation slot (rate and median), its shortest fit and its
shortest set-up sample: host noise only ever slows work down, so these move
far less between runs than medians over the whole run do.  The 95th
percentile is taken over every evaluation slot (see ``common.slot_latency``).
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

import common
import layers
from common import Outcome, clock, median, timing_summary
from tracing import Tracer, patched, program_targets

#: Set-ups timed as one sample (one takes about a millisecond), and samples
#: taken before the first slot and at the start of every slot, so they span
#: the run.  The run reports the shortest sample, like the shortest fit.
SETUP_BATCH = 20
SETUP_SAMPLES_PER_SLOT = 2
EVAL_CHUNK = 256
EVAL_FRAMES = 4096
MIRROR_SAMPLE = 64
SLOT_S = 1.0
#: Untimed fits before the measured slots: the first fits of a process pay
#: one-off costs (allocator growth, the LP solver's first calls).
WARMUP_S = 0.5


@contextlib.contextmanager
def _artefacts(workload, network, rows):
    """The network and training rows saved under the work directory, as a
    fit job finds them; removed again on exit."""
    from repro.nn.serialization import save_network

    os.makedirs(common.WORK_DIR, exist_ok=True)
    stem = os.path.join(common.WORK_DIR, f"{workload}-{os.getpid()}")
    paths = (str(save_network(network, stem + "-network.npz")), stem + "-rows.npy")
    np.save(paths[1], rows)
    try:
        yield paths
    finally:
        for path in paths:
            os.remove(path)


def _set_up(paths, backend, batch):
    """``batch`` set-ups, each loading the network and training-row
    artefacts and building the engine.  Returns the wall time of one (their
    mean), the network and the rows."""
    from repro.nn.serialization import load_network
    from repro.runtime.engine import BatchScoringEngine

    start = clock()
    for _ in range(batch):
        network = load_network(paths[0])
        rows = np.load(paths[1])
        BatchScoringEngine(network, star_lp_backend=backend)
    return (clock() - start) / batch, network, rows


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    from repro.symbolic.star_lp import resolve_star_lp_backend

    star = workload == "fit_star"
    deployment = common.track_deployment()
    builders = (
        common.star_monitor_builders(deployment.layer)
        if star
        else common.six_monitor_builders(deployment.layer)
    )
    size = EVAL_FRAMES // 8 if tiny else EVAL_FRAMES
    in_odd, ood = common.track_frames(deployment, seed, size // 2, size // 2)
    pool = np.vstack([in_odd, ood])[np.random.default_rng([seed, 12]).permutation(size)]

    # The back-end the program selects by default (REPRO_STAR_LP_BACKEND or
    # its built-in choice), so a change of default shows in the record.
    backend = resolve_star_lp_backend(None)
    rows = deployment.train[: common.STAR_ROWS] if star else deployment.train
    with _artefacts(workload, deployment.network, rows) as paths:
        return _measure(seconds, trace, tiny, paths, backend, builders, in_odd, ood, pool)


def _measure(seconds, trace, tiny, paths, backend, builders, in_odd, ood, pool):
    """Set-ups, warm-up and the alternating fit / evaluation slots."""
    from repro.runtime.engine import BatchScoringEngine

    batch, samples = (1, 1) if tiny else (SETUP_BATCH, SETUP_SAMPLES_PER_SLOT)
    setup_times = []
    for _ in range(samples):
        elapsed, network, rows = _set_up(paths, backend, batch)
        setup_times.append(elapsed)

    def fit():
        engine = BatchScoringEngine(network, star_lp_backend=backend)
        return engine, common.fit_all(builders, network, rows, engine)

    deadline = clock() + (0.0 if tiny else WARMUP_S)
    _, monitors = fit()
    while clock() < deadline:
        fit()
    offline = {name: monitor.warn_batch(pool) for name, monitor in monitors.items()}
    evaluator = BatchScoringEngine(network)

    # Fit and evaluation slots alternate; a traced run alternates pairs of
    # untraced and traced slots, so both see the same spells of the host.
    cycle = 4 if trace else 2
    slots = max(cycle, cycle * round(seconds / (cycle * SLOT_S)))
    slot_s = seconds / slots
    fit_tracer, eval_tracer = Tracer(), Tracer()
    fit_times, traced_fit_times, eval_slots = [], [], []
    bound_hits = bound_lookups = 0
    scored = verdict_mismatches = cursor = 0
    if hasattr(backend, "reset_stats"):
        backend.reset_stats()
    for slot in range(slots):
        traced = trace and slot % 4 >= 2
        setup_times.extend(_set_up(paths, backend, batch)[0] for _ in range(samples))
        tracer = fit_tracer if slot % 2 == 0 else eval_tracer
        context = patched(tracer, program_targets()) if traced else contextlib.nullcontext()
        end = clock() + slot_s
        with context:
            if slot % 2 == 0:
                times = traced_fit_times if traced else fit_times
                first = len(times)
                while len(times) == first or clock() < end:
                    start = clock()
                    with fit_tracer.span("fit") if traced else contextlib.nullcontext():
                        engine, fitted = fit()
                    times.append(clock() - start)
                    if traced:
                        bound_hits += engine.cache.bound_hits
                        bound_lookups += engine.cache.bound_hits + engine.cache.bound_misses
                continue
            chunk_times = []
            while not chunk_times or clock() < end or scored < pool.shape[0]:
                chunk = pool[cursor : cursor + EVAL_CHUNK]
                start = clock()
                score = evaluator.score_batch(monitors, chunk, use_cache=False)
                chunk_times.append(clock() - start)
                if scored < pool.shape[0]:
                    for name, flags in score.warns.items():
                        expected = offline[name][cursor : cursor + chunk.shape[0]]
                        verdict_mismatches += int(np.sum(flags != expected))
                scored += chunk.shape[0]
                cursor = (cursor + EVAL_CHUNK) % pool.shape[0]
        if not traced:
            eval_slots.append(np.asarray(chunk_times))

    # -- oracles: mirror vs canonical BDD, robust soundness ----------------
    mismatches = common.mirror_mismatches(fitted, pool, MIRROR_SAMPLE)
    checked = MIRROR_SAMPLE * len(common.pattern_sets(fitted))
    # Lemma 1: a robust monitor accepts every Δ-perturbation of a row it
    # was fitted on (the in-ODD pool starts with one such copy per row).
    perturbed = in_odd[: rows.shape[0]]
    unsound = int(
        np.any(
            [fitted[n].warn_batch(perturbed) for n in common.robust_names(fitted)],
            axis=0,
        ).sum()
    )
    quality = common.quality(monitors, in_odd, ood)

    rates = [times.size * EVAL_CHUNK / times.sum() for times in eval_slots]
    p50_ms, p95_ms = common.slot_latency(eval_slots)
    metrics = {
        # Set-up, fit and evaluation are deterministic work, and host noise
        # only ever lengthens it: the shortest sample, the shortest fit, the
        # fastest slot.
        "setup_s": min(setup_times),
        "fit_s": min(fit_times),
        "fps": max(rates),
        "latency_p50_ms": p50_ms,
        "latency_p95_ms": p95_ms,
        "rss_mb": common.peak_rss_mb(),
    }
    failed = mismatches + unsound + verdict_mismatches
    attempted = len(fit_times) + len(traced_fit_times) + checked + scored
    details = {
        "fit_s": timing_summary(fit_times, scale=1.0),
        "setup_s": timing_summary(setup_times, scale=1.0),
        "eval_slots": {
            "fps": rates,
            "p50_ms": [float(np.median(times)) * 1e3 for times in eval_slots],
        },
        "eval_chunk_ms": timing_summary(np.concatenate(eval_slots)),
        "quality": quality,
        "oracle": {
            "mirror_vs_bdd_mismatches": mismatches,
            "mirror_probes_checked": checked,
            "robust_unsound_frames": unsound,
            "engine_vs_warn_batch_mismatches": verdict_mismatches,
        },
        "fits": len(fit_times) + len(traced_fit_times),
        "rows_per_fit": int(rows.shape[0]),
        "eval_frames": scored,
    }
    if trace:
        fits = len(traced_fit_times)
        stats = dict(getattr(backend, "stats", {}))
        slot_fits = len(fit_times) + fits
        closed, lp_stars = stats.get("closed_form_stars", 0), stats.get("lp_stars", 0)
        per_layer = layers.fit_layers(fit_tracer, fits)
        per_layer.update(layers.scoring_layers(eval_tracer))
        per_layer.update(layers.mirror_metrics(common.pattern_sets(fitted)))
        per_layer.update(
            {
                "nn.layers_unused_frac": layers.layers_unused_frac(network, monitors),
                "symbolic.star_lp_programs": common.ratio(
                    stats.get("lp_programs", 0), slot_fits
                ),
                "symbolic.star_lp_objectives": common.ratio(
                    stats.get("lp_objectives", 0), slot_fits
                ),
                "symbolic.star_closed_form_frac": common.ratio(closed, closed + lp_stars),
                "symbolic.bound_cache_hit_frac": common.ratio(bound_hits, bound_lookups),
                "monitors.fp_rate": quality["fp_rate"],
                "monitors.detect_rate": quality["detect_rate"],
                "trace.overhead_frac": median(traced_fit_times) / median(fit_times) - 1.0,
                "trace.unattributed_frac": layers.unattributed(fit_tracer, "fit"),
            }
        )
        details["runtime_shares"] = layers.runtime_shares(eval_tracer)
        details["tracers"] = {"fit": fit_tracer, "eval": eval_tracer}
        metrics = per_layer
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, details=details)
