"""In-process streaming workload: ``stream_track``.

A ``StreamingScorer`` hosts the six box-fitted monitors of the track
deployment.  Frames are a seeded, shuffled pool: half jittered held-out
(in-ODD) frames and half out-of-ODD scenario frames, so in-ODD probes stop
at the exact pass and out-of-ODD probes fall through to the range pass.

The run alternates one-second slots of two kinds, so a slow spell of the
host moves a few slots of each rather than all of one:

* open loop: one producer sends ``BURST_A``-frame bursts at the fixed rate
  ``RATE_FPS`` (about a quarter of the saturated rate on a 2-core x86 host;
  at half of it the tail grew many-fold whenever the host slowed); each
  frame's latency runs from its due time to its future resolving, so a
  stall charges every frame queued behind it;
* closed loop: the producer keeps ``WINDOW_B`` bursts of ``BURST_B``
  frames in flight; throughput is frames resolved per second.

Every served verdict is checked against the offline ``warn_batch`` of the
same monitors.
"""

from __future__ import annotations

import collections
import contextlib
import time

import numpy as np

import common
import layers
from common import Outcome, clock, median, timing_summary
from tracing import Tracer, patched, program_targets

#: Open-loop arrival rate (frames/s) and burst size.
RATE_FPS = 5000.0
BURST_A = 16
#: Closed-loop burst size and bursts kept in flight.
BURST_B = 64
WINDOW_B = 8
MAX_BATCH = 256
MAX_LATENCY = 0.002
POOL_FRAMES = 4096
WARMUP_FITS = 3
#: Fits per set-up: the slot's fit time is the shortest, the set-up time
#: runs from the start of the last one to the first verdict.
FITS_PER_SETUP = 5
#: Closed-loop load run before the measured phases (allocator, caches).
WARMUP_S = 0.5
#: Length of one open- or closed-loop slot; the run alternates them.
SLOT_S = 1.0
RESULT_TIMEOUT = 60.0


class _DoneClock:
    """Future done-callback that stamps the resolution time of one frame."""

    __slots__ = ("stamps", "index")

    def __init__(self, stamps: np.ndarray, index: int) -> None:
        self.stamps = stamps
        self.index = index

    def __call__(self, _future) -> None:
        self.stamps[self.index] = clock()


def _settled(stamps: np.ndarray) -> np.ndarray:
    """``stamps`` once every done-callback has written its stamp.

    ``Future.set_result`` wakes the threads waiting in ``result()`` before
    it runs the done-callbacks, so a drained loop can get here first.
    """
    deadline = clock() + RESULT_TIMEOUT
    while np.isnan(stamps).any():
        if clock() > deadline:
            raise TimeoutError("frame resolution stamps were never written")
        time.sleep(1e-4)
    return stamps


def _setup(deployment, builders, policy, first_frame, fits):
    """Fit the six monitors ``fits`` times and bring up a scorer on the last
    fit to its first verdict.  Returns the scorer, monitors and engine, the
    fit times, and the set-up time (last fit to first verdict)."""
    from repro.runtime.engine import BatchScoringEngine
    from repro.service import StreamingScorer

    fit_times = []
    for _ in range(fits):
        start = clock()
        engine = BatchScoringEngine(deployment.network)
        monitors = common.fit_all(builders, deployment.network, deployment.train, engine)
        fitted = clock()
        fit_times.append(fitted - start)
    engine.cache.clear()
    scorer = StreamingScorer(deployment.network, policy=policy, engine=engine)
    for name, monitor in monitors.items():
        scorer.register(name, monitor)
    scorer.start()
    scorer.submit(first_frame).result(timeout=RESULT_TIMEOUT)
    return scorer, monitors, engine, fit_times, clock() - start


class _Oracle:
    """Checks served verdicts against the offline ``warn_batch``, burst by
    burst as they complete, so the producer keeps no resolved futures."""

    def __init__(self, offline) -> None:
        self.offline = offline
        self.frames = 0
        self.mismatched = 0

    def check(self, futures, indices) -> int:
        """Wait for one burst and check it; returns its frame count."""
        for future, index in zip(futures, indices):
            warns = future.result(timeout=RESULT_TIMEOUT).warns
            if any(warns[name] != flags[index] for name, flags in self.offline.items()):
                self.mismatched += 1
        self.frames += len(futures)
        return len(futures)


def _open_loop(scorer, oracle, pool, seconds, rate, burst, cursor):
    """Open loop. Returns per-frame due/done stamps, burst lateness and
    per-burst submit times."""
    bursts = max(1, int(seconds * rate / burst))
    frames = bursts * burst
    due = np.empty(frames)
    done = np.full(frames, np.nan)
    indices = (cursor + np.arange(frames)) % pool.shape[0]
    pending = collections.deque()
    late, submit_s = [], []
    begin = clock() + 0.01
    for k in range(bursts):
        at = begin + k * burst / rate
        wait = at - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        late.append(sent - at)
        rows = slice(k * burst, (k + 1) * burst)
        due[rows] = at
        batch = scorer.submit_many(pool[indices[rows]])
        submit_s.append(clock() - sent)
        for offset, future in enumerate(batch):
            future.add_done_callback(_DoneClock(done, k * burst + offset))
        pending.append((batch, indices[rows]))
        while pending and pending[0][0][-1].done():
            oracle.check(*pending.popleft())
    while pending:
        oracle.check(*pending.popleft())
    return due, _settled(done), np.asarray(late), np.asarray(submit_s)


def _closed_loop(scorer, oracle, pool, seconds, burst, window, cursor, stamp=False):
    """Closed loop. Returns resolved frames per second, the next cursor and
    (when ``stamp``) per-frame resolution times."""
    done = []

    def submit():
        nonlocal cursor
        rows = (cursor + np.arange(burst)) % pool.shape[0]
        cursor += burst
        batch = scorer.submit_many(pool[rows])
        if stamp:
            stamps = np.full(burst, np.nan)
            done.append(stamps)
            for offset, future in enumerate(batch):
                future.add_done_callback(_DoneClock(stamps, offset))
        return batch, rows

    rate = common.closed_loop(submit, lambda item: oracle.check(*item), seconds, window)
    return rate, cursor, _settled(np.concatenate(done)) if stamp else None


def _batch_service(tracer, due, done):
    """Queue wait per frame and resolution time per batch from the spans.

    The scorer is FIFO, so the k-th traced ``score_batch`` scores the next
    ``rows`` frames in submission order.  A batch resolves when its last
    future is done; the resolution is recorded as a ``service.resolve``
    span.  Returns (queue waits, total resolution seconds, frames).
    """
    batches = sorted(
        (s for s in tracer.finished() if s[0] == "engine.score_batch"),
        key=lambda s: s[1],
    )
    waits, resolve, cursor = [], 0.0, 0
    for _, start, end, _, _, rows in batches:
        frames = slice(cursor, cursor + rows)
        if due is not None:
            waits.extend(start - due[frames])
        resolved = float(np.max(done[frames]))
        tracer.add("service.resolve", end, resolved, rows=rows)
        resolve += resolved - end
        cursor += rows
    return np.asarray(waits), resolve, cursor


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    from repro.runtime.engine import BatchScoringEngine
    from repro.service import BatchPolicy, StreamingScorer

    deployment = common.track_deployment()
    builders = common.six_monitor_builders(deployment.layer)
    size = POOL_FRAMES // 8 if tiny else POOL_FRAMES
    in_odd, ood = common.track_frames(
        deployment, seed, size // 2, size // 2, perturbed_training=False
    )
    order = np.random.default_rng([seed, 21]).permutation(size)
    pool = np.vstack([in_odd, ood])[order]
    policy = BatchPolicy(max_batch=MAX_BATCH, max_latency=MAX_LATENCY)

    # Untimed fits first: the first fits of a process pay one-off costs.
    for _ in range(WARMUP_FITS):
        common.fit_all(
            builders,
            deployment.network,
            deployment.train,
            BatchScoringEngine(deployment.network),
        )
    fit_slots, setup_times = [], []

    def set_up():
        scorer, monitors, engine, fit_times, setup_s = _setup(
            deployment, builders, policy, pool[0], 1 if tiny else FITS_PER_SETUP
        )
        fit_slots.append(min(fit_times))
        setup_times.append(setup_s)
        return scorer, monitors, engine

    scorer, monitors, engine = set_up()
    bound_hits = engine.cache.bound_hits
    bound_lookups = bound_hits + engine.cache.bound_misses
    offline = {name: monitor.warn_batch(pool) for name, monitor in monitors.items()}

    targets = program_targets() + [(StreamingScorer, "submit_many", "service.submit")]
    tracer_a, tracer_b = Tracer(), Tracer()
    oracle_a, oracle_b = _Oracle(offline), _Oracle(offline)
    # Open- and closed-loop slots alternate; a traced run alternates pairs
    # of untraced and traced closed-loop slots, so both see the same spells
    # of the host.
    cycle = 4 if trace else 2
    slots = max(cycle, cycle * round(seconds / (cycle * SLOT_S)))
    slot_s = seconds / slots
    open_slots, rates, traced_rates, traced_b = [], [], [], []
    flushes, batches, frames = {}, 0, 0
    try:
        _, cursor, _ = _closed_loop(
            scorer, oracle_b, pool, 0.1 if tiny else WARMUP_S, BURST_B, WINDOW_B, 1
        )
        for slot in range(slots):
            if slot:
                # A fresh deployment per slot spreads the set-up samples
                # over the run; the fits are deterministic, so the offline
                # verdicts hold for every one of them.
                scorer.close()
                scorer, monitors, engine = set_up()
            if slot % 2 == 0:
                before = scorer.stats.snapshot()
                with patched(tracer_a, targets) if trace else contextlib.nullcontext():
                    open_slots.append(
                        _open_loop(scorer, oracle_a, pool, slot_s, RATE_FPS, BURST_A, cursor)
                    )
                cursor += open_slots[-1][0].size
                slot_flushes, slot_batches, slot_frames = _ledger(
                    before, scorer.stats.snapshot()
                )
                for reason, count in slot_flushes.items():
                    flushes[reason] = flushes.get(reason, 0) + count
                batches += slot_batches
                frames += slot_frames
                continue
            if trace and slot % 4 >= 2:
                # (first cursor, score_batch spans before, wall start)
                mark = (cursor, tracer_b.count("engine.score_batch"), clock())
                with patched(tracer_b, targets):
                    rate, cursor, stamps = _closed_loop(
                        scorer, oracle_b, pool, slot_s, BURST_B, WINDOW_B, cursor, stamp=True
                    )
                traced_b.append((*mark, clock(), stamps))
                traced_rates.append(rate)
            else:
                rate, cursor, _ = _closed_loop(
                    scorer, oracle_b, pool, slot_s, BURST_B, WINDOW_B, cursor
                )
                rates.append(rate)
    finally:
        scorer.close()
    due, done, late, submit_s = (np.concatenate(part) for part in zip(*open_slots))
    slot_latency = [d - u for u, d, _, _ in open_slots]
    p50_ms, p95_ms = common.slot_latency(slot_latency)

    failed = oracle_a.mismatched + oracle_b.mismatched
    attempted = oracle_a.frames + oracle_b.frames
    latency = timing_summary(done - due)
    late_ms = timing_summary(late)
    quality = common.quality(monitors, in_odd, ood)
    details = {
        "latency_ms": latency,
        "slots": {
            "open_loop_p50_ms": [float(np.median(v)) * 1e3 for v in slot_latency],
            "closed_loop_fps": rates,
        },
        "fit_slots_s": fit_slots,
        "setup_s": timing_summary(setup_times, scale=1.0),
        "open_loop": {
            "rate_fps": RATE_FPS,
            "burst": BURST_A,
            "frames": oracle_a.frames,
            "late_ms": late_ms,
            "batches": batches,
            "batch_frames_mean": common.ratio(frames, batches),
            "flush_reasons": flushes,
        },
        "closed_loop": {"burst": BURST_B, "window": WINDOW_B, "frames": oracle_b.frames},
        "quality": quality,
        "oracle": {"served_vs_offline_mismatched_frames": failed},
    }
    metrics = {
        "setup_s": min(setup_times),
        "fit_s": min(fit_slots),
        "fps": max(rates),
        "latency_p50_ms": p50_ms,
        "latency_p95_ms": p95_ms,
        "rss_mb": common.peak_rss_mb(),
    }
    if trace:
        waits, resolve_a, frames_a = _batch_service(tracer_a, due, done)
        stamps_b = np.concatenate([entry[4] for entry in traced_b])
        _, resolve_b, _ = _batch_service(tracer_b, None, stamps_b)
        window = sum(end - begin for _, _, begin, end, _ in traced_b)
        covered = float(tracer_b.durations("engine.score_batch").sum()) + resolve_b
        replay_tracer = _replay(engine, monitors, pool, tracer_b, traced_b)
        per_layer = layers.scoring_layers(replay_tracer)
        per_layer.update(layers.mirror_metrics(common.pattern_sets(monitors)))
        per_layer.update(
            {
                "nn.layers_unused_frac": layers.layers_unused_frac(
                    deployment.network, monitors
                ),
                "symbolic.bound_cache_hit_frac": common.ratio(bound_hits, bound_lookups),
                "monitors.fp_rate": quality["fp_rate"],
                "monitors.detect_rate": quality["detect_rate"],
                "service.submit_us_per_frame": common.ratio(
                    float(submit_s.sum()) * 1e6, oracle_a.frames
                ),
                "service.queue_wait_p50_ms": layers.percentile_ms(waits, 50),
                "service.queue_wait_p99_ms": layers.percentile_ms(waits, 99),
                "service.batch_frames_mean": common.ratio(frames, batches),
                "service.deadline_flush_frac": common.ratio(
                    flushes.get("deadline", 0), batches
                ),
                "service.resolve_us_per_frame": common.ratio(resolve_a * 1e6, frames_a),
                "loadgen.late_p99_ms": late_ms.get("p99", 0.0),
                "trace.overhead_frac": median(rates) / median(traced_rates) - 1.0,
                "trace.unattributed_frac": 1.0 - common.ratio(covered, window),
            }
        )
        per_layer.update(_fit_layers_traced(deployment, builders))
        details["runtime_shares"] = layers.runtime_shares(replay_tracer)
        details["runtime_shares_live"] = layers.runtime_shares(tracer_b)
        details["tracers"] = {
            "open_loop": tracer_a,
            "closed_loop": tracer_b,
            "replay": replay_tracer,
        }
        metrics = per_layer
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, details=details)


def _replay(engine, monitors, pool, live, slots):
    """Re-score the traced closed-loop batches (same frames, same sizes) on
    this thread with no producer running.

    Under load the scorer's worker shares the interpreter lock with the
    producer, and a span around a call that releases the lock (the BLAS
    forward pass) absorbs the wait to get it back; the replay gives the
    per-layer split of ``score_batch`` without that wait.  ``slots`` holds,
    per traced slot, its first pool cursor and the number of ``score_batch``
    spans recorded before it.
    """
    sizes = [s[5] for s in live.finished() if s[0] == "engine.score_batch"]
    bounds = [entry[1] for entry in slots] + [len(sizes)]
    tracer = Tracer()
    with patched(tracer, program_targets()):
        for (cursor, *_), first, last in zip(slots, bounds, bounds[1:]):
            for rows in sizes[first:last]:
                frames = pool[(cursor + np.arange(rows)) % pool.shape[0]]
                engine.score_batch(monitors, frames, use_cache=False)
                cursor += rows
    return tracer


def _ledger(before, after):
    """Flush reasons, batches and frames between two stats snapshots."""
    flushes = {
        reason: after["flush_reasons"].get(reason, 0) - before["flush_reasons"].get(reason, 0)
        for reason in after["flush_reasons"]
    }
    return (
        flushes,
        after["batches"] - before["batches"],
        after["frames_scored"] - before["frames_scored"],
    )


def _fit_layers_traced(deployment, builders):
    """Construction layers of one traced set-up fit (box symbolic, BDD, ...)."""
    from repro.runtime.engine import BatchScoringEngine

    tracer = Tracer()
    with patched(tracer, program_targets()):
        engine = BatchScoringEngine(deployment.network)
        common.fit_all(builders, deployment.network, deployment.train, engine)
    return layers.fit_layers(tracer, 1)
