"""Socket-serving workload: ``remote_wide``.

The deployment has the shape of the E13 benchmark: a 32→512→512→256→8 MLP
with Boolean and 5-cut interval monitors on every hidden layer plus a
min-max monitor, fitted on fixed rows, saved with ``save_deployment`` and
served by ``perfbench/serve_wide.py`` — a ``ScoringServer`` over a
1-worker ``WorkerPool`` in its own process.  The load generator (this
process) holds one ``ScoringClient`` connection and keeps ``WINDOW``
pipelined ``BURST``-frame requests in flight (closed loop).  Frames are a
seeded pool: half fit rows (exact-pass hits) and half fresh draws.

Every served verdict is checked against the offline ``warn_batch``.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import common
import layers
from common import Outcome, clock, median, timing_summary
from tracing import Tracer, patched, program_targets

INPUT_DIM = 32
HIDDEN_DIMS = (512, 512, 256)
NUM_CUTS = 5
NUM_FIT = 256
DEPLOYMENT_SEED = 13
BURST = 32
WINDOW = 2
POOL_FRAMES = 2048
#: Load slots per run.  The server is cold-started before every slot (8
#: cold starts) and the deployment refitted after every slot but the last
#: (8 fits with the one before serving), so both span the run.
LOAD_SLOTS = 8
CODEC_REPS = 200
TIMEOUT = 60.0
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_wide.py")


def _fit(network, rows):
    from repro.monitors.boolean import BooleanPatternMonitor
    from repro.monitors.interval import IntervalPatternMonitor
    from repro.monitors.minmax import MinMaxMonitor

    monitors = {"minmax": MinMaxMonitor(network, 2 * len(HIDDEN_DIMS)).fit(rows)}
    for depth in range(1, len(HIDDEN_DIMS) + 1):
        layer = 2 * depth
        monitors[f"boolean_l{depth}"] = BooleanPatternMonitor(
            network, layer, thresholds="mean"
        ).fit(rows)
        monitors[f"interval_l{depth}"] = IntervalPatternMonitor(
            network, layer, num_cuts=NUM_CUTS
        ).fit(rows)
    return monitors


def _deployment(tiny: bool):
    """The wide network and its fit rows.

    An untimed fit on an eighth of the rows runs first: the first fit of a
    process pays one-off costs (allocator growth, first calls) of the
    order of the fit itself.
    """
    from repro.nn.network import mlp

    network = mlp(
        input_dim=INPUT_DIM,
        hidden_dims=list(HIDDEN_DIMS),
        output_dim=8,
        activation="relu",
        seed=DEPLOYMENT_SEED,
    )
    rows = np.random.default_rng(DEPLOYMENT_SEED).normal(size=(NUM_FIT, INPUT_DIM))
    _fit(network, rows[: NUM_FIT // 8])
    return network, rows[: NUM_FIT // 8] if tiny else rows


def _timed_fit(network, rows, times):
    start = clock()
    monitors = _fit(network, rows)
    times.append(clock() - start)
    return monitors


class _Server:
    """One server process; ``stop`` drains it and returns its memory record."""

    def __init__(self, bundle: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, SERVER, bundle],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=TIMEOUT)
            raise RuntimeError("the scoring server exited during start-up")
        info = json.loads(line)
        self.address = (info["host"], info["port"])
        self.start = info["start"]

    def stop(self) -> dict:
        try:
            self.process.stdin.close()
            line = self.process.stdout.readline()
            self.process.wait(timeout=TIMEOUT)
            return json.loads(line) if line else {}
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process has ended.  Closing its standard input
        asks it to drain and join its worker; a kill is the last resort
        (it would orphan the worker, which only its server stops)."""
        if self.process.poll() is None:
            if not self.process.stdin.closed:
                self.process.stdin.close()
            try:
                self.process.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _check(warns, indices, offline) -> int:
    """Frames of one burst whose served verdicts differ from the offline ones."""
    bad = np.zeros(len(indices), dtype=bool)
    for name, flags in offline.items():
        bad |= np.asarray(warns[name], dtype=bool) != flags[indices]
    return int(bad.sum())


def _load(client, pool, offline, seconds, cursor, tracer=None):
    """Closed loop of pipelined bursts; returns latencies and the rate."""
    latencies = []
    mismatched = 0

    def submit():
        nonlocal cursor
        rows = (cursor + np.arange(BURST)) % pool.shape[0]
        cursor += BURST
        at = clock()
        return client.score_async(pool[rows]), rows, at

    def check(item):
        nonlocal mismatched
        future, rows, at = item
        warns = future.result(timeout=TIMEOUT)
        now = clock()
        if tracer is not None:
            tracer.add("serving.request", at, now, rows=len(rows))
        latencies.append(now - at)
        mismatched += _check(warns, rows, offline)
        return len(rows)

    rate = common.closed_loop(submit, check, seconds, WINDOW)
    return {
        "latency": np.asarray(latencies),
        "rate": rate,
        "frames": len(latencies) * BURST,
        "mismatched": mismatched,
        "cursor": cursor,
    }


def _codec_costs(pool, offline):
    """Wire codec and ring copy costs on real 32-frame payloads (µs)."""
    from repro.serving import protocol
    from repro.serving.ring import SharedFrameRing

    bursts = [pool[i : i + BURST] for i in range(0, pool.shape[0], BURST)]
    verdicts = [
        {name: flags[i : i + BURST] for name, flags in offline.items()}
        for i in range(0, pool.shape[0], BURST)
    ]
    start = clock()
    for k in range(CODEC_REPS):
        protocol.decode_score_request(protocol.encode_score_request(bursts[k % len(bursts)]))
    request = (clock() - start) / CODEC_REPS
    start = clock()
    for k in range(CODEC_REPS):
        protocol.decode_result(protocol.encode_result(verdicts[k % len(verdicts)]))
    result = (clock() - start) / CODEC_REPS
    ring = SharedFrameRing(2, BURST, pool.shape[1])
    try:
        start = clock()
        for k in range(CODEC_REPS):
            burst = bursts[k % len(bursts)]
            ring.write(k % 2, burst)
            ring.read(k % 2, burst.shape[0])
        copy = (clock() - start) / CODEC_REPS
    finally:
        ring.close()
        ring.unlink()
    return request * 1e6, result * 1e6, copy * 1e6


def _replay(bundle_dir, pool, tracer=None):
    """In-process ``score_batch(use_cache=False)`` replay at the pool's batch
    size, on monitors loaded from the bundle as the worker loads them."""
    from repro.runtime.engine import BatchScoringEngine
    from repro.serving.artifacts import DeploymentBundle

    bundle = DeploymentBundle(bundle_dir)
    network = bundle.load_network()
    monitors = bundle.load_monitors(network)
    engine = BatchScoringEngine(network)
    times = []
    context = patched(tracer, program_targets()) if tracer else contextlib.nullcontext()
    with context:
        for begin in range(0, pool.shape[0], BURST):
            start = clock()
            engine.score_batch(monitors, pool[begin : begin + BURST], use_cache=False)
            times.append(clock() - start)
    return np.asarray(times), monitors


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    from repro.serving import save_deployment

    network, rows = _deployment(tiny)
    fit_times = []
    monitors = _timed_fit(network, rows, fit_times)
    rng = np.random.default_rng([seed, 31])
    size = POOL_FRAMES // 4 if tiny else POOL_FRAMES
    pool = np.vstack(
        [rows[rng.integers(0, rows.shape[0], size // 2)], rng.normal(size=(size // 2, INPUT_DIM))]
    )[rng.permutation(size)]
    offline = {name: monitor.warn_batch(pool) for name, monitor in monitors.items()}

    os.makedirs(common.WORK_DIR, exist_ok=True)
    bundle = os.path.join(common.WORK_DIR, f"remote-wide-{os.getpid()}")
    save_deployment(bundle, network, monitors)
    del monitors  # the bundle holds them; refits below build their own
    try:
        return _serve(bundle, network, rows, fit_times, pool, offline, seconds, trace)
    finally:
        shutil.rmtree(bundle, ignore_errors=True)


def _serve(bundle, network, rows, fit_times, pool, offline, seconds, trace):
    """Load slots, with cold starts of the server and refits of the
    deployment between them."""
    from repro.serving import ScoringClient, protocol

    setup_times, usage, slots = [], [], []
    mismatched = attempted = 0
    server = client = None
    request_tracer = Tracer()
    targets = [
        (protocol, "encode_score_request", "serving.encode_request"),
        (protocol, "decode_result", "serving.decode_result"),
    ]
    count, cursor = LOAD_SLOTS, BURST
    try:
        for slot in range(count):
            # Cold starts and refits come between the load slots, so their
            # samples span the run like the load does.
            if server is not None:
                client.close()
                usage.append(server.stop())
            server = _Server(bundle)
            client = ScoringClient(server.address, timeout=TIMEOUT).connect()
            first = np.arange(BURST)
            warns = client.score(pool[first])
            setup_times.append(time.monotonic() - server.start)
            mismatched += _check(warns, first, offline)
            attempted += BURST
            # Pairs of untraced and traced slots alternate, so both see
            # the same spells of the host.
            traced = trace and slot % 4 >= 2
            with patched(request_tracer, targets) if traced else contextlib.nullcontext():
                load = _load(
                    client,
                    pool,
                    offline,
                    seconds / count,
                    cursor,
                    request_tracer if traced else None,
                )
            load["traced"] = traced
            cursor = load["cursor"]
            slots.append(load)
            mismatched += load["mismatched"]
            attempted += load["frames"]
            if slot < count - 1:
                _timed_fit(network, rows, fit_times)
        stats = client.stats()
        client.close()
        client = None
        usage.append(server.stop())
        server = None
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.kill()

    plain = [load for load in slots if not load["traced"]]
    latency = timing_summary(np.concatenate([load["latency"] for load in plain]))
    p50_ms, p95_ms = common.slot_latency([load["latency"] for load in plain])
    rates = [load["rate"] for load in plain]
    last = usage[-1]
    rss = common.peak_rss_mb() + last.get("rss_mb", 0.0) + last.get("worker_rss_mb", 0.0)
    metrics = {
        "setup_s": min(setup_times),
        "fit_s": min(fit_times),
        "fps": max(rates),
        "latency_p50_ms": p50_ms,
        "latency_p95_ms": p95_ms,
        "rss_mb": rss,
    }
    flushes = stats.get("flush_reasons", {})
    batches = stats.get("batches", 0)
    details = {
        "latency_ms": latency,
        "slots": {
            "fps": rates,
            "p50_ms": [float(np.median(load["latency"])) * 1e3 for load in plain],
        },
        "setup_s": timing_summary(setup_times, scale=1.0),
        "fit_s": timing_summary(fit_times, scale=1.0),
        "fit_rows": int(rows.shape[0]),
        "burst": BURST,
        "window": WINDOW,
        "server_usage": usage,
        "pool_stats": {
            key: stats.get(key)
            for key in ("batches", "mean_batch_size", "flush_reasons", "latency_p50_s")
        },
        "restarts": stats.get("scorer", {}).get("restarts"),
        "oracle": {"served_vs_offline_mismatched_frames": mismatched},
    }
    if trace:
        worker_score, monitors = _replay(bundle, pool)
        replay_tracer = Tracer()
        _replay(bundle, pool, replay_tracer)
        traced_rates = [load["rate"] for load in slots if load["traced"]]
        request_us, result_us, ring_us = _codec_costs(pool, offline)
        pool_p50_ms = float(stats.get("latency_p50_s", 0.0)) * 1e3
        total, covered = _client_cover(request_tracer)
        per_layer = layers.scoring_layers(replay_tracer)
        per_layer.update(layers.mirror_metrics(common.pattern_sets(monitors), nodes=False))
        per_layer.update(
            {
                "nn.layers_unused_frac": layers.layers_unused_frac(network, monitors),
                "serving.request_codec_us": request_us,
                "serving.result_codec_us": result_us,
                "serving.ring_copy_us": ring_us,
                "serving.pool_latency_p50_ms": pool_p50_ms,
                "serving.transport_ms": np.percentile(slots[-1]["latency"], 50) * 1e3
                - pool_p50_ms,
                "serving.worker_score_ms": float(np.median(worker_score) * 1e3),
                "serving.batch_frames_mean": float(stats.get("mean_batch_size", 0.0)),
                "serving.adaptive_flush_frac": common.ratio(
                    flushes.get("adaptive", 0), batches
                ),
                "serving.restarts": float(stats.get("scorer", {}).get("restarts", 0)),
                "trace.overhead_frac": median(rates) / median(traced_rates) - 1.0,
                "trace.unattributed_frac": 1.0 - common.ratio(covered, total),
            }
        )
        details["runtime_shares"] = layers.runtime_shares(replay_tracer)
        details["tracers"] = {"requests": request_tracer, "replay": replay_tracer}
        metrics = per_layer
    return Outcome(
        metrics=metrics, attempted=attempted, failed=mismatched, details=details
    )


def _client_cover(tracer):
    """Client request time and the part of it client-side codec spans cover.

    The request spans are measured from the load generator's stamps; the
    encode spans run on the submitting thread and the decode spans on the
    client's reader thread, so their sum is the client's own share of each
    request, and the remainder is transport plus the server and worker.
    """
    total = float(tracer.durations("serving.request").sum())
    covered = float(
        tracer.durations("serving.encode_request").sum()
        + tracer.durations("serving.decode_result").sum()
    )
    return total, covered
