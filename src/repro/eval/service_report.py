"""Throughput / latency reporting for the streaming service path.

The offline metrics in this package answer "how well does the monitor
detect?"; this module answers the serving question — "how fast, and at what
tail latency, does the deployed scorer run?".  It formats the statistics
snapshot of a :class:`~repro.service.streaming.StreamingScorer` into the
same table style as the experiment reports, and offers a small measurement
harness that replays a frame set through a scorer to obtain
wall-clock-grounded throughput numbers (used by the streaming benchmark and
the example script).
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

import numpy as np

from ..exceptions import ConfigurationError
from .reporting import format_table

__all__ = [
    "format_scaling_report",
    "format_service_report",
    "measure_remote_throughput",
    "measure_streaming_throughput",
]


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def format_service_report(
    snapshot: Mapping[str, object], title: Optional[str] = None
) -> str:
    """Render a :meth:`ServiceStats.snapshot` as a readable table."""
    reasons = snapshot.get("flush_reasons", {})
    rows = [
        ["frames submitted", snapshot.get("frames_submitted", 0)],
        ["frames scored", snapshot.get("frames_scored", 0)],
        ["frames failed", snapshot.get("frames_failed", 0)],
        ["frames cancelled", snapshot.get("frames_cancelled", 0)],
        ["micro-batches", snapshot.get("batches", 0)],
        ["mean batch size", f"{snapshot.get('mean_batch_size', 0.0):.1f}"],
        ["max batch size", snapshot.get("max_batch_size", 0)],
    ]
    if isinstance(reasons, Mapping):
        # Render whatever reasons the front-end actually recorded ("size",
        # "adaptive", "deadline", "drain", anything future) —
        # hard-coding the key set here is how new reasons go invisible.
        labels = " / ".join(str(reason) for reason in reasons)
        counts = " / ".join(str(count) for count in reasons.values())
        rows.append([f"flushes ({labels})", counts])
    events = snapshot.get("event_counts", {})
    if isinstance(events, Mapping) and events:
        # Registry churn: register/promote/rollback/attach_shadow/… — the
        # lifecycle side of the ledger, same open-key treatment as reasons.
        labels = " / ".join(str(kind) for kind in sorted(events))
        counts = " / ".join(str(events[kind]) for kind in sorted(events))
        rows.append([f"events ({labels})", counts])
    for key, label in (
        ("latency_mean_s", "latency mean"),
        ("latency_p50_s", "latency p50"),
        ("latency_p95_s", "latency p95"),
        ("latency_max_s", "latency max"),
    ):
        if key in snapshot:
            rows.append([label, _format_seconds(float(snapshot[key]))])
    return format_table(
        ["metric", "value"], rows, title=title or "Streaming service report"
    )


def measure_streaming_throughput(
    scorer,
    frames: np.ndarray,
    burst_size: int = 0,
) -> Dict[str, float]:
    """Replay ``frames`` through a running scorer and measure throughput.

    ``burst_size`` controls how many frames each :meth:`submit_many` call
    carries (``0`` submits the whole set as one burst; ``1`` degenerates to
    per-frame :meth:`submit` traffic).  Blocks until every future resolved;
    returns wall time, frames/second and the mean wall time *per frame*
    (inverse throughput — for true submit-to-resolve latency percentiles
    read ``scorer.stats.snapshot()``).
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[0] == 0:
        raise ConfigurationError("throughput measurement needs at least one frame")
    if burst_size < 0:
        raise ConfigurationError("burst_size must be non-negative")
    burst = frames.shape[0] if burst_size == 0 else int(burst_size)
    futures = []
    start = time.perf_counter()
    for begin in range(0, frames.shape[0], burst):
        futures.extend(scorer.submit_many(frames[begin : begin + burst]))
    results = [future.result() for future in futures]
    elapsed = time.perf_counter() - start
    return {
        "frames": float(len(results)),
        "wall_time_s": elapsed,
        "frames_per_second": len(results) / elapsed if elapsed > 0 else float("inf"),
        "mean_seconds_per_frame": elapsed / len(results),
    }


def measure_remote_throughput(
    client,
    frames: np.ndarray,
    burst_size: int = 0,
    timeout: Optional[float] = None,
) -> Dict[str, float]:
    """Replay ``frames`` through a socket client and measure throughput.

    The remote twin of :func:`measure_streaming_throughput`: each burst goes
    out as one pipelined :meth:`~repro.serving.ScoringClient.score_async`
    request (so the connection keeps many bursts in flight, exactly how a
    deployment drives the server), then all responses are awaited.  Returns
    the same metric dict, so scaling reports can mix local and remote rows.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[0] == 0:
        raise ConfigurationError("throughput measurement needs at least one frame")
    if burst_size < 0:
        raise ConfigurationError("burst_size must be non-negative")
    burst = frames.shape[0] if burst_size == 0 else int(burst_size)
    futures = []
    start = time.perf_counter()
    for begin in range(0, frames.shape[0], burst):
        futures.append(client.score_async(frames[begin : begin + burst]))
    total = 0
    for future in futures:
        warns = future.result(timeout)
        total += len(next(iter(warns.values()))) if warns else 0
    elapsed = time.perf_counter() - start
    count = int(frames.shape[0])
    return {
        "frames": float(count),
        "frames_resolved": float(total),
        "wall_time_s": elapsed,
        "frames_per_second": count / elapsed if elapsed > 0 else float("inf"),
        "mean_seconds_per_frame": elapsed / count,
    }


def format_scaling_report(
    measurements: Mapping[str, Mapping[str, float]],
    baseline: Optional[str] = None,
    title: Optional[str] = None,
) -> str:
    """Tabulate throughput measurements side by side with speedup factors.

    ``measurements`` maps a configuration label (e.g. ``"in-process"``,
    ``"remote w=4"``) to a metric dict from either measurement helper.
    ``baseline`` names the row every speedup is computed against (defaults
    to the first row).
    """
    if not measurements:
        raise ConfigurationError("scaling report needs at least one measurement")
    labels = list(measurements)
    base_label = baseline if baseline is not None else labels[0]
    if base_label not in measurements:
        raise ConfigurationError(f"baseline '{base_label}' is not a measured row")
    base_fps = float(measurements[base_label]["frames_per_second"])
    rows = []
    for label in labels:
        metrics = measurements[label]
        fps = float(metrics["frames_per_second"])
        rows.append(
            [
                label,
                f"{int(metrics['frames'])}",
                _format_seconds(float(metrics["wall_time_s"])),
                f"{fps:.0f}",
                f"{fps / base_fps:.2f}x" if base_fps > 0 else "n/a",
            ]
        )
    return format_table(
        ["configuration", "frames", "wall time", "frames/s", f"vs {base_label}"],
        rows,
        title=title or "Scoring throughput scaling",
    )
