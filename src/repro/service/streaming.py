"""Streaming micro-batch scoring over a shared :class:`BatchScoringEngine`.

The paper's monitors are meant to run *online*, next to the deployed
network, flagging abnormal activation patterns frame by frame.  Scoring each
frame the moment it arrives wastes the batched substrate: a one-row forward
pass costs almost as much as a 64-row one, so at any realistic frame rate
the hardware sits idle between frames.  :class:`StreamingScorer` closes that
gap with classic micro-batching:

1. producers hand in single frames (:meth:`StreamingScorer.submit`) or small
   bursts (:meth:`StreamingScorer.submit_many`) and immediately receive a
   :class:`concurrent.futures.Future` per frame;
2. a worker thread coalesces queued frames under a
   :class:`BatchPolicy` — flush as soon as ``max_batch`` frames are pending,
   or when the *oldest* pending frame has waited ``max_latency`` seconds;
3. each coalesced batch runs through one shared
   :class:`~repro.runtime.engine.BatchScoringEngine` pass covering every
   registered monitor, and the per-frame futures resolve with
   :class:`FrameResult` verdicts.

Because a batch is scored by the same ``score_batch`` call the offline
harness uses — and the engine feeds every monitor the same vectorised layer
walk as a direct ``warn_batch`` — streaming verdicts are identical to
offline batch scoring for any interleaving of submissions (pinned by the
equivalence and hypothesis tests in ``tests/service/``).

The scorer hosts its monitors in a
:class:`~repro.monitors.registry.MonitorRegistry`, so several families
(standard + robust, ensembles, class-conditional dispatchers) serve side by
side over one network, and members can be added or retired mid-stream.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from ..monitors.base import MonitorVerdict
from ..monitors.registry import MonitorRegistry
from ..nn.network import Sequential
from ..runtime.engine import BatchScoringEngine

__all__ = [
    "BatchPolicy",
    "FrameRequest",
    "FrameResult",
    "MicroBatcher",
    "ServiceStats",
    "StreamingScorer",
]


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy of the streaming scorer.

    Parameters
    ----------
    max_batch:
        Flush as soon as this many frames are pending (the throughput knob).
    max_latency:
        Flush at the latest this many seconds after the *oldest* pending
        frame arrived (the tail-latency knob).  ``0`` degenerates to
        frame-at-a-time scoring whenever the producer is slower than the
        worker.
    max_pending:
        Optional bound on queued frames; :meth:`StreamingScorer.submit`
        raises :class:`~repro.exceptions.ServiceOverloadedError` instead of
        queueing past it.  ``None`` leaves the queue unbounded.
    """

    max_batch: int = 32
    max_latency: float = 0.005
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.max_latency < 0:
            raise ConfigurationError("max_latency must be non-negative")
        if self.max_pending is not None and self.max_pending < self.max_batch:
            raise ConfigurationError(
                "max_pending must be at least max_batch (one full flush)"
            )


@dataclass
class FrameResult:
    """Verdict of one streamed frame across every registered monitor."""

    warns: Dict[str, bool]
    verdicts: Optional[Dict[str, MonitorVerdict]] = None

    @property
    def any_warn(self) -> bool:
        """True when at least one registered monitor warned on the frame."""
        return any(self.warns.values())


@dataclass
class FrameRequest:
    """One queued frame: payload, enqueue time and the future to resolve."""

    frame: np.ndarray
    enqueued_at: float
    future: Future = field(default_factory=Future)


class MicroBatcher:
    """Pure coalescing core of the streaming scorer (no threads, no clock).

    Holds the pending frame queue and answers the two policy questions the
    worker loop needs — *when is a batch due* (:meth:`deadline`,
    :meth:`ready`) and *what does it contain* (:meth:`take`) — against an
    explicit ``now`` timestamp.  Keeping this logic free of threading and of
    ``time.monotonic()`` makes the flush-on-size / flush-on-deadline /
    drain-on-shutdown behaviour deterministically unit-testable; the
    :class:`StreamingScorer` drives it under a lock with the real clock.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._pending: "deque[FrameRequest]" = deque()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        """True when enough frames are pending for a size-triggered flush."""
        return len(self._pending) >= self.policy.max_batch

    def would_overflow(self, count: int) -> bool:
        """True when enqueueing ``count`` more frames would exceed ``max_pending``."""
        return (
            self.policy.max_pending is not None
            and len(self._pending) + count > self.policy.max_pending
        )

    @property
    def saturated(self) -> bool:
        """True when the ``max_pending`` backpressure bound is reached."""
        return self.would_overflow(1)

    def append(self, request: FrameRequest) -> None:
        self._pending.append(request)

    def deadline(self) -> Optional[float]:
        """Absolute time the oldest pending frame must be flushed by."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at + self.policy.max_latency

    def ready(self, now: float) -> bool:
        """True when a batch should flush at time ``now``."""
        if not self._pending:
            return False
        return self.full or now >= self.deadline()

    def take(self) -> List[FrameRequest]:
        """Pop the next batch (up to ``max_batch`` oldest frames)."""
        batch = []
        while self._pending and len(batch) < self.policy.max_batch:
            batch.append(self._pending.popleft())
        return batch

    def drain(self) -> List[List[FrameRequest]]:
        """Pop everything pending as a list of ``max_batch``-sized batches."""
        batches = []
        while self._pending:
            batches.append(self.take())
        return batches


class ServiceStats:
    """Running counters of a streaming scorer (thread-safe snapshots).

    Latencies are measured submit → future-resolved and kept in a bounded
    window so a long-lived service reports *recent* percentiles instead of
    averaging over its whole uptime.
    """

    def __init__(self, latency_window: int = 4096, event_window: int = 256) -> None:
        self._lock = threading.Lock()
        self.frames_submitted = 0
        self.frames_scored = 0
        self.frames_failed = 0
        self.frames_cancelled = 0
        self.batches = 0
        self.flush_reasons = {"size": 0, "adaptive": 0, "deadline": 0, "drain": 0}
        self.max_batch_size = 0
        self._latencies: "deque[float]" = deque(maxlen=int(latency_window))
        # Registry-churn ledger: timestamped register/unregister/promote/...
        # events, bounded so a long-lived service keeps *recent* history.
        self._events: "deque[Dict[str, object]]" = deque(maxlen=int(event_window))
        self.event_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record_submitted(self, count: int) -> None:
        with self._lock:
            self.frames_submitted += count

    def record_batch(
        self, size: int, reason: str, latencies: Sequence[float], failed: bool
    ) -> None:
        with self._lock:
            self.batches += 1
            # Total over *any* reason string: a KeyError here would abort the
            # critical section half-applied (batches bumped, reason/latency
            # state not) and kill the recording scorer thread — front-ends
            # introduce new flush reasons (e.g. the pool's "adaptive") and the
            # ledger must absorb them, not crash on them.
            self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
            self.max_batch_size = max(self.max_batch_size, size)
            if failed:
                self.frames_failed += size
            else:
                self.frames_scored += size
                self._latencies.extend(latencies)

    def record_cancelled(self, count: int) -> None:
        with self._lock:
            self.frames_cancelled += count

    def record_event(self, kind: str, name: str, **detail: object) -> None:
        """Record one registry-churn event (register/unregister/promote/…).

        Events are timestamped with wall-clock time (they are audit trail,
        not latency data) and kept in a bounded ledger, so a promotion is
        visible in stats snapshots and ``format_service_report`` next to
        the flush-reason table without unbounded growth.
        """
        event: Dict[str, object] = {
            "time": time.time(),
            "kind": str(kind),
            "name": str(name),
        }
        if detail:
            event.update(detail)
        with self._lock:
            self._events.append(event)
            self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    def in_flight(self) -> int:
        """Frames submitted but not yet scored, failed or cancelled."""
        with self._lock:
            return self.frames_submitted - (
                self.frames_scored + self.frames_failed + self.frames_cancelled
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Consistent copy of all counters plus derived latency statistics."""
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            scored = self.frames_scored
            batches = self.batches
            summary: Dict[str, object] = {
                "frames_submitted": self.frames_submitted,
                "frames_scored": scored,
                "frames_failed": self.frames_failed,
                "frames_cancelled": self.frames_cancelled,
                "batches": batches,
                "flush_reasons": dict(self.flush_reasons),
                "max_batch_size": self.max_batch_size,
                "mean_batch_size": (
                    (scored + self.frames_failed) / batches if batches else 0.0
                ),
                "event_counts": dict(self.event_counts),
                "events": [dict(event) for event in self._events],
            }
        if latencies.size:
            summary["latency_mean_s"] = float(latencies.mean())
            summary["latency_p50_s"] = float(np.percentile(latencies, 50))
            summary["latency_p95_s"] = float(np.percentile(latencies, 95))
            summary["latency_max_s"] = float(latencies.max())
        return summary


class StreamingScorer:
    """Micro-batching front-end serving many monitors over one network.

    Parameters
    ----------
    network:
        The host network every engine-path monitor is built on.
    policy:
        The :class:`BatchPolicy`; ``None`` uses the defaults.
    engine:
        Optional pre-built :class:`BatchScoringEngine` to share caches with
        other consumers; must wrap ``network``.  ``None`` builds a private
        one.
    want_verdicts:
        When True, resolved :class:`FrameResult` objects carry the full
        per-monitor :class:`MonitorVerdict` diagnostics, not just flags.
    cache_batches:
        When True, scored micro-batches enter the engine's activation
        cache.  The default False skips the cache for the worker's scoring
        pass (identical results, same layer walk): every micro-batch is
        fresh content, so content-hashing it for deduplication costs more
        than the forward passes it could ever save.  Enable only when the
        stream is known to repeat identical batches.
    clock:
        Monotonic time source (injectable for tests).

    The scorer is a context manager: ``with StreamingScorer(...) as scorer``
    starts the worker on entry and drains + joins it on exit.  Submissions
    are thread-safe; any number of producer threads may interleave
    :meth:`submit` / :meth:`submit_many` calls.
    """

    def __init__(
        self,
        network: Sequential,
        policy: Optional[BatchPolicy] = None,
        engine: Optional[BatchScoringEngine] = None,
        want_verdicts: bool = False,
        cache_batches: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        if engine is not None and engine.network is not network:
            raise ConfigurationError(
                "the streaming scorer's engine must wrap its host network"
            )
        self.engine = engine if engine is not None else BatchScoringEngine(network)
        self.registry = MonitorRegistry(network)
        self.want_verdicts = bool(want_verdicts)
        self.cache_batches = bool(cache_batches)
        self.stats = ServiceStats()
        #: Optional :class:`~repro.lifecycle.manager.LifecycleManager` over
        #: this scorer; :meth:`MonitorPipeline.serve(lifecycle=True)
        #: <repro.core.pipeline.MonitorPipeline.serve>` attaches one.
        self.lifecycle = None
        self._clock = clock
        self._batcher = MicroBatcher(self.policy)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        self._worker: Optional[threading.Thread] = None
        self._frame_dim: Optional[int] = None

    # ------------------------------------------------------------------
    # registration (delegates to the registry)
    # ------------------------------------------------------------------
    @property
    def network(self) -> Sequential:
        return self.engine.network

    def register(
        self,
        name: str,
        monitor,
        allow_foreign: bool = False,
        version: Optional[int] = None,
    ) -> None:
        """Register a fitted monitor to be scored on every streamed frame."""
        self.registry.register(
            name, monitor, allow_foreign=allow_foreign, version=version
        )
        self.stats.record_event("register", name, version=version)

    def unregister(self, name: str):
        """Retire a monitor; in-flight batches still include it."""
        monitor = self.registry.unregister(name)
        self.stats.record_event("unregister", name)
        return monitor

    def replace(self, name: str, monitor, version: Optional[int] = None):
        """Atomically swap the monitor served under ``name``.

        Delegates to :meth:`MonitorRegistry.replace`: every micro-batch
        scores entirely against the old or the new member, and the FIFO
        batch order makes the old→new verdict boundary monotone in
        submission order.  Returns the replaced monitor.
        """
        old = self.registry.replace(name, monitor, version=version)
        self.stats.record_event("promote", name, version=version)
        return old

    def attach_shadow(
        self,
        name: str,
        candidate,
        live_name: str,
        disagreement_budget: Optional[float] = None,
        min_frames: int = 64,
        on_breach=None,
    ):
        """Score ``candidate`` in *shadow* of the live monitor ``live_name``.

        The candidate is wrapped in a
        :class:`~repro.lifecycle.shadow.ShadowScorer` and registered under
        ``name``: it scores every live micro-batch through the same shared
        engine pass as the live members, but its verdicts are diverted into
        an agreement/disagreement ledger instead of being served.  Returns
        the shadow wrapper (its ``ledger`` holds the running confusion).
        """
        from ..lifecycle.shadow import ShadowScorer

        if live_name not in self.registry:
            raise ConfigurationError(
                f"cannot shadow '{live_name}': no such live monitor"
            )
        shadow = ShadowScorer(
            name,
            candidate,
            live_name,
            disagreement_budget=disagreement_budget,
            min_frames=min_frames,
            on_breach=on_breach,
        )
        self.registry.register(name, shadow)
        self.stats.record_event("attach_shadow", name, live=live_name)
        return shadow

    def detach_shadow(self, name: str):
        """Remove a shadow entry; returns the wrapped candidate monitor."""
        entry = self.registry.get(name)
        if entry is None or not getattr(entry, "is_shadow", False):
            raise ConfigurationError(f"no shadow monitor named '{name}' is attached")
        self.registry.unregister(name)
        self.stats.record_event("detach_shadow", name)
        return entry.candidate

    def shadow_names(self) -> List[str]:
        """Names of the currently attached shadow entries."""
        return [
            name
            for name, monitor in self.registry.snapshot().items()
            if getattr(monitor, "is_shadow", False)
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "StreamingScorer":
        """Start the worker thread (idempotent while running)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("cannot restart a closed scorer")
            if self._worker is not None and self._worker.is_alive():
                return self
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-streaming-scorer", daemon=True
            )
            self._worker.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting frames and shut the worker down.

        ``drain=True`` (the default) scores everything still queued before
        the worker exits; ``drain=False`` cancels pending futures instead.
        """
        to_cancel: List[FrameRequest] = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = drain
            if not drain:
                for batch in self._batcher.drain():
                    to_cancel.extend(batch)
            worker = self._worker
            self._wakeup.notify_all()
        # Futures are cancelled outside the lock: cancel() runs done-
        # callbacks synchronously, and a callback that re-enters the scorer
        # must not deadlock (mirrors _score_batch resolving outside it).
        cancelled = sum(1 for request in to_cancel if request.future.cancel())
        if cancelled:
            self.stats.record_cancelled(cancelled)
        if worker is not None:
            worker.join(timeout)

    def quiesce(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted frame has resolved (or ``timeout``).

        Returns True when the pipeline drained.  This is the promotion
        barrier of the lifecycle manager: quiesce, then swap — every frame
        submitted before the quiesce began has provably been scored against
        the pre-swap registry snapshot.
        """
        deadline = None if timeout is None else self._clock() + timeout
        while self.stats.in_flight() > 0:
            if deadline is not None and self._clock() >= deadline:
                return False
            with self._lock:
                # Nudge the worker: a deadline-pending batch should flush
                # now rather than keep the quiescing thread waiting.
                self._wakeup.notify_all()
            time.sleep(0.001)
        return True

    def describe(self) -> Dict[str, object]:
        """Identity snapshot: registry entries with fingerprints/versions."""
        return {
            "kind": "streaming_scorer",
            "registry": self.registry.describe(),
            "shadows": self.shadow_names(),
            "max_batch": self.policy.max_batch,
            "max_latency": self.policy.max_latency,
        }

    def __enter__(self) -> "StreamingScorer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _coerce_frames(self, frames: np.ndarray, expect_many: bool) -> np.ndarray:
        # Always copy: the queue must own the frame data, because producers
        # routinely refill their sensor buffer the moment submit() returns,
        # long before the worker flushes the micro-batch.
        frames = np.array(frames, dtype=np.float64, copy=True)
        if frames.ndim == 1 and not expect_many:
            frames = frames[None, :]
        frames = np.atleast_2d(frames)
        if frames.ndim != 2:
            raise ShapeError(
                f"expected a frame vector or (N, d) burst, got shape {frames.shape}"
            )
        if frames.shape[0] and frames.shape[1] == 0:
            raise ShapeError("frames must have at least one feature")
        if self._frame_dim is None:
            expected = getattr(self.network, "input_dim", None)
            self._frame_dim = int(expected) if expected else frames.shape[1]
        if frames.shape[0] and frames.shape[1] != self._frame_dim:
            raise ShapeError(
                f"frame width {frames.shape[1]} does not match the host "
                f"network's input dimension {self._frame_dim}"
            )
        return frames

    def submit(self, frame: np.ndarray) -> "Future[FrameResult]":
        """Queue one frame; returns the future of its :class:`FrameResult`."""
        frames = self._coerce_frames(frame, expect_many=False)
        if frames.shape[0] != 1:
            raise ShapeError("submit() takes exactly one frame; use submit_many")
        return self._submit_coerced(frames)[0]

    def submit_many(self, frames: np.ndarray) -> List["Future[FrameResult]"]:
        """Queue a burst of frames; returns one future per row, in order.

        The whole burst is enqueued under one lock acquisition, so a burst
        is coalesced together (and with whatever else is pending) rather
        than trickling into the worker one frame at a time.
        """
        return self._submit_coerced(self._coerce_frames(frames, expect_many=True))

    def _submit_coerced(self, frames: np.ndarray) -> List["Future[FrameResult]"]:
        now = self._clock()
        requests = [FrameRequest(frame=row, enqueued_at=now) for row in frames]
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the streaming scorer is closed and no longer accepts frames"
                )
            if self._worker is None or not self._worker.is_alive():
                raise ServiceClosedError(
                    "the streaming scorer is not running; call start() first"
                )
            if requests and self._batcher.would_overflow(len(requests)):
                raise ServiceOverloadedError(
                    f"enqueueing {len(requests)} frame(s) would exceed "
                    f"max_pending={self.policy.max_pending}; shed load or "
                    "widen the policy"
                )
            for request in requests:
                self._batcher.append(request)
            if requests:
                self._wakeup.notify_all()
        self.stats.record_submitted(len(requests))
        return [request.future for request in requests]

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._closed:
                        break
                    now = self._clock()
                    if self._batcher.ready(now):
                        break
                    deadline = self._batcher.deadline()
                    timeout = None if deadline is None else max(0.0, deadline - now)
                    self._wakeup.wait(timeout)
                if self._closed and (not self._draining or len(self._batcher) == 0):
                    return
                reason = (
                    "drain"
                    if self._closed
                    else ("size" if self._batcher.full else "deadline")
                )
                batch = self._batcher.take()
            if batch:
                self._score_batch(batch, reason)

    def _score_batch(self, batch: List[FrameRequest], reason: str) -> None:
        requests = [
            request
            for request in batch
            if request.future.set_running_or_notify_cancel()
        ]
        cancelled = len(batch) - len(requests)
        if cancelled:
            self.stats.record_cancelled(cancelled)
        if not requests:
            return
        inputs = np.vstack([request.frame for request in requests])
        monitors = self.registry.snapshot()
        shadows = [
            monitor
            for monitor in monitors.values()
            if getattr(monitor, "is_shadow", False)
        ]
        try:
            score = self.engine.score_batch(
                monitors,
                inputs,
                want_verdicts=self.want_verdicts,
                use_cache=self.cache_batches,
            )
            # Shadow verdicts are diverted into their ledgers (confusion vs
            # the live monitor they trail) and stripped from the served
            # results — a shadow candidate is *observed*, never served.
            for shadow in shadows:
                shadow.observe(
                    score.warns.pop(shadow.name),
                    score.warns.get(shadow.live_name),
                )
                if self.want_verdicts:
                    score.verdicts.pop(shadow.name, None)
            results = []
            for row in range(len(requests)):
                warns = {
                    name: bool(flags[row]) for name, flags in score.warns.items()
                }
                verdicts = (
                    {name: vs[row] for name, vs in score.verdicts.items()}
                    if self.want_verdicts
                    else None
                )
                results.append(FrameResult(warns=warns, verdicts=verdicts))
        except BaseException as exc:  # propagate the failure into every future
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            self.stats.record_batch(len(requests), reason, (), failed=True)
            return
        done = self._clock()
        latencies = [done - request.enqueued_at for request in requests]
        for request, result in zip(requests, results):
            request.future.set_result(result)
        self.stats.record_batch(len(requests), reason, latencies, failed=False)
