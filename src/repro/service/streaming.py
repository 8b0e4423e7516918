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
2. a flush thread coalesces queued frames under a
   :class:`BatchPolicy` — flush as soon as ``max_batch`` frames are pending,
   or when the *oldest* pending frame has waited ``max_latency`` seconds;
3. each coalesced batch runs through one shared
   :class:`~repro.runtime.engine.BatchScoringEngine` pass covering every
   registered monitor, and the per-frame futures resolve with
   :class:`FrameResult` verdicts.

Steps 1 and 2, and the resolution half of 3, are the :class:`FrontEnd`
core: admission, coalescing, cancellation, resolution, ``close`` and
``quiesce`` exist once.  :class:`StreamingScorer` is its in-process
executor (it scores a batch inline on the flush thread); the
multi-process :class:`~repro.serving.pool.WorkerPool` is the other
executor (it hands a batch to worker processes and resolves it when they
answer).

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
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)
from ..monitors.base import MonitorVerdict
from ..monitors.registry import MonitorRegistry
from ..nn.network import Sequential
from ..runtime.engine import BatchScoringEngine

__all__ = [
    "BatchPolicy",
    "FrameRequest",
    "FrameResult",
    "FrontEnd",
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

    def __iter__(self):
        """The pending requests, oldest first (read-only view)."""
        return iter(self._pending)

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
        # "adaptive" stays a (zero) key so the snapshot shape is stable.
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
            # state not) and kill the recording flush thread — a new flush
            # reason must be absorbed by the ledger, not crash it.
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


class FrontEnd:
    """Admission, coalescing and resolution shared by every front-end.

    A front-end moves frames to a scoring executor and verdicts back.  This
    core owns that path once: frame coercion and the admission errors of
    :meth:`submit` / :meth:`submit_many`, the flush thread that coalesces
    queued frames under the :class:`BatchPolicy` through a
    :class:`MicroBatcher`, the cancelled-future filter, per-row resolution
    into :class:`FrameResult` with latencies recorded in :class:`ServiceStats`,
    failure fan-out, the cancel half of :meth:`close`, and :meth:`quiesce`.

    A subclass is an *executor*.  It sets :attr:`kind`, passes its input
    width to ``__init__`` and implements :meth:`_execute`, which takes one
    coalesced batch of live requests and must eventually settle each of them
    through :meth:`_resolve` or :meth:`_fail` — inline on the flush thread
    (:class:`StreamingScorer`) or later from another thread
    (:class:`~repro.serving.pool.WorkerPool`).  The optional hooks
    :meth:`_start_executor`, :meth:`_shutdown` and :meth:`_handed_off` cover
    executors with their own threads or processes.
    """

    #: Front-end kind, reported by :meth:`describe` (``"streaming_scorer"``).
    kind = "front_end"
    #: True when the front-end can score shadow candidates next to its live
    #: members (an in-process registry); the lifecycle manager's shadow
    #: transitions require it.
    shadow_scoring = False

    def __init__(
        self,
        policy: BatchPolicy,
        input_dim: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.input_dim = int(input_dim)
        self.stats = ServiceStats()
        self._clock = clock
        self._batcher = MicroBatcher(policy)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        #: Set by an executor that can no longer score anything; admission
        #: raises it as a WorkerCrashError and the flush thread stops.
        self._broken: Optional[BaseException] = None
        #: While set, frames keep queueing but nothing flushes (a pool
        #: reload holds it between drain and acknowledgement).
        self._paused = False
        #: Active quiesce() calls; while positive, pending frames flush now.
        self._quiescing = 0
        #: The batch the flush thread took last (quiesce waits on it).
        self._current: Sequence[FrameRequest] = ()
        self._worker: Optional[threading.Thread] = None

    @property
    def _name(self) -> str:
        return self.kind.replace("_", " ")

    def _raise_if_broken(self) -> None:
        """Admission check (lock held): a broken executor takes no work."""
        if self._broken is not None:
            raise WorkerCrashError(
                f"the {self._name} is broken: {self._broken}"
            ) from self._broken

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _execute(self, requests: List[FrameRequest], reason: str) -> None:
        """Score one coalesced batch; settle it via _resolve or _fail."""
        raise NotImplementedError

    def _start_executor(self) -> None:
        """Start executor resources (called once, under the lock)."""

    def _shutdown(self, drain: bool, timeout: Optional[float]) -> None:
        """Stop executor resources after the flush thread has exited."""

    def _handed_off(self) -> List[Future]:
        """Futures of frames taken from the queue, maybe unsettled (lock held).

        The base covers the batch the flush thread took last; an executor
        that settles batches after :meth:`_execute` returns adds its own.
        """
        return [request.future for request in self._current]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self):
        """Start the executor and the flush thread (idempotent while running)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"cannot restart a closed {self._name}")
            if self.is_running:
                return self
            self._start_executor()
            self._worker = threading.Thread(
                target=self._flush_loop,
                name="repro-" + self.kind.replace("_", "-"),
                daemon=True,
            )
            self._worker.start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting frames and shut the front-end down.

        ``drain=True`` (the default) scores everything already accepted
        before the executor stops; ``drain=False`` cancels queued frames
        instead (a batch already handed to the executor still resolves).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = drain
            queued = [] if drain else [r for batch in self._batcher.drain() for r in batch]
            self._wakeup.notify_all()
        # Futures are cancelled outside the lock: cancel() runs done-
        # callbacks synchronously, and a callback that re-enters the
        # front-end must not deadlock (resolution runs outside it too).
        self._cancel(queued)
        if self._worker is not None:
            self._worker.join(timeout)
        self._shutdown(drain, timeout)

    def quiesce(self, timeout: Optional[float] = None) -> bool:
        """Block until every frame submitted before the call has resolved.

        Returns False when ``timeout`` expires first.  Frames still waiting
        for their batch flush at once instead of waiting out
        ``max_latency``.  This is the promotion barrier of the lifecycle
        manager: quiesce, then swap — every frame submitted before the
        quiesce began has been scored against the pre-swap monitors.
        """
        with self._lock:
            waiting = [request.future for request in self._batcher] + self._handed_off()
            self._quiescing += 1
            self._wakeup.notify_all()
        try:
            _, not_done = futures_wait(waiting, timeout)
            return not not_done
        finally:
            with self._lock:
                self._quiescing -= 1

    def describe(self) -> Dict[str, object]:
        """Identity snapshot of the front-end."""
        return {
            "kind": self.kind,
            "max_batch": self.policy.max_batch,
            "max_latency": self.policy.max_latency,
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _coerce_frames(self, frames: np.ndarray, expect_many: bool) -> np.ndarray:
        # Always copy: the queue must own the frame data, because producers
        # routinely refill their sensor buffer the moment submit() returns,
        # long before the flush thread takes the micro-batch.
        frames = np.array(frames, dtype=np.float64, copy=True)
        if frames.ndim == 1 and not expect_many:
            frames = frames[None, :]
        frames = np.atleast_2d(frames)
        if frames.ndim != 2:
            raise ShapeError(
                f"expected a frame vector or (N, d) burst, got shape {frames.shape}"
            )
        if frames.shape[0] and frames.shape[1] != self.input_dim:
            raise ShapeError(
                f"frame width {frames.shape[1]} does not match the {self._name}'s "
                f"input dimension {self.input_dim}"
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
        than trickling into the flush thread one frame at a time.
        """
        return self._submit_coerced(self._coerce_frames(frames, expect_many=True))

    def _submit_coerced(self, frames: np.ndarray) -> List["Future[FrameResult]"]:
        now = self._clock()
        requests = [FrameRequest(frame=row, enqueued_at=now) for row in frames]
        with self._lock:
            self._raise_if_broken()
            if self._closed:
                raise ServiceClosedError(
                    f"the {self._name} is closed and no longer accepts frames"
                )
            if self._worker is None or not self._worker.is_alive():
                raise ServiceClosedError(
                    f"the {self._name} is not running; call start() first"
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
    # flush thread
    # ------------------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._broken is not None:
                        return
                    if self._closed:
                        if not (self._draining and len(self._batcher)):
                            return
                        reason = "drain"
                        break
                    if self._paused:
                        # Frames keep queueing in FIFO order; the resume
                        # (or close) notifies.
                        self._wakeup.wait()
                        continue
                    now = self._clock()
                    if self._batcher.ready(now):
                        reason = "size" if self._batcher.full else "deadline"
                        break
                    if self._quiescing and len(self._batcher):
                        reason = "drain"
                        break
                    deadline = self._batcher.deadline()
                    self._wakeup.wait(
                        None if deadline is None else max(0.0, deadline - now)
                    )
                batch = self._current = self._batcher.take()
            requests = [
                request
                for request in batch
                if request.future.set_running_or_notify_cancel()
            ]
            cancelled = len(batch) - len(requests)
            if cancelled:
                self.stats.record_cancelled(cancelled)
            if requests:
                self._execute(requests, reason)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve(
        self,
        requests: List[FrameRequest],
        reason: str,
        warns: Dict[str, np.ndarray],
        verdicts: Optional[Dict[str, Sequence[MonitorVerdict]]] = None,
    ) -> None:
        """Resolve each request's future with its row of the batch verdicts."""
        try:
            columns = {
                name: np.asarray(flags, dtype=bool).tolist()
                for name, flags in warns.items()
            }
            results = [
                FrameResult(
                    warns={name: column[row] for name, column in columns.items()},
                    verdicts=(
                        None
                        if verdicts is None
                        else {name: rows[row] for name, rows in verdicts.items()}
                    ),
                )
                for row in range(len(requests))
            ]
        except Exception as exc:  # a malformed score fails its batch
            self._fail(requests, reason, exc)
            return
        # The ledger is written before the futures resolve, so whoever sees
        # a verdict also sees it counted.
        done = self._clock()
        self.stats.record_batch(
            len(requests),
            reason,
            [done - request.enqueued_at for request in requests],
            failed=False,
        )
        for request, result in zip(requests, results):
            request.future.set_result(result)

    def _fail(
        self, requests: Sequence[FrameRequest], reason: str, exc: BaseException
    ) -> None:
        """Fail every still-open future of one batch with ``exc``."""
        self.stats.record_batch(len(requests), reason, (), failed=True)
        for request in requests:
            if not request.future.done():
                request.future.set_exception(exc)

    def _cancel(self, requests: Sequence[FrameRequest]) -> None:
        cancelled = sum(1 for request in requests if request.future.cancel())
        if cancelled:
            self.stats.record_cancelled(cancelled)


class StreamingScorer(FrontEnd):
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
    :meth:`submit` / :meth:`submit_many` calls.  The flush thread scores
    each micro-batch inline (:meth:`_execute`); everything else is the
    shared :class:`FrontEnd` core.
    """

    kind = "streaming_scorer"
    shadow_scoring = True

    def __init__(
        self,
        network: Sequential,
        policy: Optional[BatchPolicy] = None,
        engine: Optional[BatchScoringEngine] = None,
        want_verdicts: bool = False,
        cache_batches: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if engine is not None and engine.network is not network:
            raise ConfigurationError(
                "the streaming scorer's engine must wrap its host network"
            )
        super().__init__(
            policy if policy is not None else BatchPolicy(),
            network.input_dim,
            clock,
        )
        self.engine = engine if engine is not None else BatchScoringEngine(network)
        self.registry = MonitorRegistry(network)
        self.want_verdicts = bool(want_verdicts)
        self.cache_batches = bool(cache_batches)
        #: Optional :class:`~repro.lifecycle.manager.LifecycleManager` over
        #: this scorer; :meth:`MonitorPipeline.serve(lifecycle=True)
        #: <repro.core.pipeline.MonitorPipeline.serve>` attaches one.
        self.lifecycle = None

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

    def deploy(self, name: str, monitor, version: Optional[int] = None) -> None:
        """First go-live of ``name`` (lifecycle): register or replace it."""
        if name in self.registry:
            self.replace(name, monitor, version=version)
        else:
            self.register(name, monitor, version=version)

    def swap(
        self,
        name: str,
        monitor,
        version: Optional[int] = None,
        timeout=None,
        artifact=None,
    ) -> None:
        """Serve ``monitor`` under ``name`` from the next batch on (lifecycle).

        One registry replacement; ``timeout`` and the stored ``artifact``
        are unused in-process.
        """
        self.replace(name, monitor, version=version)

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

    def describe(self) -> Dict[str, object]:
        """Identity snapshot: registry entries with fingerprints/versions."""
        return {
            **super().describe(),
            "registry": self.registry.describe(),
            "shadows": self.shadow_names(),
        }

    # ------------------------------------------------------------------
    # executor
    # ------------------------------------------------------------------
    def _execute(self, requests: List[FrameRequest], reason: str) -> None:
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
        except BaseException as exc:  # propagate the failure into every future
            self._fail(requests, reason, exc)
            return
        self._resolve(
            requests,
            reason,
            score.warns,
            score.verdicts if self.want_verdicts else None,
        )
