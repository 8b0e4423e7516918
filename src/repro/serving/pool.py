"""Multi-process scoring worker pool behind the streaming submit API.

:class:`WorkerPool` grows the streaming scorer's single worker *thread*
into N worker *processes* — the step that lets the service use every core
instead of time-slicing one GIL.  The front-end surface is unchanged
(``submit`` / ``submit_many`` → one future per frame, ``close(drain=...)``,
a :class:`~repro.service.streaming.ServiceStats` ledger), so anything that
can drive a :class:`~repro.service.StreamingScorer` — including the socket
server — can drive a pool.

Architecture (one shared dispatch queue, N workers)::

    producers ──submit──► AdaptiveBatcher ──dispatcher──► task queue ──► workers
                                │                │  frames via shared-memory ring
    futures  ◄──collector── result queue ◄───────┴────────────┘

* the **dispatcher thread** coalesces frames under the pool's
  :class:`~repro.service.BatchPolicy` with an *adaptive* deadline — the
  flush deadline shrinks as queue depth grows (see :class:`AdaptiveBatcher`),
  so a busy pool feeds idle workers promptly instead of letting frames age
  toward the nominal latency bound — writes each batch into a free
  shared-memory slot and queues only the slot coordinates;
* **workers** (separate processes, each booted from the same deployment
  bundle) claim tasks from the one shared queue, score, and answer on the
  result queue; every worker loads monitors from the same format-2
  artefacts, so verdicts are bit-identical across workers *and* to the
  offline ``warn_batch`` of the monitors the bundle was saved from;
* the **collector thread** resolves futures from results, frees ring slots,
  and supervises liveness: when a worker process dies, its *claimed but
  unanswered* tasks are re-queued to the siblings (the slot still holds the
  frames) and a replacement is spawned, up to ``max_restarts`` — accepted
  frames survive a crash without producers noticing.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_module
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import (
    ConfigurationError,
    RemoteScoringError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)
from ..service.streaming import (
    BatchPolicy,
    FrameRequest,
    FrameResult,
    MicroBatcher,
    ServiceStats,
)
from .artifacts import DeploymentBundle
from .ring import SharedFrameRing
from .worker import CHAOS_EXIT_AFTER_CLAIM, WorkerConfig, worker_main

__all__ = ["AdaptiveBatcher", "WorkerPool"]

_LOG = logging.getLogger("repro.serving.pool")

#: BLAS threading knobs pinned to one thread in worker processes (read at
#: numpy import time in the child): N scoring processes each spinning a
#: BLAS thread pool would oversubscribe the machine and serialise on it.
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class AdaptiveBatcher(MicroBatcher):
    """Micro-batcher whose flush deadline shrinks as queue depth grows.

    The plain policy waits up to ``max_latency`` for the oldest frame no
    matter how much is queued behind it — sensible for one worker, wasteful
    for a pool: with idle processes available, a deep queue should flush
    *now* and let the hardware work.  The adaptive deadline interpolates
    linearly: empty-ish queue → full ``max_latency`` (coalesce for
    throughput), queue at ``max_batch`` → zero extra wait (``full`` flushes
    anyway).  Deterministic and clock-free like its base class.
    """

    def deadline(self) -> Optional[float]:
        base = super().deadline()
        if base is None:
            return None
        shrink = self.policy.max_latency * min(
            1.0, len(self) / float(self.policy.max_batch)
        )
        return base - shrink

    def flush_reason(self, now: float) -> str:
        """Why a flush at ``now`` fires: size, adaptive (early) or deadline."""
        if self.full:
            return "size"
        base = MicroBatcher.deadline(self)
        if base is not None and now < base:
            return "adaptive"
        return "deadline"


class _Task:
    """One dispatched batch: its futures, ring slot and accounting."""

    __slots__ = ("requests", "slot", "nrows", "reason", "dispatched_at")

    def __init__(self, requests, slot, nrows, reason, dispatched_at):
        self.requests = requests
        self.slot = slot
        self.nrows = nrows
        self.reason = reason
        self.dispatched_at = dispatched_at


class WorkerPool:
    """Process-based scoring pool with the streaming submit/future surface.

    Parameters
    ----------
    bundle:
        A :class:`~repro.serving.artifacts.DeploymentBundle` (or a bundle
        directory path) every worker boots from.
    num_workers:
        Worker process count.
    policy:
        :class:`~repro.service.BatchPolicy` for the adaptive coalescer;
        ``None`` uses ``BatchPolicy(max_batch=64, max_latency=0.005)``.
    mp_context:
        ``multiprocessing`` start method (``"spawn"`` by default: immune to
        fork-vs-threads hazards and identical across platforms).
    slot_count:
        Shared-memory ring slots; ``None`` uses ``2 * num_workers`` so every
        worker can be busy while its next batch is staged.
    max_restarts:
        Crashed-worker replacement budget over the pool's lifetime; once
        exhausted and no worker remains, accepted frames fail with
        :class:`~repro.exceptions.WorkerCrashError`.
    pin_blas_threads:
        Export single-thread BLAS knobs to worker processes (recommended:
        process-level parallelism replaces BLAS thread pools).
    """

    def __init__(
        self,
        bundle: Union[DeploymentBundle, str, Path],
        num_workers: int = 2,
        policy: Optional[BatchPolicy] = None,
        mp_context: str = "spawn",
        slot_count: Optional[int] = None,
        max_restarts: int = 3,
        pin_blas_threads: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("a worker pool needs at least one worker")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be non-negative")
        self.bundle = (
            bundle if isinstance(bundle, DeploymentBundle) else DeploymentBundle(bundle)
        )
        self.policy = policy if policy is not None else BatchPolicy(
            max_batch=64, max_latency=0.005
        )
        self.num_workers_requested = int(num_workers)
        self.max_restarts = int(max_restarts)
        self.pin_blas_threads = bool(pin_blas_threads)
        self._clock = clock
        self._ctx = multiprocessing.get_context(mp_context)
        slots = int(slot_count) if slot_count is not None else max(2 * num_workers, 2)
        if slots < num_workers:
            raise ConfigurationError("slot_count must be at least num_workers")
        self._ring = SharedFrameRing(slots, self.policy.max_batch, self.bundle.input_dim)
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()

        self.stats = ServiceStats()
        self._batcher = AdaptiveBatcher(self.policy)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        self._stopping = False
        self._broken: Optional[BaseException] = None
        self._free_slots = set(range(slots))
        self._outstanding: Dict[int, _Task] = {}
        self._claims: Dict[int, int] = {}
        self._workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._next_task_id = 0
        self._next_worker_id = 0
        self._restarts = 0
        # Lifecycle generation: bumped by reload_workers() after an artefact
        # swap; workers poll it between tasks and reload when behind.
        self._generation = self._ctx.Value("L", 0)
        #: Last generation each worker confirmed (via its "ready" boot
        #: message or a "reloaded" acknowledgement).
        self._reload_acks: Dict[int, int] = {}
        self._dispatch_paused = False
        self._pending_chaos: Optional[str] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def monitor_names(self):
        """Names of the monitors every worker serves (from the bundle)."""
        return self.bundle.monitor_names

    @property
    def num_workers(self) -> int:
        """Currently live worker processes."""
        with self._lock:
            return sum(1 for proc in self._workers.values() if proc.is_alive())

    @property
    def restarts(self) -> int:
        """Workers replaced after a crash so far."""
        with self._lock:
            return self._restarts

    @property
    def is_running(self) -> bool:
        return self._dispatcher is not None and self._dispatcher.is_alive()

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "kind": "worker_pool",
                "num_workers": sum(1 for p in self._workers.values() if p.is_alive()),
                "requested_workers": self.num_workers_requested,
                "restarts": self._restarts,
                "monitors": list(self.bundle.monitor_names),
                "ring_slots": self._ring.slots,
                "max_batch": self.policy.max_batch,
                "max_latency": self.policy.max_latency,
                "generation": int(self._generation.value),
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Start one worker process (caller holds the pool lock)."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        config = WorkerConfig(
            bundle_dir=str(self.bundle.directory),
            ring_name=self._ring.name,
            ring_slots=self._ring.slots,
            ring_rows=self._ring.rows,
            ring_cols=self._ring.cols,
            generation=self._generation,
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, config, self._task_queue, self._result_queue),
            name=f"repro-scoring-worker-{worker_id}",
            daemon=True,
        )
        saved = {}
        if self.pin_blas_threads:
            # Env is read at numpy import time in the child; restore the
            # parent's values immediately after the process object exists.
            for key in _BLAS_ENV:
                saved[key] = os.environ.get(key)
                os.environ[key] = "1"
        try:
            process.start()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        self._workers[worker_id] = process

    def start(self) -> "WorkerPool":
        """Spawn the workers and the dispatcher/collector threads."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("cannot restart a closed worker pool")
            if self._dispatcher is not None and self._dispatcher.is_alive():
                return self
            for _ in range(self.num_workers_requested):
                self._spawn_worker()
            self._collector_stop.clear()
            self._collector = threading.Thread(
                target=self._collect_loop, name="repro-pool-collector", daemon=True
            )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-pool-dispatcher", daemon=True
            )
            self._collector.start()
            self._dispatcher.start()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting frames, shut workers down, release the ring.

        ``drain=True`` scores everything already accepted (queued and
        in-flight) before the workers exit; ``drain=False`` cancels queued
        frames (in-flight batches still resolve).  Blocks until every
        worker process has been joined — after ``close`` returns there are
        no child processes left (asserted by the CI end-to-end leg via
        ``multiprocessing.active_children()``).
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
            self._wakeup.notify_all()
        cancelled = sum(1 for request in to_cancel if request.future.cancel())
        if cancelled:
            self.stats.record_cancelled(cancelled)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        # Everything dispatched resolves through the collector; wait for it.
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            while self._outstanding and self._broken is None:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    break
                self._wakeup.wait(0.05 if remaining is None else min(0.05, remaining))
            self._stopping = True
            workers = list(self._workers.values())
        for _ in workers:
            self._task_queue.put(("stop",))
        for process in workers:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - stuck worker backstop
                process.terminate()
                process.join(5.0)
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(timeout)
        with self._lock:
            self._workers.clear()
        # The queues' feeder threads must not block interpreter exit.
        for q in (self._task_queue, self._result_queue):
            q.cancel_join_thread()
            q.close()
        self._ring.close()
        self._ring.unlink()
        _LOG.info("pool closed (drain=%s, restarts=%d)", drain, self._restarts)

    # ------------------------------------------------------------------
    # submission (mirrors StreamingScorer's front-end contract)
    # ------------------------------------------------------------------
    def _coerce_frames(self, frames: np.ndarray, expect_many: bool) -> np.ndarray:
        frames = np.array(frames, dtype=np.float64, copy=True)
        if frames.ndim == 1 and not expect_many:
            frames = frames[None, :]
        frames = np.atleast_2d(frames)
        if frames.ndim != 2:
            raise ShapeError(
                f"expected a frame vector or (N, d) burst, got shape {frames.shape}"
            )
        if frames.shape[0] and frames.shape[1] != self.bundle.input_dim:
            raise ShapeError(
                f"frame width {frames.shape[1]} does not match the deployment's "
                f"input dimension {self.bundle.input_dim}"
            )
        return frames

    def submit(self, frame: np.ndarray) -> "object":
        """Queue one frame; returns the future of its FrameResult."""
        frames = self._coerce_frames(frame, expect_many=False)
        if frames.shape[0] != 1:
            raise ShapeError("submit() takes exactly one frame; use submit_many")
        return self._submit_coerced(frames)[0]

    def submit_many(self, frames: np.ndarray) -> List["object"]:
        """Queue a burst under one lock acquisition; one future per row."""
        return self._submit_coerced(self._coerce_frames(frames, expect_many=True))

    def _submit_coerced(self, frames: np.ndarray) -> List["object"]:
        now = self._clock()
        requests = [FrameRequest(frame=row, enqueued_at=now) for row in frames]
        with self._lock:
            if self._broken is not None:
                raise WorkerCrashError(
                    f"the worker pool is broken: {self._broken}"
                ) from self._broken
            if self._closed:
                raise ServiceClosedError(
                    "the worker pool is closed and no longer accepts frames"
                )
            if self._dispatcher is None or not self._dispatcher.is_alive():
                raise ServiceClosedError(
                    "the worker pool is not running; call start() first"
                )
            if requests and self._batcher.would_overflow(len(requests)):
                raise ServiceOverloadedError(
                    f"enqueueing {len(requests)} frame(s) would exceed "
                    f"max_pending={self.policy.max_pending}; shed load or widen "
                    "the policy"
                )
            for request in requests:
                self._batcher.append(request)
            if requests:
                self._wakeup.notify_all()
        self.stats.record_submitted(len(requests))
        return [request.future for request in requests]

    # ------------------------------------------------------------------
    # lifecycle: artefact swap + generation-gated worker reload
    # ------------------------------------------------------------------
    def reload_workers(self, swap=None, timeout: float = 10.0) -> bool:
        """Reload every worker's monitors from the bundle; True on success.

        The pool half of lifecycle promotion, in strict order:

        1. **pause** dispatch (frames keep queueing in FIFO order);
        2. **drain** every outstanding batch — in-flight work resolves
           against the old generation before anything changes;
        3. **swap** the bundle artefacts named by ``swap`` (a
           ``{name: path-or-monitor}`` mapping handed to
           :func:`~repro.serving.artifacts.update_monitor_artifact`, each
           an atomic ``os.replace``);
        4. **bump** the shared generation counter and wait until every
           live worker acknowledged it (idle workers notice within their
           queue-poll interval; workers spawned mid-reload — e.g. crash
           replacements — boot from the already-swapped artefacts and
           acknowledge via their ready message);
        5. **resume** dispatch.

        Frames dispatched before the pause score the old monitors, frames
        dispatched after the resume score the new ones — the promotion
        boundary is monotone in submission order.  Returns False when the
        drain or the acknowledgements time out (dispatch resumes either
        way; a False return means generations may be mixed and the caller
        should retry or roll back).
        """
        deadline = self._clock() + float(timeout)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("cannot reload a closed worker pool")
            if self._broken is not None:
                raise WorkerCrashError(
                    f"the worker pool is broken: {self._broken}"
                ) from self._broken
            if self._dispatch_paused:
                raise ConfigurationError("a reload is already in progress")
            self._dispatch_paused = True
        try:
            with self._lock:
                while self._outstanding and self._broken is None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                    self._wakeup.wait(min(0.05, remaining))
                if self._broken is not None:
                    raise WorkerCrashError(
                        f"the worker pool is broken: {self._broken}"
                    ) from self._broken
            if swap:
                from .artifacts import update_monitor_artifact

                for name, source in dict(swap).items():
                    update_monitor_artifact(self.bundle, name, source)
            with self._generation.get_lock():
                self._generation.value += 1
                target = int(self._generation.value)
            _LOG.info("bumped lifecycle generation to %d", target)
            with self._lock:
                while self._broken is None:
                    pending = [
                        worker_id
                        for worker_id, process in self._workers.items()
                        if process.is_alive()
                        and self._reload_acks.get(worker_id, -1) < target
                    ]
                    if not pending:
                        return True
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        _LOG.warning(
                            "reload to generation %d timed out waiting for "
                            "worker(s) %s",
                            target,
                            pending,
                        )
                        return False
                    self._wakeup.wait(min(0.05, remaining))
                return False
        finally:
            with self._lock:
                self._dispatch_paused = False
                self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # chaos hook (tests): make the next dispatched batch kill its worker
    # ------------------------------------------------------------------
    def inject_worker_crash(self) -> None:
        """Arm a one-shot crash: the next dispatched batch's worker dies
        after claiming it (the exact window crash recovery must cover).
        Re-dispatched batches never carry the marker, so the batch is
        scored by a replacement and producers observe nothing."""
        with self._lock:
            self._pending_chaos = CHAOS_EXIT_AFTER_CLAIM

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._broken is not None:
                        return
                    if self._closed and (
                        not self._draining or len(self._batcher) == 0
                    ):
                        return
                    if self._dispatch_paused and not self._closed:
                        # A lifecycle promotion is in flight: frames keep
                        # queueing (FIFO), nothing dispatches until the
                        # workers acknowledge the new generation.
                        self._wakeup.wait(0.05)
                        continue
                    now = self._clock()
                    if len(self._batcher) and (self._closed or self._batcher.ready(now)):
                        break
                    deadline = self._batcher.deadline()
                    wait = None if deadline is None else max(0.0, deadline - now)
                    self._wakeup.wait(wait)
                reason = "drain" if self._closed else self._batcher.flush_reason(
                    self._clock()
                )
                batch = self._batcher.take()
            self._dispatch_batch(batch, reason)

    def _dispatch_batch(self, batch: List[FrameRequest], reason: str) -> None:
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
        with self._lock:
            while not self._free_slots and self._broken is None:
                self._wakeup.wait(0.05)
            if self._broken is not None:
                failed = requests
            else:
                failed = None
                slot = self._free_slots.pop()
                task_id = self._next_task_id
                self._next_task_id += 1
                chaos = self._pending_chaos
                self._pending_chaos = None
                task = _Task(requests, slot, len(requests), reason, self._clock())
                self._outstanding[task_id] = task
        if failed is not None:
            exc = WorkerCrashError(f"the worker pool is broken: {self._broken}")
            for request in failed:
                if not request.future.done():
                    request.future.set_exception(exc)
            self.stats.record_batch(len(failed), reason, (), failed=True)
            return
        frames = np.vstack([request.frame for request in requests])
        self._ring.write(slot, frames)
        self._task_queue.put(("batch", task_id, slot, len(requests), chaos))

    # ------------------------------------------------------------------
    # collector / supervisor
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_module.Empty:
                self._check_workers()
                if self._collector_stop.is_set():
                    with self._lock:
                        if not self._outstanding:
                            return
                continue
            kind = message[0]
            if kind == "ready":
                _, worker_id, pid, names, generation = message
                with self._lock:
                    # The boot generation is an implicit reload ack: a worker
                    # spawned after an artefact swap loaded the new files.
                    self._reload_acks[worker_id] = int(generation)
                    self._wakeup.notify_all()
                _LOG.info("worker %d ready (pid=%d, monitors=%s)", worker_id, pid, names)
            elif kind == "reloaded":
                _, worker_id, generation = message
                with self._lock:
                    self._reload_acks[worker_id] = max(
                        self._reload_acks.get(worker_id, 0), int(generation)
                    )
                    self._wakeup.notify_all()
                _LOG.info("worker %d reloaded (generation=%d)", worker_id, generation)
            elif kind == "claim":
                _, task_id, worker_id = message
                requeue = None
                with self._lock:
                    if task_id in self._outstanding:
                        process = self._workers.get(worker_id)
                        if process is not None and process.is_alive():
                            self._claims[task_id] = worker_id
                        else:
                            # The claimer died (and may already be reaped)
                            # before we read its claim: re-queue here, since
                            # the reap path can no longer see the claim.
                            task = self._outstanding[task_id]
                            requeue = ("batch", task_id, task.slot, task.nrows, None)
                if requeue is not None:
                    self._task_queue.put(requeue)
            elif kind == "done":
                _, task_id, worker_id, packed = message
                self._resolve_task(task_id, packed=packed)
            elif kind == "fail":
                _, task_id, worker_id, description = message
                self._resolve_task(task_id, error=RemoteScoringError(description))

    def _resolve_task(self, task_id, packed=None, error=None) -> None:
        with self._lock:
            task = self._outstanding.pop(task_id, None)
            self._claims.pop(task_id, None)
            if task is not None:
                self._free_slots.add(task.slot)
            self._wakeup.notify_all()
        if task is None:  # late duplicate after a re-queue race
            return
        if error is not None:
            for request in task.requests:
                if not request.future.done():
                    request.future.set_exception(error)
            self.stats.record_batch(len(task.requests), task.reason, (), failed=True)
            return
        warns = {
            name: np.frombuffer(raw, dtype=np.uint8).astype(bool)
            for name, raw in packed.items()
        }
        done = self._clock()
        latencies = []
        for row, request in enumerate(task.requests):
            result = FrameResult(
                warns={name: bool(flags[row]) for name, flags in warns.items()}
            )
            request.future.set_result(result)
            latencies.append(done - request.enqueued_at)
        self.stats.record_batch(len(task.requests), task.reason, latencies, failed=False)

    def _check_workers(self) -> None:
        """Reap dead workers: re-queue their claimed tasks, spawn spares."""
        dead: List[int] = []
        with self._lock:
            if self._stopping:
                return
            for worker_id, process in list(self._workers.items()):
                if not process.is_alive():
                    dead.append(worker_id)
            requeue: List[tuple] = []
            requeued_ids = set()
            for worker_id in dead:
                process = self._workers.pop(worker_id)
                process.join()
                lost = [
                    task_id
                    for task_id, claimer in self._claims.items()
                    if claimer == worker_id
                ]
                for task_id in lost:
                    del self._claims[task_id]
                    task = self._outstanding[task_id]
                    # The slot still holds the frames; re-dispatch the same
                    # coordinates with any chaos marker stripped.
                    requeue.append(("batch", task_id, task.slot, task.nrows, None))
                    requeued_ids.add(task_id)
                _LOG.warning(
                    "worker %d died (exitcode=%s); re-queued %d claimed batch(es)",
                    worker_id,
                    process.exitcode,
                    len(lost),
                )
            if dead:
                # A worker that dies between consuming a task and its claim
                # reaching us leaves the task outstanding but unclaimed — an
                # abrupt exit can drop the result queue's feeder buffer, so
                # the claim itself is not a delivery guarantee.  We cannot
                # tell which consumer died, so re-queue every unclaimed
                # outstanding task; if a live worker had it after all, the
                # duplicate is scored twice and the second "done" is ignored.
                unclaimed = [
                    (task_id, task)
                    for task_id, task in self._outstanding.items()
                    if task_id not in self._claims and task_id not in requeued_ids
                ]
                for task_id, task in unclaimed:
                    requeue.append(("batch", task_id, task.slot, task.nrows, None))
                if unclaimed:
                    _LOG.warning(
                        "re-queued %d unclaimed in-flight batch(es)", len(unclaimed)
                    )
            replacements = 0
            if dead and not self._closed:
                while (
                    len(self._workers) < self.num_workers_requested
                    and self._restarts < self.max_restarts
                ):
                    self._spawn_worker()
                    self._restarts += 1
                    replacements += 1
            if dead and not self._workers and replacements == 0:
                # Restart budget exhausted with nobody left to score.
                self._broken = WorkerCrashError(
                    f"all workers died and the restart budget ({self.max_restarts}) "
                    "is exhausted"
                )
                broken = self._broken
                doomed = list(self._outstanding.values())
                self._outstanding.clear()
                self._claims.clear()
                for task in doomed:
                    self._free_slots.add(task.slot)
                pending: List[FrameRequest] = []
                for batch in self._batcher.drain():
                    pending.extend(batch)
                self._wakeup.notify_all()
            else:
                broken = None
                doomed = []
                pending = []
        for item in requeue:
            self._task_queue.put(item)
        if replacements:
            _LOG.warning("spawned %d replacement worker(s)", replacements)
        if broken is not None:
            for task in doomed:
                for request in task.requests:
                    if not request.future.done():
                        request.future.set_exception(broken)
                self.stats.record_batch(len(task.requests), task.reason, (), failed=True)
            cancelled = sum(1 for request in pending if request.future.cancel())
            if cancelled:
                self.stats.record_cancelled(cancelled)
            _LOG.error("pool broken: %s", broken)
