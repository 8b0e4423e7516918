"""Multi-process scoring worker pool behind the streaming submit API.

:class:`WorkerPool` grows the streaming scorer's single scoring *thread*
into N worker *processes* — the step that lets the service use every core
instead of time-slicing one GIL.  Both are executors of one
:class:`~repro.service.streaming.FrontEnd` core, so the surface is the same
(``submit`` / ``submit_many`` → one future per frame, ``close(drain=...)``,
``quiesce``, a :class:`~repro.service.streaming.ServiceStats` ledger) and
anything that can drive a :class:`~repro.service.StreamingScorer` —
including the socket server and the lifecycle manager — can drive a pool.

Architecture (one task pipe and one result pipe per worker)::

    producers ──submit──► MicroBatcher ──flush thread──► task pipes ──► workers
                                │                │  frames via shared-memory ring
    futures  ◄──collector── result pipes ◄───────┴────────────┘

* admission, coalescing and resolution are the
  :class:`~repro.service.streaming.FrontEnd` core the in-process scorer
  runs too: the **flush thread** coalesces frames under the pool's
  :class:`~repro.service.BatchPolicy` (flush at ``max_batch`` frames or
  when the oldest frame has waited ``max_latency``); the pool's executor
  writes each batch into a free shared-memory slot and sends only the slot
  coordinates down the task pipe of the live worker holding the fewest
  batches, recording the batch in that worker's *held* list;
* **workers** (separate processes, each booted from the same deployment
  bundle) score what their task pipe brings and answer on their own result
  pipe; every worker loads monitors from the same format-2 artefacts, so
  verdicts are bit-identical across workers *and* to the offline
  ``warn_batch`` of the monitors the bundle was saved from;
* the **collector thread** resolves futures from results, frees ring slots,
  and supervises liveness: when a worker process dies (its result pipe
  reaches end of file), the pool reads what it answered, then re-sends
  exactly the batches it still held, in order, to a sibling or its
  replacement (the slot still holds the frames), spawning replacements up
  to ``max_restarts`` — accepted frames survive a crash without producers
  noticing, and each is scored once.  The pipes are per worker so that a
  process dying at any instant can hold no lock a sibling needs.

A worker's boot is a fresh interpreter importing the scoring modules (not
scipy: see :mod:`~repro.serving.worker`) and loading the bundle, about
0.3 s on a 2-vCPU x86-64 host.  Each boot is logged and recorded in the
stats ledger as a ``worker_ready`` event with its ``boot_s`` (spawn to
``ready``), so boot time shows apart from scoring latency.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from collections import namedtuple
from concurrent.futures import wait as futures_wait
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import (
    ConfigurationError,
    LifecycleStateError,
    RemoteScoringError,
    ServiceClosedError,
    WorkerCrashError,
)
from ..monitors.fingerprint import monitor_fingerprint
from ..monitors.serialization import load_monitor
from ..service.streaming import BatchPolicy, FrameRequest, FrontEnd
from .artifacts import DeploymentBundle, update_monitor_artifact
from .ring import SharedFrameRing
from .worker import CHAOS_EXIT_UNSCORED, WorkerConfig, worker_main

__all__ = ["WorkerPool"]

_LOG = logging.getLogger("repro.serving.pool")

#: BLAS threading knobs pinned to one thread in worker processes (read at
#: numpy import time in the child): N scoring processes each spinning a
#: BLAS thread pool would oversubscribe the machine and serialise on it.
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


#: One dispatched batch: its requests, ring slot and flush reason.
_Task = namedtuple("_Task", "requests slot reason")


class WorkerPool(FrontEnd):
    """Process-based scoring pool with the streaming submit/future surface.

    Parameters
    ----------
    bundle:
        A :class:`~repro.serving.artifacts.DeploymentBundle` (or a bundle
        directory path) every worker boots from.
    num_workers:
        Worker process count.
    policy:
        :class:`~repro.service.BatchPolicy` of the coalescer; ``None`` uses
        ``BatchPolicy(max_batch=64, max_latency=0.005)``.
    max_restarts:
        Crashed-worker replacement budget over the pool's lifetime; once
        exhausted and no worker remains, accepted frames fail with
        :class:`~repro.exceptions.WorkerCrashError`.

    Workers are ``spawn``-started (immune to fork-vs-threads hazards and
    identical across platforms) with single-thread BLAS, since
    process-level parallelism replaces BLAS thread pools.  The ring has
    ``2 * num_workers`` slots, so every worker can be busy while its next
    batch is staged.

    :meth:`close` blocks until every worker process has been joined —
    after it returns there are no child processes left (asserted by the CI
    end-to-end leg via ``multiprocessing.active_children()``).
    """

    kind = "worker_pool"

    def __init__(
        self,
        bundle: Union[DeploymentBundle, str, Path],
        num_workers: int = 2,
        policy: Optional[BatchPolicy] = None,
        max_restarts: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("a worker pool needs at least one worker")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be non-negative")
        self.bundle = (
            bundle if isinstance(bundle, DeploymentBundle) else DeploymentBundle(bundle)
        )
        super().__init__(
            policy if policy is not None else BatchPolicy(max_batch=64, max_latency=0.005),
            self.bundle.input_dim,
            clock,
        )
        self.num_workers_requested = int(num_workers)
        self.max_restarts = int(max_restarts)
        self._ctx = multiprocessing.get_context("spawn")
        slots = 2 * self.num_workers_requested
        self._ring = SharedFrameRing(slots, self.policy.max_batch, self.bundle.input_dim)
        #: Write end of each unreaped worker's task pipe, by worker id.
        self._tasks: Dict[int, multiprocessing.connection.Connection] = {}
        #: Read end of each live worker's result pipe, by worker id.
        self._results: Dict[int, multiprocessing.connection.Connection] = {}
        #: Ids of the batches sent to each unreaped worker and not yet
        #: answered, in send order.
        self._held: Dict[int, List[int]] = {}

        self._stopping = False
        self._free_slots = set(range(slots))
        self._outstanding: Dict[int, _Task] = {}
        self._workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._next_task_id = 0
        self._next_worker_id = 0
        self._restarts = 0
        #: Lifecycle generation: bumped by reload_workers() after an
        #: artefact swap.
        self._generation = 0
        #: Last generation each worker confirmed (via its "ready" boot
        #: message or a "reloaded" acknowledgement).
        self._reload_acks: Dict[int, int] = {}
        #: Clock reading at each booting worker's spawn; its ready message
        #: turns it into a ``worker_ready`` event with ``boot_s``.
        self._spawned_at: Dict[int, float] = {}
        self._pending_chaos: Optional[str] = None
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

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                **super().describe(),
                "num_workers": sum(1 for p in self._workers.values() if p.is_alive()),
                "requested_workers": self.num_workers_requested,
                "restarts": self._restarts,
                "monitors": list(self.bundle.monitor_names),
                "ring_slots": self._ring.slots,
                "generation": self._generation,
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Start one worker process (caller holds the pool lock)."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        reader, writer = self._ctx.Pipe(duplex=False)
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
            args=(worker_id, config, task_reader, writer),
            name=f"repro-scoring-worker-{worker_id}",
            daemon=True,
        )
        # Env is read at numpy import time in the child; restore the
        # parent's values immediately after the process object exists.
        saved = {key: os.environ.get(key) for key in _BLAS_ENV}
        os.environ.update(dict.fromkeys(_BLAS_ENV, "1"))
        self._spawned_at[worker_id] = self._clock()
        try:
            process.start()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            # The child holds its own copies; with ours closed, the result
            # pipe reaches end of file exactly when the worker exits, and a
            # send down the task pipe of a dead worker fails.
            task_reader.close()
            writer.close()
        self._workers[worker_id] = process
        self._tasks[worker_id] = task_writer
        self._results[worker_id] = reader
        self._held[worker_id] = []

    def _start_executor(self) -> None:
        for _ in range(self.num_workers_requested):
            self._spawn_worker()
        self._collector_stop.clear()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    def _shutdown(self, drain: bool, timeout: Optional[float]) -> None:
        # Everything dispatched resolves through the collector; wait for it.
        self.quiesce(timeout)
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
            # End of file on its task pipe ends a worker's loop.
            for conn in self._tasks.values():
                conn.close()
        for process in workers:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - stuck worker backstop
                process.terminate()
                process.join(5.0)
        self._collector_stop.set()
        if self._collector is not None:
            # The collector closes the result pipes itself on its way out,
            # so a join that times out leaves it nothing closed underneath.
            self._collector.join(timeout)
        with self._lock:
            self._workers.clear()
        self._ring.close()
        self._ring.unlink()
        _LOG.info("pool closed (drain=%s, restarts=%d)", drain, self._restarts)

    def _handed_off(self):
        return super()._handed_off() + [
            request.future
            for task in self._outstanding.values()
            for request in task.requests
        ]

    # ------------------------------------------------------------------
    # lifecycle: artefact swap + generation-gated worker reload
    # ------------------------------------------------------------------
    def reload_workers(self, swap=None, timeout: float = 10.0) -> bool:
        """Reload every worker's monitors from the bundle; True on success.

        The pool half of lifecycle promotion, in strict order:

        1. **pause** dispatch (frames keep queueing in FIFO order);
        2. **drain** every outstanding batch — in-flight work resolves
           against the old generation before anything changes, including
           a batch re-sent to a crash replacement, which boots from the
           not-yet-swapped artefacts;
        3. **swap** the bundle artefacts named by ``swap`` (a
           ``{name: path-or-monitor}`` mapping handed to
           :func:`~repro.serving.artifacts.update_monitor_artifact`, each
           an atomic ``os.replace``; pass stored archives, so the pause
           holds a file copy rather than a serialisation);
        4. **bump** the generation, send ``("reload", generation)`` down
           every live worker's task pipe and wait until every live worker
           acknowledged it (workers spawned after the bump — e.g. crash
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
            self._raise_if_broken()
            if self._paused:
                raise ConfigurationError("a reload is already in progress")
            self._paused = True
            dispatched = self._handed_off()
        try:
            if futures_wait(dispatched, timeout).not_done:
                return False
            with self._lock:
                self._raise_if_broken()
            for name, source in dict(swap or {}).items():
                update_monitor_artifact(self.bundle, name, source)
            with self._lock:
                self._generation += 1
                target = self._generation
                for conn in self._tasks.values():
                    try:
                        conn.send(("reload", target))
                    except OSError:
                        pass  # dead; its replacement boots at ``target``
                _LOG.info("bumped lifecycle generation to %d", target)
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
                self._paused = False
                self._wakeup.notify_all()

    def deploy(self, name: str, monitor, version: Optional[int] = None) -> None:
        """First go-live of ``name`` (lifecycle): nothing to swap.

        The workers already serve ``name`` from the bundle they booted
        from; a pool cannot grow names mid-flight.  ``monitor`` must be
        what the bundle's artefact holds (equal fingerprints), or the
        deployment would name a version the workers never loaded.
        """
        if name not in self.monitor_names:
            raise LifecycleStateError(
                f"cannot deploy new name '{name}' on a worker pool; the "
                "bundle the workers booted from does not serve it"
            )
        served = load_monitor(self.bundle.monitor_paths[name], self.bundle.load_network())
        if monitor_fingerprint(served) != monitor_fingerprint(monitor):
            raise LifecycleStateError(
                f"cannot deploy '{name}' on a worker pool: the bundle the "
                "workers booted from holds a different monitor under that name"
            )

    def swap(
        self,
        name: str,
        monitor,
        version: Optional[int] = None,
        timeout: float = 10.0,
        artifact=None,
    ) -> None:
        """Serve ``monitor`` under ``name`` from the next dispatch on (lifecycle).

        The workers load the archive ``artifact`` when given (the stored
        bytes of ``monitor``, copied as they are), else ``monitor``
        serialised.  The artefact swap runs inside :meth:`reload_workers`,
        after its pause and drain, so no batch dispatched before the call —
        nor its re-send after a worker crash — scores against the new
        artefact.
        """
        source = monitor if artifact is None else artifact
        if not self.reload_workers(swap={name: source}, timeout=timeout):
            raise LifecycleStateError(
                f"worker pool failed to reload within {timeout}s while "
                f"swapping in '{name}' v{version}"
            )
        self.stats.record_event("promote", name, version=version)

    # ------------------------------------------------------------------
    # chaos hook (tests): make the next dispatched batch kill its worker
    # ------------------------------------------------------------------
    def inject_worker_crash(self) -> None:
        """Arm a one-shot crash: the next dispatched batch's worker dies
        on receiving it, before scoring it.  Re-sent batches never carry
        the marker, so the batch is scored by a sibling or a replacement
        and producers observe nothing."""
        with self._lock:
            self._pending_chaos = CHAOS_EXIT_UNSCORED

    # ------------------------------------------------------------------
    # executor: ring write + task pipes
    # ------------------------------------------------------------------
    def _send(self, task_id: int, chaos: Optional[str] = None) -> None:
        """Send one batch to the worker holding the fewest (lock held).

        Booted workers come first: a replacement still importing would
        hold the batch for its whole boot while a sibling sits idle.
        """
        worker_id = min(
            self._held,
            key=lambda worker: (worker not in self._reload_acks, len(self._held[worker])),
        )
        self._held[worker_id].append(task_id)
        task = self._outstanding[task_id]
        try:
            self._tasks[worker_id].send(("batch", task_id, task.slot, len(task.requests), chaos))
        except OSError:
            pass  # the worker is dead; its reap re-sends what it held

    def _execute(self, requests: List[FrameRequest], reason: str) -> None:
        with self._lock:
            while not self._free_slots and self._broken is None:
                self._wakeup.wait(0.05)
            broken = self._broken
            if broken is None:
                slot = self._free_slots.pop()
                task_id = self._next_task_id
                self._next_task_id += 1
                chaos = self._pending_chaos
                self._pending_chaos = None
                task = _Task(requests, slot, reason)
                self._outstanding[task_id] = task
        if broken is not None:
            self._fail(
                requests, reason, WorkerCrashError(f"the worker pool is broken: {broken}")
            )
            return
        frames = np.vstack([request.frame for request in requests])
        self._ring.write(slot, frames)
        with self._lock:
            # Sent only once its frames are in the ring; a pool broken in
            # the meantime has already failed it with the rest.
            if self._broken is None:
                self._send(task_id, chaos)

    # ------------------------------------------------------------------
    # collector / supervisor
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                readers = {conn: worker_id for worker_id, conn in self._results.items()}
            ready = connection_wait(list(readers), timeout=0.1) if readers else ()
            if not ready:
                self._check_workers()
                if self._collector_stop.is_set():
                    with self._lock:
                        if not self._outstanding:
                            break
                if not readers:
                    self._collector_stop.wait(0.1)
                continue
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker exited and everything it sent has been
                    # read; the reap re-sends what it still held.
                    worker_id = readers[conn]
                    with self._lock:
                        self._results.pop(worker_id, None)
                        process = self._workers.get(worker_id)
                    conn.close()
                    if process is not None:
                        process.join(5.0)
                    self._check_workers()
                    continue
                self._handle(message)
        with self._lock:
            readers = list(self._results.values())
            self._results.clear()
        for conn in readers:
            conn.close()

    def _handle(self, message) -> None:
        """Apply one worker message (collector thread)."""
        kind = message[0]
        if kind == "ready":
            _, worker_id, pid, names, generation = message
            with self._lock:
                # The boot generation is an implicit reload ack: a worker
                # spawned after an artefact swap loaded the new files.
                self._reload_acks[worker_id] = int(generation)
                boot_s = self._clock() - self._spawned_at.pop(worker_id)
                self._wakeup.notify_all()
            self.stats.record_event("worker_ready", f"worker-{worker_id}", boot_s=boot_s)
            _LOG.info(
                "worker %d ready in %.3f s (pid=%d, monitors=%s)", worker_id, boot_s, pid, names
            )
        elif kind == "reloaded":
            _, worker_id, generation = message
            with self._lock:
                self._reload_acks[worker_id] = max(
                    self._reload_acks.get(worker_id, 0), int(generation)
                )
                self._wakeup.notify_all()
            _LOG.info("worker %d reloaded (generation=%d)", worker_id, generation)
        elif kind == "done":
            _, task_id, worker_id, packed = message
            self._resolve_task(task_id, worker_id, packed=packed)
        elif kind == "fail":
            _, task_id, worker_id, description = message
            self._resolve_task(task_id, worker_id, error=RemoteScoringError(description))

    def _resolve_task(self, task_id, worker_id, packed=None, error=None) -> None:
        # Only this (collector) thread removes tasks, so the task stays in
        # _outstanding, visible to quiesce() and reload_workers(), until its
        # futures are settled; its ring slot is free as soon as it answered.
        # A worker is reaped only after its result pipe is read to the end,
        # so the answering worker still holds the task here.
        with self._lock:
            task = self._outstanding[task_id]
            self._held[worker_id].remove(task_id)
            self._free_slots.add(task.slot)
            self._wakeup.notify_all()
        if error is not None:
            self._fail(task.requests, task.reason, error)
        else:
            warns = {
                name: np.frombuffer(raw, dtype=np.uint8) for name, raw in packed.items()
            }
            self._resolve(task.requests, task.reason, warns)
        with self._lock:
            del self._outstanding[task_id]

    def _check_workers(self) -> None:
        """Reap dead workers: re-send the batches they held, spawn spares."""
        with self._lock:
            if self._stopping:
                return
            dead = [
                worker_id
                for worker_id, process in self._workers.items()
                if not process.is_alive()
            ]
            unread = [self._results.pop(worker_id, None) for worker_id in dead]
        if not dead:
            return
        # What a dead worker sent is still in its pipe: apply it first, so
        # a batch it answered leaves its held list and is not re-sent.
        for conn in filter(None, unread):
            try:
                while conn.poll():
                    self._handle(conn.recv())
            except (EOFError, OSError):
                pass
            conn.close()
        with self._lock:
            if self._stopping:
                return
            orphans = []
            for worker_id in dead:
                process = self._workers.pop(worker_id)
                process.join()
                _LOG.warning("worker %d died (exitcode=%s)", worker_id, process.exitcode)
                self._tasks.pop(worker_id).close()
                orphans += self._held.pop(worker_id)
                self._spawned_at.pop(worker_id, None)  # died while booting
            replacements = 0
            while (
                not self._closed
                and len(self._workers) < self.num_workers_requested
                and self._restarts < self.max_restarts
            ):
                self._spawn_worker()
                self._restarts += 1
                replacements += 1
            broken = doomed = None
            if self._workers:
                # The same slot coordinates, chaos marker stripped.
                for task_id in orphans:
                    self._send(task_id)
                if orphans:
                    _LOG.warning("re-sent %d in-flight batch(es)", len(orphans))
            else:
                # Restart budget exhausted with nobody left to score.
                broken = self._broken = WorkerCrashError(
                    f"all workers died and the restart budget ({self.max_restarts}) "
                    "is exhausted"
                )
                # Settled before they leave _outstanding and the queue, so
                # quiesce() never misses them (the flush thread has stopped
                # and admission raises, so the queue only shrinks).
                doomed = dict(self._outstanding)
                self._free_slots.update(task.slot for task in doomed.values())
                pending = list(self._batcher)
                self._wakeup.notify_all()
        if replacements:
            _LOG.warning("spawned %d replacement worker(s)", replacements)
        if broken is not None:
            for task in doomed.values():
                self._fail(task.requests, task.reason, broken)
            self._cancel(pending)
            with self._lock:
                for task_id in doomed:
                    del self._outstanding[task_id]
                self._batcher.drain()
            _LOG.error("pool broken: %s", broken)
