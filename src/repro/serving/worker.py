"""Scoring worker process: one engine, one artefact load, a task loop.

Each pool worker is a separate Python process — the step that takes the
scorer past the GIL.  On boot it reconstructs the deployment from its
bundle (network + format-2 monitor artefacts, the same files every sibling
loads, so all workers score bit-identical verdicts), builds a private
:class:`~repro.runtime.engine.BatchScoringEngine`, and then loops on the
pool's shared dispatch queue and answers on its own result pipe:

1. ``("batch", task_id, slot, nrows, chaos)`` — *claim* the task on the
   result pipe (the dispatcher uses claims to re-queue in-flight work if
   this process dies), read the frames out of the shared-memory ring slot,
   score them through one engine pass over every monitor, and reply
   ``("done", ...)`` with the packed per-monitor warn vectors;
2. ``("stop",)`` — exit the loop (one sentinel per worker at shutdown).

Workers also watch a shared **generation counter** (``config.generation``,
a ``multiprocessing.Value`` the pool bumps after atomically swapping a
bundle artefact): the queue read times out periodically, and a generation
ahead of the one the monitors were loaded under triggers an in-place
reload from the bundle, acknowledged with ``("reloaded", worker_id, gen)``.
That is the worker half of lifecycle promotion — the pool pauses dispatch,
drains in-flight batches, swaps the artefact, bumps the generation and
waits for every worker's acknowledgement, so no batch is ever scored by a
mixture of old- and new-generation workers.

A scoring exception answers ``("fail", ...)`` and the worker lives on; only
process death (crash, OOM, kill) is handled by the dispatcher's supervision.
The result pipe belongs to this worker alone and every message is written
synchronously, with no feeder thread and no lock shared with a sibling: a
worker that dies at any instant takes nothing with it but its own pipe,
whose end of file tells the dispatcher it is gone.
The ``chaos`` field exists for the crash-recovery tests: it makes a worker
die at a precisely awkward moment (after claiming, before scoring), which
is the exact window the re-queue path must cover.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .artifacts import DeploymentBundle
from .ring import SharedFrameRing

__all__ = ["WorkerConfig", "worker_main"]

#: ``chaos`` marker: claim the task, then die without scoring it.
CHAOS_EXIT_AFTER_CLAIM = "exit_after_claim"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to boot (must stay picklable for spawn)."""

    bundle_dir: str
    ring_name: str
    ring_slots: int
    ring_rows: int
    ring_cols: int
    #: Shared lifecycle generation counter (``multiprocessing.Value``); a
    #: bump tells workers to reload their monitors from the bundle.  Shared
    #: ctypes survive spawn pickling when passed through Process args.
    generation: Optional[object] = None


def _pack_warns(warns) -> dict:
    """Per-monitor boolean vectors as raw bytes (cheap to queue-pickle)."""
    return {
        name: np.ascontiguousarray(flags, dtype=bool).astype(np.uint8).tobytes()
        for name, flags in warns.items()
    }


def worker_main(worker_id: int, config: WorkerConfig, task_queue, result_conn) -> None:
    """Process entry point of one scoring worker."""
    from queue import Empty

    from ..runtime.engine import BatchScoringEngine

    ring = SharedFrameRing.attach(
        config.ring_name, config.ring_slots, config.ring_rows, config.ring_cols
    )

    def current_generation() -> int:
        return 0 if config.generation is None else int(config.generation.value)

    try:
        # The generation is read *before* the artefacts: booting mid-swap at
        # worst re-loads identical files on the next bump check, whereas a
        # generation read after them could claim a swap the loaded files
        # predate.
        loaded_generation = current_generation()
        bundle = DeploymentBundle(config.bundle_dir)
        network = bundle.load_network()
        monitors = bundle.load_monitors(network)
        engine = BatchScoringEngine(network)
        result_conn.send(
            ("ready", worker_id, os.getpid(), tuple(monitors), loaded_generation)
        )
        while True:
            try:
                message = task_queue.get(timeout=0.2)
            except Empty:
                # Idle: the exact window a lifecycle promotion targets (the
                # pool pauses dispatch before bumping the generation).
                generation = current_generation()
                if generation != loaded_generation:
                    bundle = DeploymentBundle(config.bundle_dir)
                    monitors = bundle.load_monitors(network)
                    loaded_generation = generation
                    result_conn.send(("reloaded", worker_id, generation))
                continue
            kind = message[0]
            if kind == "stop":
                break
            if kind != "batch":  # pragma: no cover - future-proofing
                continue
            _, task_id, slot, nrows, chaos = message
            # The claim must precede any work: it is the dispatcher's only
            # way to know this batch dies with this process.
            result_conn.send(("claim", task_id, worker_id))
            if chaos == CHAOS_EXIT_AFTER_CLAIM:
                # Simulated crash for the recovery tests: no cleanup, no
                # goodbye — exactly what a segfault or OOM kill looks like.
                os._exit(17)
            frames = ring.read(slot, nrows)
            try:
                # Micro-batches are one-shot content; skip the activation
                # cache exactly like the in-process streaming worker does.
                score = engine.score_batch(monitors, frames, use_cache=False)
                result_conn.send(("done", task_id, worker_id, _pack_warns(score.warns)))
            except BaseException as exc:
                result_conn.send(
                    ("fail", task_id, worker_id, f"{type(exc).__name__}: {exc}")
                )
    finally:
        result_conn.close()
        ring.close()
