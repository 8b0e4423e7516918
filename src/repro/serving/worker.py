"""Scoring worker process: one engine, one artefact load, a task loop.

Each pool worker is a separate Python process — the step that takes the
scorer past the GIL.  On boot it reconstructs the deployment from its
bundle (network + format-2 monitor artefacts, the same files every sibling
loads, so all workers score bit-identical verdicts), builds a private
:class:`~repro.runtime.engine.BatchScoringEngine`, answers
``("ready", worker_id, pid, names, generation)``, and then blocks on its
own task pipe, answering on its own result pipe:

1. ``("batch", task_id, slot, nrows, chaos)`` — read the frames out of the
   shared-memory ring slot, score them through one engine pass over every
   monitor, and reply ``("done", ...)`` with the packed per-monitor warn
   vectors;
2. ``("reload", generation)`` — reload the monitors from the bundle and
   acknowledge with ``("reloaded", worker_id, generation)``.  That is the
   worker half of lifecycle promotion: the pool pauses dispatch, drains
   in-flight batches, swaps the artefact, then sends the reload down every
   worker's pipe and waits for every acknowledgement, so no batch is ever
   scored by a mixture of old- and new-generation workers.  The pipe is
   FIFO, so a batch sent after the reload is scored by the new monitors.

End of file on the task pipe (the pool closed its end) ends the loop.

A worker imports only what scoring needs: this module, the artefact
loaders and, through them, ``repro.nn``, ``repro.monitors``,
``repro.runtime``, ``repro.symbolic`` and ``repro.bdd``.  The package
inits import their re-exports on first use, and scipy is imported by the
star-LP solve alone, which scoring never reaches.  The import is most of
a worker's boot: about 0.25 s on a 2-vCPU x86-64 host.

A scoring exception answers ``("fail", ...)`` and the worker lives on; only
process death (crash, OOM, kill) is handled by the dispatcher's supervision.
Both pipes belong to this worker alone and every message is written
synchronously, with no feeder thread and no lock shared with a sibling: a
worker that dies at any instant takes nothing with it but its own pipes.
The pool knows which batches it sent down the task pipe, and the result
pipe's end of file tells it the worker is gone.
The ``chaos`` field exists for the crash-recovery tests: it makes a worker
die on receipt of a batch, before scoring it, so the pool must re-send it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import DeploymentBundle
from .ring import SharedFrameRing

__all__ = ["WorkerConfig", "worker_main"]

#: ``chaos`` marker: die on receipt of the batch, without scoring it.
CHAOS_EXIT_UNSCORED = "exit_unscored"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to boot (must stay picklable for spawn)."""

    bundle_dir: str
    ring_name: str
    ring_slots: int
    ring_rows: int
    ring_cols: int
    #: Lifecycle generation of the bundle at spawn time, reported in the
    #: worker's ready message.
    generation: int


def _pack_warns(warns) -> dict:
    """Per-monitor boolean vectors as raw bytes (cheap to pickle)."""
    return {
        name: np.ascontiguousarray(flags, dtype=bool).astype(np.uint8).tobytes()
        for name, flags in warns.items()
    }


def worker_main(worker_id: int, config: WorkerConfig, task_conn, result_conn) -> None:
    """Process entry point of one scoring worker."""
    from ..runtime.engine import BatchScoringEngine

    ring = SharedFrameRing.attach(
        config.ring_name, config.ring_slots, config.ring_rows, config.ring_cols
    )
    try:
        bundle = DeploymentBundle(config.bundle_dir)
        network = bundle.load_network()
        monitors = bundle.load_monitors(network)
        engine = BatchScoringEngine(network)
        result_conn.send(("ready", worker_id, os.getpid(), tuple(monitors), config.generation))
        while True:
            try:
                message = task_conn.recv()
            except EOFError:
                break
            if message[0] == "reload":
                monitors = DeploymentBundle(config.bundle_dir).load_monitors(network)
                result_conn.send(("reloaded", worker_id, message[1]))
                continue
            _, task_id, slot, nrows, chaos = message
            if chaos == CHAOS_EXIT_UNSCORED:
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
        task_conn.close()
        result_conn.close()
        ring.close()
