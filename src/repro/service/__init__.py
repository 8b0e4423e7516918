"""Streaming scoring service: a micro-batching front-end over the engine.

The offline harness scores pre-assembled batches; a deployment receives
frames one at a time.  This package bridges the two with a classic
micro-batching service: producers submit frames and get futures, a worker
thread coalesces frames under a size/latency policy, and each micro-batch
runs through one shared :class:`~repro.runtime.engine.BatchScoringEngine`
pass covering every registered monitor.  The :class:`FrontEnd` core
(admission, coalescing, resolution, ``close`` and ``quiesce``) is shared
with the multi-process :class:`~repro.serving.WorkerPool`.
"""

from .streaming import (
    BatchPolicy,
    FrameRequest,
    FrameResult,
    FrontEnd,
    MicroBatcher,
    ServiceStats,
    StreamingScorer,
)

__all__ = [
    "BatchPolicy",
    "FrameRequest",
    "FrameResult",
    "FrontEnd",
    "MicroBatcher",
    "ServiceStats",
    "StreamingScorer",
]
