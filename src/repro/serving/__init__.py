"""Out-of-process serving: socket front-end + multi-process scoring pool.

The in-process :mod:`repro.service` scorer batches frames on a thread; this
package takes the same contract across process and machine boundaries:

- :mod:`~repro.serving.protocol` — length-prefixed binary wire format with
  typed error frames (stdlib ``struct`` + JSON headers, no dependencies);
- :mod:`~repro.serving.artifacts` — deployment bundles: network + format-2
  monitor artefacts + manifest, the unit a worker process boots from;
- :class:`~repro.serving.WorkerPool` — N ``multiprocessing`` workers, each
  with a private :class:`~repro.runtime.engine.BatchScoringEngine`, fed
  through shared-memory frame slots and one task pipe per worker; its
  admission and coalescing are the in-process scorer's
  :class:`~repro.service.streaming.FrontEnd` core; crashed workers restart
  and the batches they held are re-sent;
- :class:`~repro.serving.ScoringServer` / :class:`~repro.serving.ScoringClient`
  — the TCP face and its pipelining clients (blocking and asyncio).

Verdicts over the wire are bit-identical to offline
:meth:`~repro.monitors.base.Monitor.warn_batch` — workers load the same
serialized artefacts the offline path round-trips through.
"""

from .artifacts import DeploymentBundle, save_deployment, update_monitor_artifact
from .client import AsyncScoringClient, ScoringClient
from .pool import WorkerPool
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    Frame,
    FrameDecoder,
    FrameType,
    PROTOCOL_VERSION,
    decode_result,
    decode_score_request,
    encode_frame,
    encode_result,
    encode_score_request,
)
from .ring import SharedFrameRing
from .server import ScoringServer

__all__ = [
    "AsyncScoringClient",
    "DEFAULT_MAX_PAYLOAD",
    "DeploymentBundle",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "PROTOCOL_VERSION",
    "ScoringClient",
    "ScoringServer",
    "SharedFrameRing",
    "WorkerPool",
    "decode_result",
    "decode_score_request",
    "encode_frame",
    "encode_result",
    "encode_score_request",
    "save_deployment",
    "update_monitor_artifact",
]
