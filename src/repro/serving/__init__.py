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

from .._lazy import lazy_exports

#: Every public name and the module it is read from on first use.
_EXPORTS = {
    "AsyncScoringClient": "client",
    "DEFAULT_MAX_PAYLOAD": "protocol",
    "DeploymentBundle": "artifacts",
    "Frame": "protocol",
    "FrameDecoder": "protocol",
    "FrameType": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ScoringClient": "client",
    "ScoringServer": "server",
    "SharedFrameRing": "ring",
    "WorkerPool": "pool",
    "decode_result": "protocol",
    "decode_score_request": "protocol",
    "encode_frame": "protocol",
    "encode_result": "protocol",
    "encode_score_request": "protocol",
    "save_deployment": "artifacts",
    "update_monitor_artifact": "artifacts",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
