"""TCP front-end: the scoring service's network face.

:class:`ScoringServer` puts the length-prefixed protocol of
:mod:`repro.serving.protocol` in front of a
:class:`~repro.service.FrontEnd` (``submit_many`` → futures) — an
in-process :class:`~repro.service.StreamingScorer` or an out-of-process
:class:`~repro.serving.pool.WorkerPool`.  Built on
:class:`socketserver.ThreadingTCPServer`: one daemon thread per connection
reads frames incrementally and answers each request as the protocol's
exchange table says (payload codecs, reply type).  SCORE requests go
straight into the scorer and each reply is written when its futures
resolve — requests *pipeline*, and replies return in completion order,
matched by ``request_id``.

Failures travel as typed error frames, so remote callers see the exception
classes in-process callers do; a framing violation (bad magic, oversized
payload) gets one final typed error, then the connection closes — the byte
stream has no recoverable frame boundary left.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from concurrent.futures import CancelledError, Future
from typing import Callable, Optional, Tuple

from ..exceptions import LifecycleStateError, ProtocolError, ReproError
from . import protocol

__all__ = ["ScoringServer"]

_LOG = logging.getLogger("repro.serving.server")


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True  # restart on the same port without TIME_WAIT pain
    # Modest backlog; the scorer's max_pending is the real admission control.
    request_queue_size = 16


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One client connection: decode → dispatch → write responses."""

    def setup(self) -> None:
        self.owner: "ScoringServer" = self.server.owner  # type: ignore[attr-defined]
        self.decoder = protocol.FrameDecoder(max_payload=self.owner.max_payload)
        # Responses are written from whatever thread resolves the last
        # future of a request; one lock per connection keeps frames whole.
        self.write_lock = threading.Lock()
        self.alive = True

    def _send(self, frame_type: protocol.FrameType, request_id: int, payload: bytes) -> None:
        data = protocol.encode_frame(frame_type, request_id, payload)
        try:
            with self.write_lock:
                if self.alive:
                    self.request.sendall(data)
        except OSError:
            self.alive = False

    def _send_error(self, request_id: int, exc: BaseException) -> None:
        self._send(protocol.FrameType.ERROR, request_id, protocol.encode_error(exc))

    def handle(self) -> None:
        peer = self.client_address
        _LOG.info("connection from %s:%s", *peer)
        self.request.settimeout(None)
        while self.alive and not self.owner.closing:
            try:
                chunk = self.request.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            try:
                frames = self.decoder.feed(chunk)
            except ProtocolError as exc:
                _LOG.warning("protocol error from %s:%s: %s", peer[0], peer[1], exc)
                self._send_error(0, exc)
                break
            for frame in frames:
                self._dispatch(frame)
        self.alive = False
        _LOG.info("connection from %s:%s closed", *peer)

    # ------------------------------------------------------------------
    def _dispatch(self, frame: protocol.Frame) -> None:
        """Answer one request as its exchange in the protocol table says."""
        exchange = protocol._EXCHANGES.get(frame.type)
        try:
            if exchange is None:
                raise ProtocolError(f"frame type {frame.type.name} is not a request")
            reply = self._handlers[frame.type](self, exchange.request.decode(frame.payload))
        except ReproError as exc:
            self._send_error(frame.request_id, exc)
            return
        if isinstance(reply, Future):
            reply.add_done_callback(lambda done: self._reply(frame.request_id, exchange, done))
        else:
            self._send(exchange.reply, frame.request_id, exchange.response.encode(reply))

    def _reply(self, request_id: int, exchange, done: Future) -> None:
        if done.exception() is not None:
            self._send_error(request_id, done.exception())
        else:
            self._send(exchange.reply, request_id, exchange.response.encode(done.result()))

    def _score(self, frames) -> Future:
        """Submit the frames; the future resolves to their warn vectors.

        Pipelining without extra threads: the done-callback of the last
        frame future to resolve assembles the reply."""
        futures = self.owner.scorer.submit_many(frames)
        self.owner.count_request(len(futures))
        reply: Future = Future()
        remaining = [len(futures)]
        counter_lock = threading.Lock()

        def on_done(_future) -> None:
            with counter_lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            try:
                results = [future.result() for future in futures]
            except (CancelledError, Exception) as exc:
                reply.set_exception(exc)
                return
            names = results[0].warns.keys()
            reply.set_result(
                {name: [result.warns[name] for result in results] for name in names}
            )

        if not futures:
            reply.set_result({})
        for future in futures:
            future.add_done_callback(on_done)
        return reply

    # Lifecycle requests run on the connection thread: promotion quiesces
    # the front-end, which must not block the scoring path — and does not,
    # since score replies are written by future done-callbacks.
    def _manager(self):
        manager = self.owner.lifecycle
        if manager is None:
            raise LifecycleStateError(
                "this server has no lifecycle manager attached; start it with "
                "ScoringServer(lifecycle=...) or MonitorPipeline.serve(lifecycle=True)"
            )
        return manager

    def _promote(self, request: dict) -> dict:
        return {"name": request["name"], "version": self._manager().promote(**request)}

    def _rollback(self, request: dict) -> dict:
        return {"name": request["name"], "version": self._manager().rollback(**request)}

    _handlers = {
        protocol.FrameType.SCORE: _score,
        protocol.FrameType.PING: lambda self, payload: payload,
        protocol.FrameType.STATS: lambda self, _: self.owner.stats_snapshot(),
        protocol.FrameType.LIFECYCLE_STATUS: lambda self, _: self._manager().status(),
        protocol.FrameType.PROMOTE: _promote,
        protocol.FrameType.ROLLBACK: _rollback,
        protocol.FrameType.SHADOW_REPORT: lambda self, request: {
            "shadows": self._manager().shadow_report(**request)
        },
    }


class ScoringServer:
    """Socket front-end over a streaming scorer or worker pool.

    Parameters
    ----------
    scorer:
        The :class:`~repro.service.FrontEnd` to serve (``submit_many`` →
        per-frame futures, ``stats.snapshot()``, ``describe()``,
        ``close(drain=...)``).
    host / port:
        Bind address; port ``0`` picks a free ephemeral port (read it back
        from :attr:`address`).
    max_payload:
        Per-frame payload bound; oversized requests are rejected with a
        typed error before any allocation.
    owns_scorer:
        When True, :meth:`close` also closes the scorer (used by
        ``MonitorPipeline.serve(remote=True)``, where the server is the
        deployment's single handle).
    log_path:
        Optional file that receives the server's log records (connection
        lifecycle, protocol errors, worker restarts via the pool logger) —
        CI uploads it as an artifact when the end-to-end leg fails.
    cleanup:
        Optional callable invoked once after :meth:`close` (e.g. to remove
        a temporary artefact directory).
    lifecycle:
        Optional :class:`~repro.lifecycle.manager.LifecycleManager` over
        ``scorer``; attaching one enables the lifecycle control frames
        (LIFECYCLE_STATUS / PROMOTE / ROLLBACK / SHADOW_REPORT), so remote
        operators drive promotions over the same connection that scores.
    """

    def __init__(
        self,
        scorer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
        owns_scorer: bool = False,
        log_path: Optional[str] = None,
        cleanup: Optional[Callable[[], None]] = None,
        lifecycle=None,
    ) -> None:
        self.scorer = scorer
        self.lifecycle = lifecycle
        self.max_payload = int(max_payload)
        self.owns_scorer = bool(owns_scorer)
        self.closing = False
        self._cleanup = cleanup
        self._served_frames = 0
        self._served_requests = 0
        self._count_lock = threading.Lock()
        self._log_handler: Optional[logging.Handler] = None
        if log_path is not None:
            handler = logging.FileHandler(log_path)
            handler.setFormatter(
                logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
            )
            serving_logger = logging.getLogger("repro.serving")
            serving_logger.addHandler(handler)
            serving_logger.setLevel(logging.INFO)
            self._log_handler = handler
        self._tcp = _ThreadedTCPServer((host, port), _ConnectionHandler)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — connect a ScoringClient here."""
        return self._tcp.server_address[:2]

    def count_request(self, num_frames: int) -> None:
        with self._count_lock:
            self._served_requests += 1
            self._served_frames += num_frames

    def stats_snapshot(self) -> dict:
        """Scorer stats plus server/pool identity, as one JSON-able dict."""
        snapshot = dict(self.scorer.stats.snapshot())
        snapshot["server_requests"] = self._served_requests
        snapshot["server_frames"] = self._served_frames
        snapshot["scorer"] = self.scorer.describe()
        if self.lifecycle is not None:
            snapshot["lifecycle"] = self.lifecycle.status()
        return snapshot

    # ------------------------------------------------------------------
    def start(self) -> "ScoringServer":
        """Start accepting connections (idempotent while running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-scoring-server",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("serving on %s:%d", *self.address)
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the listener, then (if owned) close the backing scorer."""
        if self.closing:
            return
        self.closing = True
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout)
        if self.owns_scorer:
            self.scorer.close(drain=drain, timeout=timeout)
        if self._log_handler is not None:
            logging.getLogger("repro.serving").removeHandler(self._log_handler)
            self._log_handler.close()
            self._log_handler = None
        if self._cleanup is not None:
            cleanup, self._cleanup = self._cleanup, None
            cleanup()
        _LOG.info("server on %s:%d closed", *self.address)

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
