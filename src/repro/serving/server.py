"""TCP front-end: the scoring service's network face.

:class:`ScoringServer` puts the length-prefixed protocol of
:mod:`repro.serving.protocol` in front of a
:class:`~repro.service.FrontEnd` (``submit_many`` → futures) — an
in-process :class:`~repro.service.StreamingScorer` or an out-of-process
:class:`~repro.serving.pool.WorkerPool`.  Built on
:class:`socketserver.ThreadingTCPServer`: one daemon thread per connection
reads frames incrementally, SCORE requests go straight into the scorer, and
each response is written when its futures resolve — requests *pipeline*,
so a client keeps many scores in flight per connection and responses return
in completion order, matched by ``request_id``.

Scorer-side failures travel as typed error frames, so remote callers see
the same exception classes in-process callers do (overload, closed, shape);
framing violations (bad magic, oversized payload) get one final typed
error, then the connection closes — after a framing error the byte stream
has no recoverable frame boundary.
"""

from __future__ import annotations

import logging
import socketserver
import threading
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
        self._send(
            protocol.FrameType.ERROR,
            request_id,
            protocol.encode_error(protocol.exception_to_code(exc), str(exc)),
        )

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
    _LIFECYCLE_TYPES = (
        protocol.FrameType.LIFECYCLE_STATUS,
        protocol.FrameType.PROMOTE,
        protocol.FrameType.ROLLBACK,
        protocol.FrameType.SHADOW_REPORT,
    )

    def _dispatch(self, frame: protocol.Frame) -> None:
        if frame.type == protocol.FrameType.PING:
            self._send(protocol.FrameType.PONG, frame.request_id, frame.payload)
        elif frame.type == protocol.FrameType.STATS:
            self._send(
                protocol.FrameType.STATS_REPLY,
                frame.request_id,
                protocol.encode_json(self.owner.stats_snapshot()),
            )
        elif frame.type == protocol.FrameType.SCORE:
            self._handle_score(frame)
        elif frame.type in self._LIFECYCLE_TYPES:
            self._handle_lifecycle(frame)
        else:
            self._send_error(
                frame.request_id,
                ProtocolError(f"frame type {frame.type.name} is not a request"),
            )

    def _handle_lifecycle(self, frame: protocol.Frame) -> None:
        """Lifecycle control frames, answered with one LIFECYCLE_REPLY.

        The handlers run on the connection thread: promotion quiesces the
        front-end, which must not block the scoring
        path — and does not, since scoring responses are written by future
        done-callbacks, not by this thread.
        """
        manager = self.owner.lifecycle
        try:
            if manager is None:
                raise LifecycleStateError(
                    "this server has no lifecycle manager attached; start it "
                    "with ScoringServer(lifecycle=...) or "
                    "MonitorPipeline.serve(lifecycle=True)"
                )
            request = (
                protocol.decode_json(frame.payload) if frame.payload else {}
            )
            if frame.type == protocol.FrameType.LIFECYCLE_STATUS:
                reply = manager.status()
            elif frame.type == protocol.FrameType.SHADOW_REPORT:
                reply = {"shadows": manager.shadow_report(request.get("name"))}
            elif frame.type == protocol.FrameType.PROMOTE:
                name = self._request_name(request)
                version = manager.promote(
                    name,
                    guard=bool(request.get("guard", True)),
                    watch_budget=request.get("watch_budget"),
                )
                reply = {"name": name, "version": version}
            else:  # ROLLBACK
                name = self._request_name(request)
                version = manager.rollback(name, request.get("version"))
                reply = {"name": name, "version": version}
        except ReproError as exc:
            self._send_error(frame.request_id, exc)
            return
        self._send(
            protocol.FrameType.LIFECYCLE_REPLY,
            frame.request_id,
            protocol.encode_json(reply),
        )

    @staticmethod
    def _request_name(request: dict) -> str:
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                "lifecycle request payload must carry a monitor 'name'"
            )
        return name

    def _handle_score(self, frame: protocol.Frame) -> None:
        request_id = frame.request_id
        try:
            inputs = protocol.decode_score_request(frame.payload)
            futures = self.owner.scorer.submit_many(inputs)
        except ReproError as exc:
            self._send_error(request_id, exc)
            return
        self.owner.count_request(len(futures))
        if not futures:
            self._send(
                protocol.FrameType.RESULT, request_id, protocol.encode_result({})
            )
            return
        # Pipelining without extra threads: the done-callback of the last
        # future to resolve assembles and writes the response.
        remaining = [len(futures)]
        counter_lock = threading.Lock()

        def finish() -> None:
            try:
                results = [future.result() for future in futures]
            except BaseException as exc:
                self._send_error(request_id, exc)
                return
            names = results[0].warns.keys()
            warns = {
                name: [result.warns[name] for result in results] for name in names
            }
            self._send(
                protocol.FrameType.RESULT, request_id, protocol.encode_result(warns)
            )

        def on_done(_future) -> None:
            with counter_lock:
                remaining[0] -= 1
                last = remaining[0] == 0
            if last:
                finish()

        for future in futures:
            future.add_done_callback(on_done)


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
