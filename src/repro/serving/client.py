"""The client of the scoring protocol: blocking calls, pipelined futures.

:class:`ScoringClient` is the deployment-side handle: producers on another
process or machine call :meth:`ScoringClient.score` (blocking) or keep many
:meth:`ScoringClient.score_async` futures in flight on one connection.  It
is a socket adapter over :class:`~repro.serving.protocol.ClientSession`,
which pairs each reply with its request: the client dials, sends, and runs
one reader thread per connection.  Typed error frames raise the exception
classes the in-process scorer raises; a lost connection fails every
in-flight future with :class:`~repro.exceptions.RemoteScoringError`, and
the next call dials again.

Event-loop producers await the same futures:
``await asyncio.wrap_future(client.score_async(frames))``.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import Future
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..exceptions import ProtocolError, RemoteScoringError
from . import protocol
from .protocol import FrameType

__all__ = ["ScoringClient"]


class ScoringClient:
    """Blocking, pipelining client of a :class:`~repro.serving.ScoringServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server.
    timeout:
        Default per-request timeout in seconds (connection setup uses it
        too); individual calls may override it.
    max_payload:
        Bound on one reply frame's payload.

    A call on a lost connection dials again instead of raising; requests
    in flight on the dead connection still fail (their replies are gone
    with it).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 30.0,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.timeout = float(timeout)
        self.max_payload = int(max_payload)
        self._lock = threading.Lock()  # guards the socket handoff; keeps frames whole
        self._sock: Optional[socket.socket] = None
        self._session: Optional[protocol.ClientSession] = None  # of the last dial
        self._closed = False

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        with self._lock:
            return self._sock is not None

    def _connection(self) -> Tuple[socket.socket, protocol.ClientSession]:
        """The live socket and its session; dials first when there is none."""
        with self._lock:
            if self._closed:
                raise RemoteScoringError("this client has been closed")
            if self._sock is None:
                try:
                    sock = socket.create_connection(self.address, timeout=self.timeout)
                except OSError as exc:
                    raise RemoteScoringError(
                        f"cannot connect to {self.address[0]}:{self.address[1]}: {exc}"
                    ) from exc
                sock.settimeout(None)  # the reader blocks; timeouts are per-future
                self._sock = sock
                self._session = protocol.ClientSession(self.max_payload)
                threading.Thread(
                    target=self._read_loop,
                    args=(sock, self._session),
                    name="repro-scoring-client",
                    daemon=True,
                ).start()
            return self._sock, self._session

    def connect(self) -> "ScoringClient":
        """Dial the server (idempotent while connected)."""
        self._connection()
        return self

    def close(self) -> None:
        """Drop the connection and fail anything still in flight."""
        with self._lock:
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
            self._session.fail_all(RemoteScoringError("client closed"))

    def __enter__(self) -> "ScoringClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _read_loop(self, sock: socket.socket, session: protocol.ClientSession) -> None:
        error: Exception = RemoteScoringError("connection lost")
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                session.receive(chunk)
        except ProtocolError as exc:
            error = exc
        except OSError:
            pass
        with self._lock:
            if self._sock is sock:  # a newer connection may already exist
                self._sock = None
        sock.close()  # this reader is the dead socket's last user
        session.fail_all(error)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _request(self, frame_type: FrameType, argument: Any = None) -> Future:
        sock, session = self._connection()
        request_id, future, data = session.request(frame_type, argument)
        try:
            with self._lock:
                sock.sendall(data)
        except OSError as exc:
            session.discard(request_id)
            with self._lock:
                if self._sock is sock:
                    self._sock = None
            raise RemoteScoringError(f"send failed: {exc}") from exc
        return future

    def _call(self, frame_type: FrameType, argument: Any, timeout: Optional[float]):
        """Blocking request, sent once more on a new connection after a
        ``RemoteScoringError`` if the protocol marks its type retryable: a
        server restart leaves a half-open socket, and only the reader's EOF
        reveals the loss.  The second failure propagates."""
        wait = self.timeout if timeout is None else timeout
        try:
            return self._request(frame_type, argument).result(wait)
        except RemoteScoringError:
            if self._closed or not protocol._EXCHANGES[frame_type].retry:
                raise
        return self._request(frame_type, argument).result(wait)

    def score_async(self, frames: np.ndarray) -> Future:
        """Pipeline one score request; future resolves to the per-monitor
        warn vectors ``{name: bool array of len(frames)}``."""
        return self._request(FrameType.SCORE, frames)

    def score(
        self, frames: np.ndarray, timeout: Optional[float] = None
    ) -> Dict[str, np.ndarray]:
        """Score a frame batch and block for the verdicts."""
        return self._call(FrameType.SCORE, frames, timeout)

    def ping(self, timeout: Optional[float] = None) -> bytes:
        """Round-trip liveness probe (echoes its payload)."""
        return self._call(FrameType.PING, b"ping", timeout)

    def stats(self, timeout: Optional[float] = None) -> dict:
        """Server-side stats snapshot (scorer ledger + server counters)."""
        return self._call(FrameType.STATS, None, timeout)

    # ------------------------------------------------------------------
    # lifecycle control (requires a server started with lifecycle=...)
    # ------------------------------------------------------------------
    def lifecycle_status(self, timeout: Optional[float] = None) -> dict:
        """Lifecycle snapshot: per monitor the live version + state machine."""
        return self._call(FrameType.LIFECYCLE_STATUS, None, timeout)

    def promote(
        self,
        name: str,
        guard: bool = True,
        watch_budget: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Promote the staged version of ``name``; returns ``{name, version}``.

        A guarded promotion whose shadow evidence is missing or breached
        raises :class:`~repro.exceptions.LifecycleStateError`, and a budget
        outside ``[0, 1]`` :class:`~repro.exceptions.ConfigurationError` —
        the same exceptions an in-process ``LifecycleManager.promote``
        raises.  Never resent: a retry could promote twice.
        """
        budget = None if watch_budget is None else float(watch_budget)
        request = {"name": str(name), "guard": bool(guard), "watch_budget": budget}
        return self._call(FrameType.PROMOTE, request, timeout)

    def rollback(
        self,
        name: str,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Roll ``name`` back to ``version`` (default: the predecessor)."""
        version = None if version is None else int(version)
        return self._call(FrameType.ROLLBACK, {"name": str(name), "version": version}, timeout)

    def shadow_report(
        self, name: Optional[str] = None, timeout: Optional[float] = None
    ) -> dict:
        """Agreement/disagreement ledgers of the attached shadow monitors."""
        name = None if name is None else str(name)
        return self._call(FrameType.SHADOW_REPORT, {"name": name}, timeout)
