"""Length-prefixed binary wire protocol of the scoring service.

The out-of-process scorer speaks a deliberately small, stdlib-only protocol
over TCP.  Every message is one *frame*::

    magic(2) | version(1) | type(1) | request_id(8, BE) | payload_len(4, BE) | payload

``request_id`` is chosen by the requester and echoed verbatim in the
response, which is what makes request *pipelining* possible: a client may
have any number of requests in flight on one connection and match
responses by id, in whatever order the server finishes them.

Payloads are a 4-byte big-endian JSON-header length, the UTF-8 JSON header,
then raw array bytes — numpy arrays travel as their C-contiguous buffer
next to a ``dtype``/``shape`` description, so a score request never pays
pickling or base64 overhead.

Everything both ends must agree on lives here, once, and none of it does
I/O: the ``_EXCHANGES`` table (each request type's reply type, whether a
client may resend it after a lost connection, and its payload codecs,
lifecycle field checks included); the typed error mapping of
:func:`encode_error` / :func:`decode_error`, which lets a client raise the
exception class the in-process scorer would have raised; and
:class:`ClientSession`, the client's half of one connection — bytes in,
futures settled.  ``tests/serving/test_protocol.py`` feeds codecs and
session frame streams under arbitrary chunk boundaries, reorderings,
truncations and corruptions.
"""

from __future__ import annotations

import itertools
import json
import struct
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Tuple

import numpy as np

from ..exceptions import (
    ConfigurationError,
    LifecycleStateError,
    ProtocolError,
    RemoteScoringError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)

__all__ = [
    "DEFAULT_MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "ClientSession",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "decode_error",
    "decode_json",
    "decode_result",
    "decode_score_request",
    "encode_error",
    "encode_frame",
    "encode_json",
    "encode_result",
    "encode_score_request",
]

MAGIC = b"RS"
PROTOCOL_VERSION = 1

#: Default bound on a single frame's payload (requests *and* responses).
#: 64 MiB holds a ~1000-frame micro-burst of 8k-feature float64 rows; a
#: length prefix above the bound is rejected before any allocation, so a
#: garbled or malicious prefix cannot make the server reserve gigabytes.
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024

_HEADER = struct.Struct(">2sBBQI")
HEADER_SIZE = _HEADER.size
_JSON_LEN = struct.Struct(">I")


class FrameType(IntEnum):
    """Wire frame types (requests < 128, responses >= 128)."""

    SCORE = 1
    PING = 2
    STATS = 3
    LIFECYCLE_STATUS = 4
    PROMOTE = 5
    ROLLBACK = 6
    SHADOW_REPORT = 7
    RESULT = 129
    ERROR = 130
    PONG = 131
    STATS_REPLY = 132
    LIFECYCLE_REPLY = 133


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    type: FrameType
    request_id: int
    payload: bytes = b""


def encode_frame(frame_type: FrameType, request_id: int, payload: bytes = b"") -> bytes:
    """Serialise one frame to wire bytes."""
    if not 0 <= request_id < 2**64:
        raise ProtocolError(f"request_id {request_id} outside the unsigned 64-bit range")
    return (
        _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(frame_type), request_id, len(payload))
        + payload
    )


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    ``feed`` accepts whatever the transport produced — half a header, three
    frames and a tail, one byte — buffers the remainder, and returns every
    frame completed so far.  Framing violations (bad magic, unknown version,
    unknown type, payload above ``max_payload``) raise
    :class:`~repro.exceptions.ProtocolError`; after that the stream has no
    recoverable frame boundary and the connection must be closed.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        self.max_payload = int(max_payload)
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes received but not yet assembled into a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame it completed."""
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return frames
            magic, version, ftype, request_id, length = _HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic {magic!r} (not a scoring-protocol stream?)"
                )
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version} "
                    f"(this peer speaks {PROTOCOL_VERSION})"
                )
            try:
                frame_type = FrameType(ftype)
            except ValueError as exc:
                raise ProtocolError(f"unknown frame type {ftype}") from exc
            if length > self.max_payload:
                raise ProtocolError(
                    f"frame payload of {length} bytes exceeds the "
                    f"{self.max_payload}-byte bound"
                )
            if len(self._buffer) < HEADER_SIZE + length:
                return frames
            payload = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + length])
            del self._buffer[: HEADER_SIZE + length]
            frames.append(Frame(type=frame_type, request_id=request_id, payload=payload))


# ----------------------------------------------------------------------
# payload codecs: JSON header + raw array bytes
# ----------------------------------------------------------------------
def _pack_payload(header: Mapping[str, object], *buffers: bytes) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join((_JSON_LEN.pack(len(header_bytes)), header_bytes) + buffers)


def _unpack_payload(payload: bytes) -> Tuple[dict, bytes]:
    if len(payload) < _JSON_LEN.size:
        raise ProtocolError("payload truncated before its JSON header length")
    (header_len,) = _JSON_LEN.unpack_from(payload)
    body_start = _JSON_LEN.size + header_len
    if len(payload) < body_start:
        raise ProtocolError("payload truncated inside its JSON header")
    # ValueError covers bad UTF-8, bad JSON and integers past Python's digit
    # limit; RecursionError, arrays nested past the parser's depth.
    try:
        header = json.loads(payload[_JSON_LEN.size : body_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed payload JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("payload JSON header must be an object")
    return header, payload[body_start:]


def encode_score_request(frames: np.ndarray) -> bytes:
    """Payload of a SCORE request: an ``(N, d)`` float64 frame batch."""
    frames = np.ascontiguousarray(np.atleast_2d(np.asarray(frames, dtype=np.float64)))
    if frames.ndim != 2:
        raise ShapeError(f"expected an (N, d) frame batch, got shape {frames.shape}")
    header = {"dtype": "<f8", "shape": list(frames.shape)}
    return _pack_payload(header, frames.astype("<f8", copy=False).tobytes())


def decode_score_request(payload: bytes) -> np.ndarray:
    """Frame batch of a SCORE request payload (always owns its memory)."""
    header, body = _unpack_payload(payload)
    if header.get("dtype") != "<f8":
        raise ProtocolError(f"unsupported frame dtype {header.get('dtype')!r}")
    shape = header.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(dim, int) and dim >= 0 for dim in shape)
    ):
        raise ProtocolError(f"malformed frame shape {shape!r}")
    expected = shape[0] * shape[1] * 8
    if len(body) != expected:
        raise ProtocolError(
            f"frame body carries {len(body)} bytes, shape {tuple(shape)} needs {expected}"
        )
    return np.frombuffer(body, dtype="<f8").reshape(shape).copy()


def encode_result(warns: Mapping[str, np.ndarray]) -> bytes:
    """Payload of a RESULT response: one boolean warn vector per monitor."""
    names = list(warns)
    buffers = []
    count = None
    for name in names:
        flags = np.ascontiguousarray(np.asarray(warns[name], dtype=bool))
        if flags.ndim != 1:
            raise ShapeError(f"warn vector of '{name}' must be 1-D, got {flags.shape}")
        if count is None:
            count = flags.shape[0]
        elif flags.shape[0] != count:
            raise ShapeError("all warn vectors of one result must have equal length")
        buffers.append(flags.astype(np.uint8, copy=False).tobytes())
    header = {"monitors": names, "count": 0 if count is None else int(count)}
    return _pack_payload(header, *buffers)


def decode_result(payload: bytes) -> Dict[str, np.ndarray]:
    """Per-monitor boolean warn vectors of a RESULT payload."""
    header, body = _unpack_payload(payload)
    names = header.get("monitors")
    count = header.get("count")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ProtocolError(f"malformed monitor name list {names!r}")
    if not isinstance(count, int) or count < 0:
        raise ProtocolError(f"malformed result count {count!r}")
    if len(body) != count * len(names):
        raise ProtocolError(
            f"result body carries {len(body)} bytes, "
            f"{len(names)} monitors x {count} frames need {count * len(names)}"
        )
    out: Dict[str, np.ndarray] = {}
    for index, name in enumerate(names):
        flags = np.frombuffer(body, dtype=np.uint8, count=count, offset=index * count)
        out[name] = flags.astype(bool)
    return out


# ----------------------------------------------------------------------
# typed error frames
# ----------------------------------------------------------------------
#: Stable wire codes and the local exception classes they stand for.  An
#: exception travels as the first code it is an instance of, so every
#: subclass precedes its base (``lifecycle`` before ``configuration``,
#: ``worker_crash`` before ``internal``).
_ERROR_CODES = (
    ("overloaded", ServiceOverloadedError),
    ("closed", ServiceClosedError),
    ("shape", ShapeError),
    ("protocol", ProtocolError),
    ("worker_crash", WorkerCrashError),
    ("lifecycle", LifecycleStateError),
    ("configuration", ConfigurationError),
    ("internal", RemoteScoringError),
)


def encode_error(exc: BaseException) -> bytes:
    """Payload of an ERROR reply: the wire code of ``exc`` and its message."""
    code = next((code for code, cls in _ERROR_CODES if isinstance(exc, cls)), "internal")
    return _pack_payload({"code": code, "message": str(exc)})


def decode_error(payload: bytes) -> Exception:
    """The local exception of an ERROR payload; an unknown code (say, from a
    newer peer) maps to :class:`~repro.exceptions.RemoteScoringError`."""
    header, _ = _unpack_payload(payload)
    cls = dict(_ERROR_CODES).get(str(header.get("code")), RemoteScoringError)
    return cls(str(header.get("message", "")))


def encode_json(data: Mapping[str, object]) -> bytes:
    """Payload of a STATS reply (or any small JSON-shaped message)."""
    return _pack_payload(dict(data))


def decode_json(payload: bytes) -> dict:
    header, _ = _unpack_payload(payload)
    return header


# ----------------------------------------------------------------------
# the request/reply contract
# ----------------------------------------------------------------------
class _Codec(NamedTuple):
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


class _Exchange(NamedTuple):
    reply: FrameType  # the reply type that answers the request (or ERROR)
    retry: bool  # may a client resend it after losing the connection?
    request: _Codec
    response: _Codec


_ABSENT = type(None)


def _lifecycle(**fields: tuple) -> _Codec:
    """A lifecycle request: a JSON object of ``fields``, each the JSON types
    it may take (``_ABSENT``: optional; a required one must be non-empty),
    named as the ``LifecycleManager`` parameter it feeds.  ``None`` fields
    are not sent, nor decoded."""

    def decode(payload: bytes) -> dict:
        request = decode_json(payload) if payload else {}
        for key, kinds in fields.items():
            value = request.get(key)
            if _ABSENT not in kinds and not (isinstance(value, kinds) and value):
                raise ProtocolError(f"lifecycle request payload must carry a monitor '{key}'")
            # bool is an int subclass, but JSON true is no number
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ProtocolError(f"lifecycle request field '{key}' has the wrong type")
        return {key: request[key] for key in fields if request.get(key) is not None}

    def encode(request: Mapping[str, object]) -> bytes:
        return encode_json({key: value for key, value in request.items() if value is not None})

    return _Codec(encode, decode)


# encode_score_request and decode_result are called through this module's
# namespace when a payload is coded, so a wrapper set on either attribute
# (perfbench's tracer sets one) sees every call.
_FRAMES = _Codec(lambda frames: encode_score_request(frames), decode_score_request)
_WARNS = _Codec(encode_result, lambda payload: decode_result(payload))
_JSON = _Codec(encode_json, decode_json)
_RAW = _Codec(bytes, bytes)
_EMPTY = _Codec(lambda _: b"", lambda _: None)
_PROMOTE = _lifecycle(name=(str,), guard=(bool, _ABSENT), watch_budget=(int, float, _ABSENT))
_ROLLBACK = _lifecycle(name=(str,), version=(int, _ABSENT))
_SHADOW_REPORT = _lifecycle(name=(str, _ABSENT))

#: Request type -> what answers it and how its payloads travel.  PROMOTE and
#: ROLLBACK change server state: resent after a lost connection, one could
#: apply twice, so they are never retried.
_EXCHANGES: Dict[FrameType, _Exchange] = {
    FrameType.SCORE: _Exchange(FrameType.RESULT, True, _FRAMES, _WARNS),
    FrameType.PING: _Exchange(FrameType.PONG, True, _RAW, _RAW),
    FrameType.STATS: _Exchange(FrameType.STATS_REPLY, True, _EMPTY, _JSON),
    FrameType.LIFECYCLE_STATUS: _Exchange(FrameType.LIFECYCLE_REPLY, True, _EMPTY, _JSON),
    FrameType.PROMOTE: _Exchange(FrameType.LIFECYCLE_REPLY, False, _PROMOTE, _JSON),
    FrameType.ROLLBACK: _Exchange(FrameType.LIFECYCLE_REPLY, False, _ROLLBACK, _JSON),
    FrameType.SHADOW_REPORT: _Exchange(FrameType.LIFECYCLE_REPLY, True, _SHADOW_REPORT, _JSON),
}


class ClientSession:
    """The client's half of one connection, without sockets or threads.

    :meth:`request` turns a call into a future and the frame to send;
    :meth:`receive` settles the futures that received bytes answer, each as
    its request expects — an ERROR raises its typed exception, and a reply
    of another type or one that cannot be decoded fails only that request,
    with :class:`~repro.exceptions.ProtocolError`.  :meth:`fail_all` fails
    the rest once the connection is gone.  Callers' threads may request
    while one reader receives.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        self._decoder = FrameDecoder(max_payload=max_payload)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: request id -> (exchange, future) of every request awaiting its reply
        self.pending: Dict[int, Tuple[_Exchange, Future]] = {}

    def request(self, frame_type: FrameType, argument: Any = None) -> Tuple[int, Future, bytes]:
        """Register one request: its id, its future and the frame to send."""
        exchange = _EXCHANGES[frame_type]
        payload = exchange.request.encode(argument)
        future: Future = Future()
        future.set_running_or_notify_cancel()  # sent requests cannot be cancelled
        with self._lock:
            request_id = next(self._ids)
            self.pending[request_id] = (exchange, future)
        return request_id, future, encode_frame(frame_type, request_id, payload)

    def discard(self, request_id: int) -> None:
        """Forget a request whose frame was never sent."""
        with self._lock:
            self.pending.pop(request_id, None)

    def receive(self, data: bytes) -> None:
        """Settle every request whose reply ``data`` completes; a framing
        violation raises :class:`~repro.exceptions.ProtocolError`, after
        which the caller closes the connection and fails the rest."""
        for frame in self._decoder.feed(data):
            with self._lock:
                exchange, future = self.pending.pop(frame.request_id, (None, None))
            if future is None:  # no request of ours has this id
                continue
            try:
                if frame.type == FrameType.ERROR:
                    future.set_exception(decode_error(frame.payload))
                elif frame.type != exchange.reply:
                    raise ProtocolError(
                        f"a {frame.type.name} frame cannot answer a request "
                        f"awaiting {exchange.reply.name}"
                    )
                else:
                    future.set_result(exchange.response.decode(frame.payload))
            except ProtocolError as exc:
                future.set_exception(exc)

    def fail_all(self, error: Exception) -> None:
        """Fail every request still awaiting its reply with ``error``."""
        with self._lock:
            pending, self.pending = self.pending, {}
        for _, future in pending.values():
            future.set_exception(error)
