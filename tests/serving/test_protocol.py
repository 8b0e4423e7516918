"""Wire-codec tests: framing, payload codecs, typed errors, robustness,
and the client session.

The protocol module is pure bytes-in/bytes-out, so everything here runs
without sockets — including the hypothesis round-trips that feed the
decoder and the client session the exact byte stream under adversarially
chosen chunk boundaries, reply orders, truncations and corruptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    LifecycleStateError,
    ProtocolError,
    RemoteScoringError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)
from repro.serving import protocol
from repro.serving.protocol import Frame, FrameDecoder, FrameType, encode_frame


class TestFraming:
    def test_roundtrip_single_frame(self):
        data = encode_frame(FrameType.PING, 7, b"hello")
        frames = FrameDecoder().feed(data)
        assert frames == [Frame(type=FrameType.PING, request_id=7, payload=b"hello")]

    def test_byte_at_a_time_reassembly(self):
        data = encode_frame(FrameType.SCORE, 2**63, b"x" * 37)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i : i + 1]))
        assert len(frames) == 1
        assert frames[0].request_id == 2**63
        assert frames[0].payload == b"x" * 37
        assert decoder.buffered == 0

    def test_multiple_frames_in_one_chunk(self):
        data = b"".join(encode_frame(FrameType.PING, i, b"p") for i in range(5))
        frames = FrameDecoder().feed(data)
        assert [frame.request_id for frame in frames] == list(range(5))

    def test_truncated_frame_stays_buffered(self):
        data = encode_frame(FrameType.SCORE, 1, b"abcdef")
        decoder = FrameDecoder()
        assert decoder.feed(data[:-3]) == []
        assert decoder.buffered == len(data) - 3
        frames = decoder.feed(data[-3:])
        assert len(frames) == 1 and frames[0].payload == b"abcdef"

    def test_truncated_header_stays_buffered(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"RS") == []
        assert decoder.buffered == 2

    def test_bad_magic_raises(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(b"XX" + b"\x00" * 14)

    def test_bad_version_raises(self):
        data = bytearray(encode_frame(FrameType.PING, 1))
        data[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(bytes(data))

    def test_unknown_frame_type_raises(self):
        data = bytearray(encode_frame(FrameType.PING, 1))
        data[3] = 77
        with pytest.raises(ProtocolError, match="unknown frame type"):
            FrameDecoder().feed(bytes(data))

    def test_oversized_payload_rejected_from_header_alone(self):
        # The decoder must reject on the length prefix, before the payload
        # bytes exist — a hostile prefix may never be allowed to allocate.
        decoder = FrameDecoder(max_payload=64)
        header_only = encode_frame(FrameType.SCORE, 1, b"x" * 65)[: protocol.HEADER_SIZE]
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header_only)

    def test_payload_at_bound_accepted(self):
        decoder = FrameDecoder(max_payload=64)
        frames = decoder.feed(encode_frame(FrameType.SCORE, 1, b"x" * 64))
        assert frames[0].payload == b"x" * 64

    def test_request_id_range_enforced(self):
        with pytest.raises(ProtocolError):
            encode_frame(FrameType.PING, -1)
        with pytest.raises(ProtocolError):
            encode_frame(FrameType.PING, 2**64)

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(list(FrameType)),
                st.integers(min_value=0, max_value=2**64 - 1),
                st.binary(max_size=200),
            ),
            min_size=1,
            max_size=6,
        ),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    def test_stream_roundtrip_under_arbitrary_chunking(self, frames, chunk_size):
        stream = b"".join(
            encode_frame(ftype, rid, payload) for ftype, rid, payload in frames
        )
        decoder = FrameDecoder()
        decoded = []
        for begin in range(0, len(stream), chunk_size):
            decoded.extend(decoder.feed(stream[begin : begin + chunk_size]))
        assert [(f.type, f.request_id, f.payload) for f in decoded] == frames
        assert decoder.buffered == 0


class TestScoreCodec:
    def test_roundtrip(self):
        frames = np.arange(12.0).reshape(3, 4)
        back = protocol.decode_score_request(protocol.encode_score_request(frames))
        np.testing.assert_array_equal(back, frames)
        assert back.dtype == np.float64

    def test_decoded_array_owns_memory(self):
        back = protocol.decode_score_request(
            protocol.encode_score_request(np.ones((2, 2)))
        )
        back[0, 0] = 42.0  # would raise on a read-only frombuffer view

    def test_one_dimensional_input_promoted(self):
        back = protocol.decode_score_request(
            protocol.encode_score_request(np.arange(4.0))
        )
        assert back.shape == (1, 4)

    def test_body_length_mismatch_rejected(self):
        payload = protocol.encode_score_request(np.ones((2, 3)))
        with pytest.raises(ProtocolError, match="bytes"):
            protocol.decode_score_request(payload[:-8])

    def test_malformed_shape_rejected(self):
        payload = protocol._pack_payload({"dtype": "<f8", "shape": [2, -1]}, b"")
        with pytest.raises(ProtocolError, match="shape"):
            protocol.decode_score_request(payload)

    def test_wrong_dtype_rejected(self):
        payload = protocol._pack_payload({"dtype": "<f4", "shape": [1, 1]}, b"\x00" * 4)
        with pytest.raises(ProtocolError, match="dtype"):
            protocol.decode_score_request(payload)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_property(self, rows, cols, seed):
        frames = np.random.default_rng(seed).normal(size=(rows, cols))
        back = protocol.decode_score_request(protocol.encode_score_request(frames))
        np.testing.assert_array_equal(back, frames)


class TestResultCodec:
    def test_roundtrip(self):
        warns = {"a": [True, False, True], "b": [False, False, False]}
        back = protocol.decode_result(protocol.encode_result(warns))
        assert set(back) == {"a", "b"}
        np.testing.assert_array_equal(back["a"], [True, False, True])
        np.testing.assert_array_equal(back["b"], [False, False, False])

    def test_empty_result(self):
        assert protocol.decode_result(protocol.encode_result({})) == {}

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError):
            protocol.encode_result({"a": [True], "b": [True, False]})

    def test_body_count_mismatch_rejected(self):
        payload = protocol._pack_payload({"monitors": ["a"], "count": 3}, b"\x01")
        with pytest.raises(ProtocolError):
            protocol.decode_result(payload)

    @pytest.mark.parametrize(
        "header",
        [b"\xff\xfe\x00\x01", b"[" * 100_000, b'{"count":' + b"1" * 5000 + b"}"],
        ids=["bad-utf8", "nested-past-recursion-limit", "integer-past-digit-limit"],
    )
    def test_malformed_payload_json_rejected(self, header):
        bad = protocol._JSON_LEN.pack(len(header)) + header
        with pytest.raises(ProtocolError):
            protocol.decode_result(bad)

    @settings(max_examples=40, deadline=None)
    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        count=st.integers(min_value=0, max_value=32),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_property(self, names, count, seed):
        rng = np.random.default_rng(seed)
        warns = {name: rng.random(count) < 0.5 for name in names}
        back = protocol.decode_result(protocol.encode_result(warns))
        assert list(back) == names
        for name in names:
            np.testing.assert_array_equal(back[name], warns[name])


class TestTypedErrors:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (ServiceOverloadedError("x"), "overloaded"),
            (ServiceClosedError("x"), "closed"),
            (ShapeError("x"), "shape"),
            (ProtocolError("x"), "protocol"),
            (WorkerCrashError("x"), "worker_crash"),
            (RemoteScoringError("x"), "internal"),
            (ValueError("x"), "internal"),
            (ConfigurationError("x"), "configuration"),
            (LifecycleStateError("x"), "lifecycle"),
        ],
    )
    def test_exception_code_roundtrip(self, exc, code):
        payload = protocol.encode_error(exc)
        assert protocol.decode_json(payload) == {"code": code, "message": "x"}
        raised = protocol.decode_error(payload)
        if isinstance(exc, ReproError):
            assert type(raised) is type(exc)
        else:
            assert type(raised) is RemoteScoringError
        assert str(raised) == "x"

    def test_unknown_code_maps_to_remote_error(self):
        exc = protocol.decode_error(protocol.encode_json({"code": "who-knows", "message": "boom"}))
        assert type(exc) is RemoteScoringError
        assert "boom" in str(exc)

    def test_worker_crash_is_remote_scoring_error(self):
        # Clients catching the transport error class also see crash errors.
        assert issubclass(WorkerCrashError, RemoteScoringError)


class TestJsonCodec:
    def test_roundtrip(self):
        data = {"a": 1, "nested": {"b": [1, 2, 3]}}
        assert protocol.decode_json(protocol.encode_json(data)) == data


# One argument per request type, and the reply type that answers it.
REQUESTS = {
    FrameType.SCORE: (np.zeros((2, 3)), FrameType.RESULT),
    FrameType.PING: (b"ping", FrameType.PONG),
    FrameType.STATS: (None, FrameType.STATS_REPLY),
    FrameType.LIFECYCLE_STATUS: (None, FrameType.LIFECYCLE_REPLY),
    FrameType.PROMOTE: (
        {"name": "m", "guard": True, "watch_budget": None},
        FrameType.LIFECYCLE_REPLY,
    ),
    FrameType.ROLLBACK: ({"name": "m", "version": 1}, FrameType.LIFECYCLE_REPLY),
    FrameType.SHADOW_REPORT: ({"name": None}, FrameType.LIFECYCLE_REPLY),
}
ERRORS = [cls for _, cls in protocol._ERROR_CODES] + [ValueError]


@st.composite
def exchanges(draw):
    """Pipelined requests of every type, each with a well-formed reply:
    the one its type expects, or a typed ERROR."""
    types = draw(st.lists(st.sampled_from(sorted(REQUESTS)), min_size=1, max_size=8))
    replies = []
    for request_type in types:
        reply_type = REQUESTS[request_type][1]
        if draw(st.booleans()):
            error = draw(st.sampled_from(ERRORS))(draw(st.text(max_size=12)))
            replies.append((FrameType.ERROR, protocol.encode_error(error)))
        elif reply_type == FrameType.RESULT:
            count = draw(st.integers(0, 4))
            names = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
            flags = st.lists(st.booleans(), min_size=count, max_size=count)
            replies.append((reply_type, protocol.encode_result({n: draw(flags) for n in names})))
        elif reply_type == FrameType.PONG:
            replies.append((reply_type, draw(st.binary(max_size=12))))
        else:
            data = draw(st.dictionaries(st.text(max_size=4), st.integers(), max_size=3))
            replies.append((reply_type, protocol.encode_json(data)))
    return types, replies


def open_requests(types):
    session = protocol.ClientSession()
    sent = [session.request(t, REQUESTS[t][0]) for t in types]
    return session, [request_id for request_id, _, _ in sent], [f for _, f, _ in sent]


def deliver(session, stream, cuts):
    bounds = sorted(set(cuts)) + [len(stream)]
    for begin, end in zip([0] + bounds, bounds):
        session.receive(stream[begin:end])


def outcome(future):
    assert future.done()
    if future.exception() is not None:
        return type(future.exception()), str(future.exception())
    value = future.result()
    if isinstance(value, dict):
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in value.items()}
    return value


class TestClientSession:
    """The client's half of the wire, fed bytes directly: no sockets."""

    @settings(max_examples=80, deadline=None)
    @given(plan=exchanges(), data=st.data())
    def test_any_order_and_split_settles_as_one_chunk_does(self, plan, data):
        types, replies = plan
        session, ids, futures = open_requests(types)
        order = data.draw(st.permutations(range(len(types))))
        stream = b"".join(encode_frame(replies[i][0], ids[i], replies[i][1]) for i in order)
        deliver(session, stream, data.draw(st.lists(st.integers(0, len(stream)), max_size=10)))
        assert session.pending == {}

        reference, ref_ids, ref_futures = open_requests(types)
        reference.receive(
            b"".join(encode_frame(kind, i, payload) for i, (kind, payload) in zip(ref_ids, replies))
        )
        assert [outcome(f) for f in futures] == [outcome(f) for f in ref_futures]

    @settings(max_examples=120, deadline=None)
    @given(plan=exchanges(), data=st.data())
    def test_truncated_or_corrupted_replies_raise_only_typed_errors(self, plan, data):
        types, replies = plan
        session, ids, futures = open_requests(types)
        stream = bytearray(
            b"".join(encode_frame(kind, i, payload) for i, (kind, payload) in zip(ids, replies))
        )
        for _ in range(data.draw(st.integers(0, 3))):
            stream[data.draw(st.integers(0, len(stream) - 1))] = data.draw(st.integers(0, 255))
        stream = bytes(stream[: data.draw(st.integers(0, len(stream)))])
        try:
            deliver(session, stream, data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))
        except ProtocolError:
            pass  # the stream lost its frame boundary: the connection closes
        session.fail_all(RemoteScoringError("connection lost"))
        assert session.pending == {}
        for future in futures:
            assert future.done()
            assert future.exception() is None or isinstance(future.exception(), ReproError)

    @pytest.mark.parametrize(
        "request_type, reply_type, payload",
        [
            (FrameType.SCORE, FrameType.PONG, b"ping"),
            (FrameType.PING, FrameType.RESULT, protocol.encode_result({"m": [True]})),
            (FrameType.PROMOTE, FrameType.STATS_REPLY, protocol.encode_json({"a": 1})),
            (FrameType.SCORE, FrameType.SCORE, b""),
        ],
        ids=["pong-to-score", "result-to-ping", "stats-reply-to-promote", "request-as-reply"],
    )
    def test_reply_of_another_type_fails_only_its_request(self, request_type, reply_type, payload):
        session, ids, futures = open_requests([request_type, FrameType.PING])
        session.receive(
            encode_frame(reply_type, ids[0], payload) + encode_frame(FrameType.PONG, ids[1], b"ok")
        )
        with pytest.raises(ProtocolError, match="cannot answer"):
            futures[0].result(0)
        assert futures[1].result(0) == b"ok"
        assert session.pending == {}

    def test_requests_on_the_wire_cannot_be_cancelled(self):
        session, ids, futures = open_requests([FrameType.PING])
        assert not futures[0].cancel()
        session.receive(encode_frame(FrameType.PONG, ids[0], b"ping"))
        assert futures[0].result(0) == b"ping"

    def test_lifecycle_payloads_are_the_clients_dicts_without_nones(self):
        _, _, data = protocol.ClientSession().request(
            FrameType.PROMOTE, {"name": "m", "guard": False, "watch_budget": None}
        )
        frame = FrameDecoder().feed(data)[0]
        assert frame.payload == protocol.encode_json({"name": "m", "guard": False})
        _, _, data = protocol.ClientSession().request(FrameType.STATS)
        assert FrameDecoder().feed(data)[0].payload == b""
