"""Malformed lifecycle control frames over a raw socket.

A PROMOTE or ROLLBACK payload whose field has the wrong type is answered
with a typed ``protocol`` ERROR frame before anything changes, and the
connection stays usable: a PING pipelined behind the bad request still
gets its PONG.
"""

import socket

import pytest

from repro.exceptions import ConfigurationError, ProtocolError
from repro.serving import FrameType, ScoringClient, ScoringServer, encode_frame, protocol

BAD_REQUESTS = {
    "rollback-version-str": (FrameType.ROLLBACK, {"name": "mon", "version": "abc"}),
    "rollback-version-list": (FrameType.ROLLBACK, {"name": "mon", "version": [1]}),
    "rollback-version-bool": (FrameType.ROLLBACK, {"name": "mon", "version": True}),
    "rollback-version-float": (FrameType.ROLLBACK, {"name": "mon", "version": 1.0}),
    "rollback-name-int": (FrameType.ROLLBACK, {"name": 3}),
    "promote-name-missing": (FrameType.PROMOTE, {"guard": False}),
    "promote-budget-str": (
        FrameType.PROMOTE,
        {"name": "mon", "guard": False, "watch_budget": "x"},
    ),
    "promote-budget-list": (
        FrameType.PROMOTE,
        {"name": "mon", "guard": False, "watch_budget": [0.5]},
    ),
    "promote-budget-bool": (
        FrameType.PROMOTE,
        {"name": "mon", "guard": False, "watch_budget": True},
    ),
}


def exchange(server, frame_type, payload):
    """Send one control frame with a PING pipelined behind it; both replies."""
    with socket.create_connection(server.address, timeout=10) as raw:
        raw.sendall(
            encode_frame(frame_type, 1, protocol.encode_json(payload))
            + encode_frame(FrameType.PING, 2, b"ping")
        )
        decoder = protocol.FrameDecoder()
        frames = []
        while len(frames) < 2:
            chunk = raw.recv(65536)
            assert chunk, "server closed the connection without answering"
            frames += decoder.feed(chunk)
    replies = {frame.request_id: frame for frame in frames}
    assert replies[2].type == FrameType.PONG and replies[2].payload == b"ping"
    return replies[1]


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_bad_field_gets_a_typed_error_and_the_connection_survives(
    manager, scorer, candidate_monitor, case
):
    frame_type, payload = BAD_REQUESTS[case]
    manager.stage("mon", candidate_monitor, shadow=False)
    with ScoringServer(scorer, lifecycle=manager) as server:
        reply = exchange(server, frame_type, payload)
    assert reply.type == FrameType.ERROR
    assert type(protocol.decode_error(reply.payload)) is ProtocolError
    # The refused request changed nothing.
    assert manager.live_version("mon") == 1
    assert manager.staged_version("mon") == 2


@pytest.mark.parametrize("budget", [1.5, -0.1])
def test_out_of_range_budget_is_refused_before_anything_changes(
    manager, scorer, candidate_monitor, budget
):
    """A well-typed budget outside [0, 1] is refused by the manager itself,
    and reaches the caller as the ConfigurationError it raised."""
    manager.stage("mon", candidate_monitor, shadow=False)
    payload = {"name": "mon", "guard": False, "watch_budget": budget}
    with ScoringServer(scorer, lifecycle=manager) as server:
        reply = exchange(server, FrameType.PROMOTE, payload)
        with ScoringClient(server.address, timeout=10) as client:
            with pytest.raises(ConfigurationError, match="watch_budget"):
                client.promote("mon", guard=False, watch_budget=budget)
    assert reply.type == FrameType.ERROR
    error = protocol.decode_error(reply.payload)
    assert type(error) is ConfigurationError
    assert "watch_budget" in str(error)
    assert manager.live_version("mon") == 1
    assert manager.staged_version("mon") == 2


def test_well_typed_promote_and_rollback_take_effect(manager, scorer, candidate_monitor):
    manager.stage("mon", candidate_monitor, shadow=False)
    with ScoringServer(scorer, lifecycle=manager) as server:
        with ScoringClient(server.address, timeout=10) as client:
            assert client.promote("mon", guard=False) == {"name": "mon", "version": 2}
            assert manager.live_version("mon") == 2
            assert client.rollback("mon", version=1) == {"name": "mon", "version": 1}
    assert manager.live_version("mon") == 1
