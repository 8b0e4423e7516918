"""Socket server + client tests over the in-process streaming scorer.

Threads only (no worker processes), so these run in tier-1: they pin the
network contract — request/response matching under pipelining, typed error
frames, stats/ping plumbing, reconnect behaviour — independently of the
multi-process pool the CI end-to-end leg exercises.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    ProtocolError,
    RemoteScoringError,
    ServiceClosedError,
    ShapeError,
)
from repro.serving import (
    FrameType,
    ScoringClient,
    ScoringServer,
    encode_frame,
    protocol,
)


@pytest.fixture
def server(local_scorer):
    with ScoringServer(local_scorer) as running:
        yield running


@pytest.fixture
def client(server):
    with ScoringClient(server.address, timeout=30) as connected:
        yield connected


class TestRoundtrip:
    def test_score_matches_offline_warn_batch(
        self, client, serving_monitors, probe_frames
    ):
        warns = client.score(probe_frames)
        assert set(warns) == set(serving_monitors)
        for name, monitor in serving_monitors.items():
            np.testing.assert_array_equal(warns[name], monitor.warn_batch(probe_frames))

    def test_single_frame(self, client, probe_frames):
        warns = client.score(probe_frames[0])
        assert all(len(flags) == 1 for flags in warns.values())

    def test_empty_batch(self, client):
        assert client.score(np.empty((0, 6))) == {}

    def test_ping(self, client):
        assert client.ping() == b"ping"

    def test_stats_carry_server_counters(self, client, probe_frames):
        client.score(probe_frames)
        stats = client.stats()
        assert stats["server_requests"] >= 1
        assert stats["server_frames"] >= probe_frames.shape[0]
        # The last micro-batch's ledger entry may land just after the RESULT
        # frame, so assert on the submit counter (recorded synchronously).
        assert stats["frames_submitted"] >= probe_frames.shape[0]

    def test_pipelined_requests_matched_by_id(self, client, serving_monitors, rng):
        batches = [rng.normal(size=(n, 6)) for n in (1, 7, 3, 16, 2, 9)]
        futures = [client.score_async(batch) for batch in batches]
        monitor = serving_monitors["minmax"]
        for batch, future in zip(batches, futures):
            warns = future.result(30)
            np.testing.assert_array_equal(warns["minmax"], monitor.warn_batch(batch))

    def test_concurrent_clients(self, server, serving_monitors, rng):
        errors = []
        monitor = serving_monitors["boolean"]

        def hammer(seed):
            try:
                local = np.random.default_rng(seed).normal(size=(11, 6))
                with ScoringClient(server.address, timeout=30) as c:
                    for _ in range(5):
                        warns = c.score(local)
                        np.testing.assert_array_equal(
                            warns["boolean"], monitor.warn_batch(local)
                        )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestTypedErrors:
    def test_shape_error_crosses_the_wire(self, client):
        with pytest.raises(ShapeError):
            client.score(np.ones((3, 4)))  # wrong input dimension

    def test_closed_scorer_error_crosses_the_wire(self, local_scorer, server):
        with ScoringClient(server.address, timeout=30) as c:
            local_scorer.close(drain=True)
            with pytest.raises(ServiceClosedError):
                c.score(np.ones((2, 6)))

    def test_non_request_frame_type_rejected(self, server):
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(encode_frame(FrameType.RESULT, 5, b""))
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(raw.recv(65536))
        assert frames[0].type == FrameType.ERROR
        assert frames[0].request_id == 5
        code, _ = protocol.decode_error(frames[0].payload)
        assert code == "protocol"

    def test_garbage_bytes_answered_with_protocol_error_then_close(self, server):
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                chunk = raw.recv(65536)
                assert chunk, "server closed without sending the error frame"
                frames = decoder.feed(chunk)
            assert frames[0].type == FrameType.ERROR
            code, _ = protocol.decode_error(frames[0].payload)
            assert code == "protocol"
            # After the typed error the server closes the unsynchronised
            # stream: the next read must reach EOF.
            while chunk:
                chunk = raw.recv(65536)

    def test_oversized_request_rejected_without_allocation(self, local_scorer):
        with ScoringServer(local_scorer, max_payload=1024) as small_server:
            with ScoringClient(small_server.address, timeout=10) as c:
                with pytest.raises((ProtocolError, RemoteScoringError)):
                    c.score(np.ones((64, 6)))  # 3 KiB payload > 1 KiB bound


class TestReconnect:
    def test_client_survives_server_restart_on_same_port(self, local_scorer, rng):
        first = ScoringServer(local_scorer).start()
        host, port = first.address
        client = ScoringClient((host, port), timeout=30)
        probe = rng.normal(size=(4, 6))
        before = client.score(probe)
        first.close(drain=False)
        second = ScoringServer(local_scorer, host=host, port=port).start()
        try:
            after = client.score(probe)  # auto-reconnects on the dead socket
            for name in before:
                np.testing.assert_array_equal(after[name], before[name])
        finally:
            client.close()
            second.close(drain=False)

    def test_in_flight_requests_fail_on_connection_loss(self, local_scorer, rng):
        server = ScoringServer(local_scorer).start()
        client = ScoringClient(server.address, timeout=30)
        client.connect()
        server.close(drain=False)
        # Whether the send fails fast or the response never arrives, the
        # caller sees the transport error class, not a hang.
        with pytest.raises(RemoteScoringError):
            future = client.score_async(rng.normal(size=(2, 6)))
            future.result(5)
        client.close()

    def test_no_auto_reconnect_when_disabled(self, local_scorer):
        server = ScoringServer(local_scorer).start()
        client = ScoringClient(server.address, timeout=5, auto_reconnect=False)
        client.connect()
        server.close(drain=False)
        client.close()
        with pytest.raises(RemoteScoringError):
            client.score(np.ones((1, 6)))

    @pytest.mark.parametrize("auto_reconnect", [True, False])
    def test_refused_dial_raises_typed_error(self, auto_reconnect):
        # A port that was bound and released has no listener: dialing it is
        # refused at once, deterministically.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        client = ScoringClient(address, timeout=5, auto_reconnect=auto_reconnect)
        try:
            with pytest.raises(RemoteScoringError):
                client.connect()
            with pytest.raises(RemoteScoringError):
                client.ping()
            with pytest.raises(RemoteScoringError):
                client.score_async(np.ones((1, 6)))
            assert not client.is_connected
        finally:
            client.close()

    def test_closed_client_refuses_requests(self, server):
        client = ScoringClient(server.address)
        client.connect()
        client.close()
        with pytest.raises(RemoteScoringError):
            client.ping()


class TestAsyncClient:
    def test_score_and_ping(self, server, serving_monitors, probe_frames):
        import asyncio

        from repro.serving import AsyncScoringClient

        async def run():
            async with AsyncScoringClient(server.address) as client:
                assert await client.ping() == b"ping"
                futures = [
                    asyncio.ensure_future(client.score(probe_frames))
                    for _ in range(3)
                ]
                return await asyncio.gather(*futures)

        all_warns = asyncio.run(run())
        monitor = serving_monitors["minmax"]
        expected = monitor.warn_batch(probe_frames)
        for warns in all_warns:
            np.testing.assert_array_equal(warns["minmax"], expected)

    def test_stats(self, server):
        import asyncio

        from repro.serving import AsyncScoringClient

        async def run():
            async with AsyncScoringClient(server.address) as client:
                return await client.stats()

        stats = asyncio.run(run())
        assert "frames_scored" in stats

    def test_refused_dial_raises_typed_error(self):
        import asyncio

        from repro.serving import AsyncScoringClient

        # A port that was bound and released has no listener: dialing it is
        # refused at once, deterministically.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()

        async def run():
            client = AsyncScoringClient(address)
            with pytest.raises(RemoteScoringError):
                await client.connect()
            await client.close()

        asyncio.run(run())

    def test_send_on_a_reset_connection_raises_typed_error(self, probe_frames):
        import asyncio

        from repro.serving import AsyncScoringClient

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        async def run():
            client = AsyncScoringClient(listener.getsockname())
            await client.connect()
            # The server side resets the connection (linger 0 sends RST) and
            # stops listening.  The client does not yield to the event loop
            # before it scores, so its reader has not seen the reset and the
            # score writes into the dead socket.
            peer, _ = listener.accept()
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.close()
            listener.close()
            time.sleep(0.05)
            with pytest.raises(RemoteScoringError):
                await client.score(probe_frames)
            assert client._pending == {}
            await client.close()

        try:
            asyncio.run(run())
        finally:
            listener.close()

    @pytest.mark.parametrize(
        "frame_type, payload",
        [(FrameType.RESULT, b"\x00"), (FrameType.SCORE, b"")],
        ids=["malformed-result", "unexpected-type"],
    )
    def test_bad_response_fails_the_request_instead_of_hanging(
        self, frame_type, payload, probe_frames
    ):
        import asyncio

        from repro.serving import AsyncScoringClient

        async def answer(reader, writer):
            # A fake server: every request is answered with the bad frame.
            decoder = protocol.FrameDecoder()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    writer.write(encode_frame(frame_type, frame.request_id, payload))
                    await writer.drain()
            writer.close()

        async def run():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            address = server.sockets[0].getsockname()[:2]
            try:
                async with AsyncScoringClient(address) as client:
                    with pytest.raises(ProtocolError):
                        await asyncio.wait_for(client.score(probe_frames), 10)
                    # The connection survives: the next request is answered.
                    with pytest.raises(ProtocolError):
                        await asyncio.wait_for(client.ping(), 10)
                    assert client._pending == {}
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())
