"""AnnotationStreamServer + AsyncMobileClient over real sockets.

Everything runs against ``127.0.0.1`` with OS-assigned ports inside
``asyncio.run`` (no event-loop plugin needed).  The central claim: a
stream fetched over TCP is bit-identical to the same session served
in-process by :meth:`MediaServer.stream`.
"""

import asyncio
import logging
import random
import socket
import struct

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    ServeConfig,
    StreamFetchError,
    encode_packet_bytes,
)
from repro.net.codec import (
    MAX_OPENING_RECORD_BYTES,
    WIRE_HEADER_BYTES,
    decode_packet,
    open_records,
)
from repro.net.messages import (
    decode_control,
    encode_end,
    encode_hello,
    encode_requality,
)
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.streaming.server import WIRE_CHUNK_FRAMES
from repro.streaming.session import NegotiationError
from repro.telemetry import registry
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05


def _clip(name="wireclip", frames=24, height=16, width=12, seed=0):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, height, width, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _media_server(*clips):
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=8)
    )
    for clip in clips:
        server.add_clip(clip)
    return server


def _reference_packets(media, clip_name, quality=QUALITY):
    request = SessionRequest(clip_name, quality, ClientCapabilities("ipaq5555"))
    return list(media.stream(media.open_session(request)))


def _client(device, **kwargs):
    kwargs.setdefault("rng", random.Random(0))
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_max_s", 0.05)
    kwargs.setdefault("jitter_s", 0.0)
    return AsyncMobileClient(device, **kwargs)


def _assert_streams_identical(fetched, reference):
    assert len(fetched) == len(reference)
    for got, ref in zip(fetched, reference):
        assert got.ptype is ref.ptype
        assert got.seq == ref.seq
        if ref.ptype is PacketType.ANNOTATION:
            assert got.payload == ref.payload
        elif ref.ptype is PacketType.FRAME:
            assert got.frame_index == ref.frame_index
            assert got.wire_bytes == ref.wire_bytes
            assert np.array_equal(got.frame.pixels, ref.frame.pixels)


class TestFetch:
    def test_wire_stream_bit_identical_to_in_process(self, device):
        media = _media_server(_clip())
        reference = _reference_packets(media, "wireclip")

        async def run():
            async with AnnotationStreamServer(media) as server:
                return await _client(device).fetch(
                    *server.address, "wireclip", QUALITY
                )

        fetched = asyncio.run(run())
        assert fetched.attempts == 1
        _assert_streams_identical(fetched.packets, reference)
        assert fetched.frame_count == sum(
            1 for p in reference if p.ptype is PacketType.FRAME
        )

    def test_session_description_travels_intact(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                return await _client(device).fetch(
                    *server.address, "wireclip", QUALITY
                )

        session = asyncio.run(run()).session
        assert session.clip_name == "wireclip"
        assert session.quality == pytest.approx(QUALITY)
        assert session.device_name == "ipaq5555"
        assert session.frame_count == 24
        assert session.fps == pytest.approx(24.0)

    def test_fetched_stream_plays_like_local_stream(self, device):
        media = _media_server(_clip(frames=30))
        reference = _reference_packets(media, "wireclip")

        async def run():
            async with AnnotationStreamServer(media) as server:
                client = _client(device)
                fetched = await client.fetch(*server.address, "wireclip", QUALITY)
                return client, fetched

        client, fetched = asyncio.run(run())
        from repro.streaming.client import MobileClient

        request = SessionRequest("wireclip", QUALITY, ClientCapabilities("ipaq5555"))
        local = MobileClient(device).play_stream(
            media.open_session(request), reference
        )
        wire = client.play(fetched)
        assert wire.total_savings == pytest.approx(local.total_savings)

    def test_concurrent_sessions_all_bit_identical(self, device):
        clips = [_clip(name=f"clip{i}", seed=i) for i in range(4)]
        media = _media_server(*clips)
        references = {c.name: _reference_packets(media, c.name) for c in clips}

        async def run():
            async with AnnotationStreamServer(media) as server:
                fetches = [
                    _client(device).fetch(*server.address, c.name, QUALITY)
                    for c in clips for _ in range(2)  # 8 concurrent sessions
                ]
                return await asyncio.gather(*fetches)

        results = asyncio.run(run())
        assert len(results) == 8
        for result in results:
            _assert_streams_identical(
                result.packets, references[result.session.clip_name]
            )
        gauge = registry().get("repro_net_active_sessions")
        assert gauge is not None and gauge.value == 0

    def test_tiny_send_queue_still_bit_identical(self, device):
        """One record per batch: a step's send queue holds one batch per
        record, every record is its own write, and the stream is still
        bit-identical."""
        media = _media_server(_clip())
        reference = _reference_packets(media, "wireclip")

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(batch_records=1, batch_bytes=1)
            ) as server:
                return await _client(device).fetch(
                    *server.address, "wireclip", QUALITY
                )

        _assert_streams_identical(asyncio.run(run()).packets, reference)
        hist = registry().get("repro_net_send_queue_depth")
        # One sample per batch written; a step's queue is at most its
        # head records plus one wire chunk.
        assert hist is not None and hist.count == len(reference)
        assert hist.max <= 1 + WIRE_CHUNK_FRAMES


class TestNegotiation:
    def test_unknown_clip_rejected_without_retry(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                await _client(device).fetch(*server.address, "nosuch", QUALITY)

        with pytest.raises(NegotiationError):
            asyncio.run(run())
        retries = registry().get("repro_net_client_retries_total")
        assert retries is None or retries.value == 0
        rejects = registry().get("repro_net_rejected_sessions_total")
        assert rejects is not None and rejects.value == 1

    def test_garbage_hello_answered_with_error_record(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(b"\x00" * 64)  # not a wire record
                await conn.drain()
                packet = await conn.read_packet(5.0)
                await conn.close()
                return packet

        packet = asyncio.run(run())
        message = decode_control(packet)
        assert message.kind == "error"

    def test_rejected_opening_record_closes_with_eof_not_reset(self, device):
        """After answering a bad opening record, the server shuts down
        its write side and discards the rest of what the client sent,
        so the client reads the error and then a clean EOF."""
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(b"\x00" * (256 * 1024))  # bad header, long tail
                await conn.drain()
                packet = await conn.read_packet(5.0)
                after = await conn.read_packet(5.0)
                await conn.close()
                return packet, after

        packet, after = asyncio.run(run())
        assert decode_control(packet).kind == "error"
        assert after is None

    def test_wrong_first_message_kind_rejected(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                # A structurally valid record, but not a hello.
                conn.write(encode_packet_bytes(encode_end(1, 1, seq=0)))
                await conn.drain()
                packet = await conn.read_packet(5.0)
                await conn.close()
                return packet

        message = decode_control(asyncio.run(run()))
        assert message.kind == "error"
        assert "hello" in message.error

    def test_wrong_first_kind_is_half_closed_like_any_rejection(self, device):
        """What a client sends after an opening of the wrong kind is read
        and dropped until its EOF, as after any rejection: its sends
        never meet a reset, which could destroy the answer in flight."""
        media = _media_server(_clip())

        async def run():
            loop = asyncio.get_running_loop()
            async with AnnotationStreamServer(media) as server:
                with socket.socket() as sock:
                    sock.setblocking(False)
                    await loop.sock_connect(sock, server.address)
                    await loop.sock_sendall(sock, encode_packet_bytes(
                        encode_end(1, 1, seq=0)
                    ))
                    received = await _recv_to_eof(sock)
                    for _ in range(3):  # a reset would fail the second
                        await loop.sock_sendall(sock, encode_packet_bytes(
                            encode_requality(quality=0.2)
                        ))
                        await asyncio.sleep(0.05)
                    sock.shutdown(socket.SHUT_WR)
                    await _wait_until(lambda: not server._tasks)
                return _records_of(received)

        records = asyncio.run(run())
        assert len(records) == 1
        assert decode_control(records[0]).kind == "error"

    def test_oversized_opening_header_answered_before_its_body(self, device):
        """A header announcing a body over the server's cap is answered
        ``error`` as soon as it arrives: no body is awaited or buffered."""
        media = _media_server(_clip())
        header = bytearray(_hello_bytes("wireclip")[:WIRE_HEADER_BYTES])
        struct.pack_into("<I", header, 12,
                         MAX_OPENING_RECORD_BYTES - WIRE_HEADER_BYTES + 1)

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(bytes(header))  # the body never follows
                await conn.drain()
                packet = await conn.read_packet(2.0)
                after = await conn.read_packet(5.0)
                await conn.close()
                return packet, after

        packet, after = asyncio.run(run())
        message = decode_control(packet)
        assert message.kind == "error"
        assert str(MAX_OPENING_RECORD_BYTES - WIRE_HEADER_BYTES) in message.error
        assert after is None

    def test_oversized_requality_header_mid_stream_leaves_the_stream(self, device):
        """An oversized ``requality`` header ends the server's reading of
        the client, not the session: the stream still ends with ``end``."""
        media = _media_server(_clip(frames=24, height=36, width=48))
        reference = _reference_packets(media, "wireclip")
        header = bytearray(encode_packet_bytes(encode_requality(quality=0.2))
                           [:WIRE_HEADER_BYTES])
        struct.pack_into("<I", header, 12, MAX_OPENING_RECORD_BYTES)

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(_hello_bytes("wireclip") + bytes(header))
                await conn.drain()
                records = []
                while (packet := await conn.read_packet(10.0)) is not None:
                    records.append(packet)
                await conn.close()
                return records

        records = asyncio.run(run())
        assert decode_control(records[0]).kind == "session"
        assert decode_control(records[-1]).kind == "end"
        _assert_streams_identical(records[1:-1], reference)

    def test_idle_connection_reaped_by_hello_timeout(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(hello_timeout_s=0.2)
            ) as server:
                conn = await open_records(*server.address)
                packet = await conn.read_packet(5.0)
                await conn.close()
                return packet

        assert asyncio.run(run()) is None  # server hung up, sent nothing
        rejects = registry().get("repro_net_rejected_sessions_total")
        assert rejects is not None and rejects.value == 1


class TestRobustness:
    def test_connection_refused_exhausts_retries(self, device):
        async def run():
            # Bind-then-close guarantees a dead port.
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            client = _client(device, max_retries=2)
            await client.fetch("127.0.0.1", port, "wireclip", QUALITY)

        with pytest.raises(StreamFetchError):
            asyncio.run(run())
        retries = registry().get("repro_net_client_retries_total")
        assert retries is not None and retries.value == 2

    def test_abrupt_client_disconnect_cleans_up_server(self, device):
        media = _media_server(_clip(frames=90, height=48, width=36))

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig()
            ) as server:
                client = _client(device)
                request = client._player.request("wireclip", QUALITY)
                from repro.net.messages import encode_hello

                conn = await open_records(*server.address)
                conn.write(encode_packet_bytes(encode_hello(request)))
                await conn.drain()
                await conn.read_packet(5.0)  # the session record arrives...
                conn.abort()  # ...then the client vanishes
                # The session task must notice and tear down: gauge back
                # to zero within a bounded wait.
                gauge = registry().get("repro_net_active_sessions")
                for _ in range(200):
                    if gauge.value == 0:
                        return True
                    await asyncio.sleep(0.05)
                return False

        assert asyncio.run(run()), "session did not clean up after abort"
        disconnects = registry().get("repro_net_disconnects_total")
        assert disconnects is not None and disconnects.value >= 1

    def test_server_survives_disconnect_and_serves_next_client(self, device):
        media = _media_server(_clip())
        reference = _reference_packets(media, "wireclip")

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.abort()
                return await _client(device).fetch(
                    *server.address, "wireclip", QUALITY
                )

        _assert_streams_identical(asyncio.run(run()).packets, reference)


class _HalfFrameThenStall:
    """A relay whose first connection forwards the server's records up to
    half of the first frame, then stalls; later connections pass
    everything through."""

    def __init__(self, upstream):
        self.upstream = upstream
        self.connections = 0
        self._release = asyncio.Event()
        self._tasks = set()

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def __aexit__(self, *exc):
        self._release.set()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self._tasks.add(asyncio.current_task())
        self.connections += 1
        stall = self.connections == 1
        up_reader, up_writer = await asyncio.open_connection(*self.upstream)

        async def uplink():
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                up_writer.write(data)

        forward = asyncio.ensure_future(uplink())
        try:
            while True:
                header = await up_reader.read(WIRE_HEADER_BYTES)
                if not header:
                    break
                header += await up_reader.readexactly(
                    WIRE_HEADER_BYTES - len(header))
                body = await up_reader.readexactly(
                    struct.unpack_from("<I", header, 12)[0])
                if stall and header[5] == 3:  # a frame record
                    writer.write(header + body[:len(body) // 2])
                    await writer.drain()
                    await self._release.wait()
                    break
                writer.write(header + body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            forward.cancel()
            await asyncio.gather(forward, return_exceptions=True)
            for w in (writer, up_writer):
                w.close()
                await asyncio.gather(w.wait_closed(), return_exceptions=True)


class TestReadDeadline:
    def test_half_frame_then_stall_times_out_and_retries(self, device):
        """A connection that stalls mid-frame fails its attempt with
        ``TimeoutError`` after ``read_timeout_s``; the retry resumes and
        the stream is byte-identical."""
        media = _media_server(_clip(frames=30, height=48, width=36))
        reference = _reference_packets(media, "wireclip")
        failures = []

        class Client(AsyncMobileClient):
            async def _fetch_once(self, *args, **kwargs):
                started = asyncio.get_running_loop().time()
                try:
                    return await super()._fetch_once(*args, **kwargs)
                except Exception as exc:
                    failures.append(
                        (type(exc), asyncio.get_running_loop().time() - started))
                    raise

        async def run():
            async with AnnotationStreamServer(media) as server:
                relay = _HalfFrameThenStall(server.address)
                async with relay as address:
                    client = Client(device, read_timeout_s=0.3,
                                    backoff_base_s=0.01, jitter_s=0.0,
                                    rng=random.Random(0))
                    fetched = await asyncio.wait_for(
                        client.fetch(*address, "wireclip", QUALITY), 30.0)
                return fetched, relay.connections

        fetched, connections = asyncio.run(run())
        assert [kind for kind, _ in failures] == [asyncio.TimeoutError]
        assert failures[0][1] >= 0.3
        assert connections == fetched.attempts == 2
        assert fetched.resumes == 1
        _assert_streams_identical(fetched.packets, reference)

    def test_fetch_creates_no_task_per_record(self, device):
        media = _media_server(_clip(frames=120))
        created = []

        def factory(loop, coro, **kwargs):
            created.append(getattr(coro, "__qualname__", repr(coro)))
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def run():
            async with AnnotationStreamServer(media) as server:
                client = _client(device)
                await client.fetch(*server.address, "wireclip", QUALITY)
                asyncio.get_running_loop().set_task_factory(factory)
                return await client.fetch(*server.address, "wireclip", QUALITY)

        fetched = asyncio.run(run())
        assert len(fetched.packets) > 120
        # The server's per-session tasks and the client's connect: a
        # handful, where a task per record would be over 120.
        assert len(created) <= 10, created


class TestClientParameters:
    def test_backoff_grows_and_caps(self, device):
        client = AsyncMobileClient(
            device, backoff_base_s=0.1, backoff_max_s=0.5, jitter_s=0.0
        )
        delays = [client.backoff_s(k) for k in range(6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(0.5)

    def test_jitter_is_seedable(self, device):
        a = AsyncMobileClient(device, rng=random.Random(7))
        b = AsyncMobileClient(device, rng=random.Random(7))
        assert [a.backoff_s(k) for k in range(4)] == [
            b.backoff_s(k) for k in range(4)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"connect_timeout_s": 0},
            {"read_timeout_s": -1},
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"jitter_s": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, device, kwargs):
        with pytest.raises(ValueError):
            AsyncMobileClient(device, **kwargs)


class TestServerParameters:
    def test_port_requires_started_server(self):
        server = AnnotationStreamServer(_media_server(_clip()))
        with pytest.raises(RuntimeError):
            server.port

    def test_restart_after_close_serves_again(self, device):
        media = _media_server(_clip())
        reference = _reference_packets(media, "wireclip")

        async def run():
            server = AnnotationStreamServer(media)
            results = []
            for _ in range(2):
                await server.start()
                try:
                    results.append(await _client(device).fetch(
                        *server.address, "wireclip", QUALITY
                    ))
                finally:
                    await server.close()
            return results

        for result in asyncio.run(run()):
            _assert_streams_identical(result.packets, reference)

    def test_double_start_rejected(self):
        async def run():
            async with AnnotationStreamServer(_media_server(_clip())) as server:
                with pytest.raises(RuntimeError):
                    await server.start()

        asyncio.run(run())


async def _wait_until(predicate, timeout_s=20.0):
    """Await ``predicate()`` turning true; fail after ``timeout_s``."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _hello_bytes(clip_name):
    request = SessionRequest(clip_name, QUALITY, ClientCapabilities("ipaq5555"))
    return encode_packet_bytes(encode_hello(request))


async def _recv_to_eof(sock) -> bytes:
    """Everything ``sock`` receives up to the peer's EOF."""
    loop = asyncio.get_running_loop()
    received = bytearray()
    while chunk := await asyncio.wait_for(loop.sock_recv(sock, 65536), 10.0):
        received += chunk
    return bytes(received)


def _records_of(data: bytes):
    """Every record in ``data``, decoded."""
    records = []
    pos = 0
    while pos < len(data):
        end = pos + WIRE_HEADER_BYTES + struct.unpack_from("<I", data, pos + 12)[0]
        records.append(decode_packet(data[pos:end]))
        pos = end
    return records


class TestSessionTeardown:
    def test_late_requality_after_end_does_not_reset_the_tail(self, device):
        """After ``end`` the server half-closes and discards what the
        client still sends.  A client with a tiny receive buffer has
        read nothing when the whole stream (and ``end``) is written; its
        ``requality`` then lands in the server's receive buffer.  Closing
        over that unread input would send a reset that throws away the
        stream's unsent tail; the client must instead read every record
        and a clean EOF.  The request is sent once the server has
        written ``end`` and let the session go, so a server that closed
        right there would close over it."""
        media = _media_server(_clip(frames=24, height=36, width=48))
        reference = _reference_packets(media, "wireclip")

        async def run():
            loop = asyncio.get_running_loop()
            async with AnnotationStreamServer(media) as server:
                sent = registry().get("repro_net_records_sent_total")
                active = registry().get("repro_net_active_sessions")
                base = sent.value
                with socket.socket() as sock:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    sock.setblocking(False)
                    await loop.sock_connect(sock, server.address)
                    await loop.sock_sendall(sock, _hello_bytes("wireclip"))
                    # session + data records + end, all written, and
                    # the session over on the server's side
                    await _wait_until(
                        lambda: sent.value - base >= len(reference) + 2
                        and active.value == 0
                    )
                    await loop.sock_sendall(sock, encode_packet_bytes(
                        encode_requality(quality=0.2)
                    ))
                    received = await _recv_to_eof(sock)
                return _records_of(received)

        records = asyncio.run(run())
        assert decode_control(records[0]).kind == "session"
        assert decode_control(records[-1]).kind == "end"
        _assert_streams_identical(records[1:-1], reference)

    def test_client_half_close_after_hello_still_gets_the_whole_stream(
        self, device
    ):
        """A client that shuts down its write side right after ``hello``
        still reads the whole stream, ``end`` and a clean EOF: the
        client's EOF ends only the server's reading."""
        media = _media_server(_clip(frames=24, height=36, width=48))
        reference = _reference_packets(media, "wireclip")

        async def run():
            loop = asyncio.get_running_loop()
            async with AnnotationStreamServer(media) as server:
                with socket.socket() as sock:
                    sock.setblocking(False)
                    await loop.sock_connect(sock, server.address)
                    await loop.sock_sendall(sock, _hello_bytes("wireclip"))
                    sock.shutdown(socket.SHUT_WR)
                    received = await _recv_to_eof(sock)
                return _records_of(received)

        records = asyncio.run(run())
        assert decode_control(records[0]).kind == "session"
        assert decode_control(records[-1]).kind == "end"
        _assert_streams_identical(records[1:-1], reference)

    def test_close_with_a_connection_mid_header_logs_no_error(self, device):
        """``close()`` cancels a connection still waiting for its opening
        header; the cancelled task is not reported as an asyncio error.
        (A handler of its own, not ``caplog``: the check also runs with
        pytest's logging plugin off.)"""
        media = _media_server(_clip())
        errors = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = lambda record: errors.append(record.getMessage())

        async def run():
            server = AnnotationStreamServer(media)
            await server.start()
            conn = await open_records(*server.address)
            conn.write(_hello_bytes("wireclip")[:WIRE_HEADER_BYTES // 2])
            await conn.drain()
            await _wait_until(lambda: server._tasks)
            await server.close()
            await conn.close()

        logger = logging.getLogger("asyncio")
        logger.addHandler(handler)
        try:
            asyncio.run(run())
        finally:
            logger.removeHandler(handler)
        assert errors == []

    def test_gone_client_costs_at_most_one_step(self, device):
        """A client that reads a few frames and aborts costs the server
        at most the step in flight: every frame compensated beyond what
        was written belongs to the batch being written or the one step
        computed ahead of it."""
        media = _media_server(_clip(frames=120, height=240, width=320))
        streamed = registry().counter("repro_server_frames_streamed_total")

        async def run():
            async with AnnotationStreamServer(media, config=ServeConfig()) as server:
                sent = registry().get("repro_net_records_sent_total")
                active = registry().get("repro_net_active_sessions")
                conn = await open_records(*server.address)
                conn.write(_hello_bytes("wireclip"))
                await conn.drain()
                for _ in range(4):  # session, annotation, two frames
                    assert await conn.read_packet() is not None
                # Stop reading for a while: whatever the server computes
                # now has nowhere to go but its own buffers.
                await asyncio.sleep(0.3)
                conn.abort()
                await _wait_until(lambda: active.value == 0)
            # close() has waited for the step in flight.
            return sent.value

        records_sent = asyncio.run(run())
        assert streamed.value <= records_sent + 2 * WIRE_CHUNK_FRAMES
        assert streamed.value < 120
