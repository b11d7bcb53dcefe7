"""Operational resilience: admission control, session resume, graceful drain.

The acceptance scenarios of the resilience layer, all seeded and
deterministic:

* a session interrupted mid-stream by a killed connection resumes via
  its token and yields **byte-identical** frame payloads to an
  uninterrupted run;
* a server at ``max_sessions`` sheds load with ``busy`` and the client
  backs off and eventually completes;
* ``drain()`` completes in-flight sessions within the deadline and
  sheds new work while draining;
* ``health`` probes answer readiness without consuming admission slots;
* the client's circuit breaker fails fast after repeated failures.
"""

import asyncio
import random
import threading
import time

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    CircuitBreaker,
    CircuitOpenError,
    FaultSpec,
    LossyTransport,
    ServeConfig,
    StreamFetchError,
    encode_packet_bytes,
    fetch_status,
)
from repro.net.codec import open_records
from repro.net.messages import decode_control, encode_hello, encode_resume
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.streaming.session import NegotiationError
from repro.telemetry import registry
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05


def _clip(name="resumeclip", frames=24, height=16, width=12, seed=5):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, height, width, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _big_clip(name="bigclip", frames=60, seed=5):
    """A clip too large for loopback socket buffers to swallow whole,
    so the server is provably mid-stream when the relay kills the
    connection."""
    return _clip(name=name, frames=frames, height=96, width=72, seed=seed)


def _huge_clip(name="hugeclip", seed=5):
    """A clip (~8 MB on the wire) that cannot fit in kernel socket
    buffers, so a non-reading holder provably parks the session on
    backpressure for the drain tests."""
    return _clip(name=name, frames=96, height=192, width=144, seed=seed)


def _media_server(*clips):
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=8)
    )
    for clip in clips:
        server.add_clip(clip)
    return server


class _ResumeCountingMedia(MediaServer):
    """A media server over ``clip`` that counts the resumes it serves.

    With ``hold``, each stream sets ``held`` before its first record and
    waits for ``release``, so a test can act while a session is open.
    """

    def __init__(self, clip, hold=False):
        super().__init__(params=FAST_PARAMS,
                         profile_cache=ProfileCache(max_entries=8))
        self.add_clip(clip)
        self.hold = hold
        self.held = threading.Event()
        self.release = threading.Event()
        self.resumes = 0

    def resume_point(self, session, offset, plan=()):
        if offset:
            self.resumes += 1
        return super().resume_point(session, offset, plan)

    def stream_batches(self, session, *args, **kwargs):
        if self.hold:
            self.held.set()
            assert self.release.wait(timeout=30.0)
        yield from super().stream_batches(session, *args, **kwargs)


def _reference(media, clip_name, quality=QUALITY):
    request = SessionRequest(clip_name, quality, ClientCapabilities("ipaq5555"))
    return list(media.stream(media.open_session(request)))


def _client(device, **kwargs):
    kwargs.setdefault("rng", random.Random(0))
    kwargs.setdefault("backoff_base_s", 0.02)
    kwargs.setdefault("backoff_max_s", 0.1)
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


def _counter(name):
    metric = registry().get(name)
    return metric.value if metric is not None else 0


class TestSessionResume:
    def test_killed_connection_resumes_byte_identical(self, device):
        """The tentpole e2e: kill mid-stream, resume via token, compare."""
        clip = _big_clip()
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig()
            ) as server:
                spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
                async with LossyTransport(*server.address, spec) as lossy:
                    client = _client(device, backoff_base_s=0.2, max_retries=4)
                    return await client.fetch(*lossy.address, clip.name, QUALITY)

        fetched = asyncio.run(run())
        assert fetched.attempts == 2
        assert fetched.resumes == 1
        _assert_streams_identical(fetched.packets, reference)
        assert _counter("repro_net_resumed_sessions_total") == 1
        assert _counter("repro_net_client_resumes_total") == 1

    def test_repeated_kills_resume_until_converged(self, device):
        clip = _big_clip(name="bigclip2", seed=9)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig()
            ) as server:
                spec = FaultSpec(kill_after_records=4, max_faults=3, seed=3)
                async with LossyTransport(*server.address, spec) as lossy:
                    client = _client(device, backoff_base_s=0.2, max_retries=8)
                    return await client.fetch(*lossy.address, clip.name, QUALITY)

        fetched = asyncio.run(run())
        assert fetched.attempts == 4
        assert fetched.resumes == 3
        _assert_streams_identical(fetched.packets, reference)

    def test_refused_resume_token_falls_back_to_full_refetch(self, device):
        """A token in the earlier ``p1.<body>.<suffix>`` form is refused
        with ``error``; the client refetches from scratch and the result
        is still byte-identical."""
        clip = _big_clip(name="bigclip3", seed=13)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        class LegacyTokenClient(AsyncMobileClient):
            async def _open_stream(self, host, port, clip_name, quality,
                                   progress, attempt=0):
                opened = await super()._open_stream(
                    host, port, clip_name, quality, progress, attempt=attempt
                )
                if progress.token is not None and progress.token.count(".") == 1:
                    progress.token += ".00c0ffee"
                return opened

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig()
            ) as server:
                spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
                async with LossyTransport(*server.address, spec) as lossy:
                    client = LegacyTokenClient(
                        device, rng=random.Random(0), backoff_base_s=0.2,
                        backoff_max_s=0.1, jitter_s=0.0, max_retries=4,
                    )
                    return await client.fetch(*lossy.address, clip.name, QUALITY)

        fetched = asyncio.run(run())
        assert fetched.attempts == 3  # killed, resume refused, refetched
        assert fetched.resumes == 0
        _assert_streams_identical(fetched.packets, reference)
        assert _counter("repro_net_rejected_sessions_total") == 1
        assert _counter("repro_net_resumed_sessions_total") == 0

    def test_client_resumes_against_a_restarted_server(self, device):
        """The issuing server is replaced mid-fetch by a new one over the
        same catalog: the client's resume succeeds there and the result
        is byte-identical, since tokens carry all state.

        The first server holds its stream until the relay points at the
        second, so the kill that follows sends the resume there; no
        timing decides which server sees it.
        """
        clip = _big_clip(name="bigclip5", seed=19)
        first_media = _ResumeCountingMedia(clip, hold=True)
        second_media = _ResumeCountingMedia(clip)
        reference = _reference(second_media, clip.name)

        async def run():
            first = AnnotationStreamServer(first_media, config=ServeConfig())
            await first.start()
            try:
                async with AnnotationStreamServer(second_media) as second:
                    spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
                    async with LossyTransport(*first.address, spec) as lossy:
                        client = _client(device, backoff_base_s=0.5,
                                         max_retries=4)
                        fetch = asyncio.ensure_future(
                            client.fetch(*lossy.address, clip.name, QUALITY)
                        )
                        while not first_media.held.is_set():
                            await asyncio.sleep(0.005)
                        lossy.upstream_port = second.port
                        first_media.release.set()
                        while not lossy.faults_injected:
                            await asyncio.sleep(0.005)
                        await first.close()
                        return await asyncio.wait_for(fetch, timeout=20.0)
            finally:
                first_media.release.set()
                await first.close()

        fetched = asyncio.run(run())
        assert fetched.attempts == 2
        assert fetched.resumes == 1
        _assert_streams_identical(fetched.packets, reference)
        assert first_media.resumes == 0
        assert second_media.resumes == 1
        assert _counter("repro_net_resumed_sessions_total") == 1

    def test_client_resume_opt_out(self, device):
        """resume=False ignores server tokens and refetches from scratch."""
        clip = _big_clip(name="bigclip4", seed=17)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig()
            ) as server:
                spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
                async with LossyTransport(*server.address, spec) as lossy:
                    client = _client(
                        device, backoff_base_s=0.2, max_retries=4, resume=False
                    )
                    return await client.fetch(*lossy.address, clip.name, QUALITY)

        fetched = asyncio.run(run())
        assert fetched.resumes == 0
        _assert_streams_identical(fetched.packets, reference)

    def test_unknown_resume_token_answered_with_error(self, device):
        media = _media_server(_clip())

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(encode_packet_bytes(encode_resume("feedface", 0)))
                await conn.drain()
                packet = await conn.read_packet(5.0)
                await conn.close()
                return packet

        message = decode_control(asyncio.run(run()))
        assert message.kind == "error"
        assert "resume token" in message.error

    def test_stall_fault_recovers_through_read_timeout(self, device):
        """A stalled relay trips the client's read timeout; the retry
        (resume or refetch) still converges byte-identically."""
        clip = _clip(name="stallclip", frames=30, seed=21)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(media) as server:
                spec = FaultSpec(stall_rate=1.0, stall_s=1.0, max_faults=1, seed=3)
                async with LossyTransport(*server.address, spec) as lossy:
                    client = _client(
                        device, read_timeout_s=0.2, backoff_base_s=0.2,
                        max_retries=4,
                    )
                    return await client.fetch(*lossy.address, clip.name, QUALITY)

        fetched = asyncio.run(run())
        assert fetched.attempts == 2
        _assert_streams_identical(fetched.packets, reference)


class TestAdmissionControl:
    def test_load_shed_clients_back_off_and_complete(self, device):
        """At max_sessions with no accept queue, overflow connections get
        busy; retrying clients all eventually complete."""
        clip = _clip(name="shedclip", seed=29)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(
                    max_sessions=1, accept_queue=0, busy_retry_after_s=0.05,
                ),
            ) as server:
                clients = [
                    _client(device, rng=random.Random(i), max_retries=10,
                            jitter_s=0.02)
                    for i in range(4)
                ]
                return await asyncio.gather(*[
                    c.fetch(*server.address, clip.name, QUALITY)
                    for c in clients
                ])

        results = asyncio.run(run())
        assert len(results) == 4
        for fetched in results:
            _assert_streams_identical(fetched.packets, reference)
        assert _counter("repro_net_shed_sessions_total") >= 1
        assert _counter("repro_net_client_busy_total") >= 1
        # At least one client had to retry after a shed.
        assert any(r.attempts > 1 for r in results)

    def test_accept_queue_parks_overflow_without_shedding(self, device):
        """With an accept queue, over-cap connections wait for a slot and
        complete on their first attempt."""
        clip = _clip(name="queueclip", seed=31)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=1, accept_queue=4)
            ) as server:
                clients = [
                    _client(device, rng=random.Random(i), max_retries=0)
                    for i in range(3)
                ]
                return await asyncio.gather(*[
                    c.fetch(*server.address, clip.name, QUALITY)
                    for c in clients
                ])

        results = asyncio.run(run())
        assert all(r.attempts == 1 for r in results)
        for fetched in results:
            _assert_streams_identical(fetched.packets, reference)
        assert _counter("repro_net_shed_sessions_total") == 0

    def test_single_shot_client_sees_busy_when_slot_held(self, device):
        """Deterministic shed: a raw connection holds the only slot; a
        no-retry fetch is shed with busy."""
        clip = _big_clip(name="holdclip", seed=37)
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=1, accept_queue=0)
            ) as server:
                holder = _client(device)
                request = holder._player.request(clip.name, QUALITY)
                conn = await open_records(*server.address)
                conn.write(encode_packet_bytes(encode_hello(request)))
                await conn.drain()
                await conn.read_packet(5.0)  # the session record: the slot is held
                try:
                    with pytest.raises(StreamFetchError):
                        await _client(device, max_retries=0).fetch(
                            *server.address, clip.name, QUALITY
                        )
                finally:
                    conn.abort()

        asyncio.run(run())
        assert _counter("repro_net_shed_sessions_total") == 1
        assert _counter("repro_net_client_busy_total") == 1

    def test_negotiation_rejection_still_authoritative_under_cap(self, device):
        media = _media_server(_clip(name="okclip"))

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=2)
            ) as server:
                await _client(device).fetch(*server.address, "nosuch", QUALITY)

        with pytest.raises(NegotiationError):
            asyncio.run(run())


class TestGracefulDrain:
    def test_drain_completes_in_flight_sessions(self, device):
        """drain() lets a running fetch finish and reports completion."""
        clip = _clip(name="drainclip", frames=36, seed=41)
        media = _media_server(clip)
        reference = _reference(media, clip.name)

        async def run():
            server = AnnotationStreamServer(media)
            await server.start()
            fetch = asyncio.create_task(
                _client(device).fetch(*server.address, clip.name, QUALITY)
            )
            await asyncio.sleep(0.05)  # let the session start
            completed = await server.drain(timeout_s=10.0)
            fetched = await fetch
            return completed, fetched, server.state

        completed, fetched, state = asyncio.run(run())
        assert completed is True
        assert state == "stopped"
        _assert_streams_identical(fetched.packets, reference)

    def test_drain_sheds_new_sessions_and_answers_health(self, device):
        """While draining: new hellos get busy, health probes still answer."""
        clip = _huge_clip(name="drainbig", seed=43)
        media = _media_server(clip)

        async def run():
            server = AnnotationStreamServer(
                media, config=ServeConfig(drain_timeout_s=10.0)
            )
            await server.start()
            address = server.address
            # Hold a session open: read the session record, then stop
            # draining the socket so the session blocks on backpressure.
            holder = _client(device)
            request = holder._player.request(clip.name, QUALITY)
            conn = await open_records(*address)
            conn.write(encode_packet_bytes(encode_hello(request)))
            await conn.drain()
            await conn.read_packet(5.0)
            drain_task = asyncio.create_task(server.drain())
            for _ in range(100):
                if server.state == "draining":
                    break
                await asyncio.sleep(0.01)
            status = await fetch_status(*address)
            with pytest.raises(StreamFetchError):
                await _client(device, max_retries=0).fetch(
                    *address, clip.name, QUALITY
                )
            conn.abort()  # release the held session
            completed = await drain_task
            return status, completed, server.state

        status, completed, state = asyncio.run(run())
        assert status.state == "draining"
        assert status.accepting is False
        assert completed is True
        assert state == "stopped"
        assert _counter("repro_net_client_busy_total") == 1

    def test_drain_deadline_cancels_stragglers(self, device):
        clip = _huge_clip(name="straggler", seed=47)
        media = _media_server(clip)

        async def run():
            server = AnnotationStreamServer(media, config=ServeConfig())
            await server.start()
            holder = _client(device)
            request = holder._player.request(clip.name, QUALITY)
            conn = await open_records(*server.address)
            conn.write(encode_packet_bytes(encode_hello(request)))
            await conn.drain()
            await conn.read_packet(5.0)  # session held open, never read again
            start = time.monotonic()
            completed = await server.drain(timeout_s=0.3)
            elapsed = time.monotonic() - start
            await conn.close()
            return completed, elapsed, server.state

        completed, elapsed, state = asyncio.run(run())
        assert completed is False
        assert elapsed < 5.0
        assert state == "stopped"
        gauge = registry().get("repro_net_active_sessions")
        assert gauge is not None and gauge.value == 0

    def test_drain_idle_server_is_immediate(self, device):
        media = _media_server(_clip(name="idleclip"))

        async def run():
            server = AnnotationStreamServer(media)
            await server.start()
            return await server.drain(timeout_s=1.0)

        assert asyncio.run(run()) is True


class TestHealthProbe:
    def test_status_reflects_ready_server(self, device):
        media = _media_server(_clip(name="healthclip"))

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=3)
            ) as server:
                return await fetch_status(*server.address)

        status = asyncio.run(run())
        assert status.state == "ready"
        assert status.accepting is True
        assert status.active_sessions == 0
        assert status.max_sessions == 3
        assert _counter("repro_net_health_probes_total") == 1

    def test_healthz_snapshot_in_process(self, device):
        media = _media_server(_clip(name="healthzclip"))

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=2)
            ) as server:
                return server.healthz()

        health = asyncio.run(run())
        assert health["state"] == "ready"
        assert health["accepting"] is True
        assert health["max_sessions"] == 2
        assert "resumable_sessions" not in health

    def test_api_facade_status(self, device):
        from repro.api import StreamingService, server_status

        service = StreamingService(params=FAST_PARAMS)
        service.add_clip(_clip(name="facadeclip"))

        async def run():
            async with service.serve(config=ServeConfig(max_sessions=5)) as srv:
                return await server_status(*srv.address)

        status = asyncio.run(run())
        assert status.accepting is True
        assert status.max_sessions == 5


class TestCircuitBreaker:
    def test_trips_after_threshold_and_resets(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after_s=10.0, clock=lambda: clock[0]
        )
        breaker.before_attempt()  # closed: no raise
        breaker.record_failure()
        breaker.before_attempt()  # one failure: still closed
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        clock[0] = 10.1  # cooldown elapsed: half-open trial allowed
        breaker.before_attempt()
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert breaker.is_open
        clock[0] = 5.1
        breaker.before_attempt()  # trial
        breaker.record_failure()  # trial failed: open again
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=-1.0)

    def test_client_fails_fast_once_open(self, device):
        """Against a dead port, the breaker aborts the retry loop and the
        next fetch fails immediately without touching the network."""
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=60.0)

        async def run():
            # Bind-then-close guarantees a dead port.
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            client = _client(device, max_retries=6, circuit_breaker=breaker)
            with pytest.raises(CircuitOpenError):
                await client.fetch("127.0.0.1", port, "resumeclip", QUALITY)
            with pytest.raises(CircuitOpenError):
                await client.fetch("127.0.0.1", port, "resumeclip", QUALITY)

        asyncio.run(run())
        assert breaker.is_open
        assert _counter("repro_net_client_circuit_open_total") == 2


class TestServerParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_rate": 1.5},
            {"stall_rate": -0.1},
            {"stall_s": -1.0},
            {"kill_after_records": -1},
        ],
    )
    def test_invalid_fault_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)
