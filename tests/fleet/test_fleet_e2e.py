"""End-to-end fleet tests: real worker processes behind the router.

Each test spawns a small :class:`~repro.fleet.FleetCoordinator` (two
shard processes over the same deterministic catalog) and talks to it
through the router's single address, exactly as a client would.  Covers
the acceptance path of the fleet tentpole:

* streams served through the router are byte-identical to streaming the
  catalog directly;
* ``port=0`` shards report their actually-bound ports through both the
  coordinator and the router's fleet snapshot;
* killing a shard mid-stream re-routes the portable resume token to the
  replica, which replays the remainder byte-identically;
* with no routable shard the router answers ``busy`` (retriable), never
  a fabricated authoritative error;
* the router hands each routed socket to its shard and keeps nothing:
  sessions outlive the router, bytes pipelined behind the opening
  record reach the shard, and an opening record too large to hand off,
  or a resume token no shard could decode, is answered ``error`` by the
  router itself, followed by a clean EOF.
"""

import asyncio

import numpy as np
import pytest

from repro.api import fetch_stream, server_stats
from repro.core import ProfileCache, SchemeParameters
from repro.fleet import FleetCoordinator
from repro.fleet.router import MAX_OPENING_RECORD_BYTES
from repro.net import (
    AnnotationStreamServer,
    FetchOptions,
    decode_portable_token,
    encode_packet_bytes,
    encode_portable_token,
)
from repro.net.codec import open_records
from repro.net.messages import (
    decode_control,
    encode_hello,
    encode_requality,
    encode_resume,
)
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.telemetry import flight_events, registry
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05
DEVICE = "ipaq5555"
CLIPS = (("alpha", 1), ("bravo", 2), ("charlie", 3))


def _fleet_catalog():
    """Picklable catalog factory shared by every worker process.

    Must be a module-level function: the coordinator ships it to each
    shard inside a :class:`~repro.fleet.WorkerSpec`, and byte-identical
    failover relies on every call producing the same catalog.
    """
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=8)
    )
    for name, seed in CLIPS:
        pixels = np.random.default_rng(seed).integers(
            0, 256, size=(36, 24, 18, 3), dtype=np.uint8
        )
        server.add_clip(ArrayClip(pixels, fps=24.0, name=name))
    return server


#: A stream far larger than every socket buffer between shard and
#: client (~14 MB), so it cannot already sit in them when the router
#: goes away.  Its cold profiling pass (~0.2 s) also keeps the first
#: frame chunk well behind a requality pipelined with the hello, so the
#: request lands at the first boundary on every server.
BIG_CLIP = ("delta", 60, (240, 320))


def _big_catalog():
    """Picklable catalog factory serving :data:`BIG_CLIP` only."""
    server = MediaServer(params=FAST_PARAMS)
    name, frames, (height, width) = BIG_CLIP
    pixels = np.random.default_rng(4).integers(
        0, 256, size=(frames, height, width, 3), dtype=np.uint8
    )
    server.add_clip(ArrayClip(pixels, fps=24.0, name=name))
    return server


def _reference(clip_name, catalog=_fleet_catalog):
    media = catalog()
    request = SessionRequest(clip_name, QUALITY, ClientCapabilities(DEVICE))
    return list(media.stream(media.open_session(request)))


def _assert_streams_identical(packets, reference):
    assert len(packets) == len(reference)
    for mine, ref in zip(packets, reference):
        assert mine.ptype is ref.ptype
        assert mine.seq == ref.seq
        if ref.ptype is PacketType.ANNOTATION:
            assert mine.payload == ref.payload
        elif ref.ptype is PacketType.FRAME:
            assert np.array_equal(mine.frame.pixels, ref.frame.pixels)


def _counter(name):
    metric = registry().get(name)
    return 0 if metric is None else metric.value


def _routed_total():
    return sum(m.value for m in registry().metrics()
               if m.name == "repro_fleet_routed_sessions_total")


def _options():
    return FetchOptions(backoff_base_s=0.01, backoff_max_s=0.2, jitter_s=0.0)


async def _drain_stream(conn, controls=None):
    """Read media packets until the server's ``end`` control packet.

    Other in-stream control messages are appended to ``controls`` when
    it is given.
    """
    packets = []
    while True:
        packet = await conn.read_packet(15.0)
        if packet is None:
            break
        if packet.ptype is PacketType.CONTROL:
            message = decode_control(packet)
            if message.kind == "end":
                break
            if controls is not None:
                controls.append(message)
            continue
        packets.append(packet)
    return packets


async def _open(host, port, *messages):
    """Connect and send ``messages`` in one write (pipelined)."""
    conn = await open_records(host, port)
    conn.write(b"".join(encode_packet_bytes(m) for m in messages))
    await conn.drain()
    return conn


async def _read_control(conn):
    packet = await conn.read_packet(15.0)
    assert packet is not None, "connection closed before a control answer"
    return decode_control(packet)


async def _hangup(conn):
    await conn.close()


def test_fleet_streams_byte_identical_to_direct():
    """Every clip fetched through the router matches a direct stream."""

    async def run():
        results = {}
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            host, port = fleet.address
            for name, _ in CLIPS:
                result = await fetch_stream(host, port, name, QUALITY,
                                            DEVICE, options=_options())
                results[name] = result.packets
        return results

    results = asyncio.run(run())
    for name, _ in CLIPS:
        _assert_streams_identical(results[name], _reference(name))


def test_fleet_reports_actually_bound_ports():
    """port=0 everywhere, yet status and stats expose the real ports."""

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            status = fleet.status()
            stats = await server_stats(*fleet.address)
            health = fleet.router.healthz()
            return status, stats, health

    status, stats, health = asyncio.run(run())
    assert status["router"]["port"] != 0
    coord_ports = {s["shard"]: s["port"] for s in status["shards"]}
    assert all(p not in (None, 0) for p in coord_ports.values())
    assert len(set(coord_ports.values())) == 2  # distinct sockets
    fleet_section = stats["fleet"]
    router_ports = {s["shard"]: s["port"] for s in fleet_section["shards"]}
    assert router_ports == coord_ports  # router agrees with coordinator
    assert all(s["alive"] for s in fleet_section["shards"])
    assert health["accepting"]
    assert health["state"] == "ready"


def test_mid_stream_kill_fails_over_byte_identically():
    """The tentpole: kill the owner mid-stream, resume on the replica."""
    reference = _reference("alpha")
    received = 6

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            conn = await open_records(*fleet.address)
            request = SessionRequest(
                "alpha", QUALITY, ClientCapabilities(DEVICE)
            )
            conn.write(encode_packet_bytes(encode_hello(request)))
            await conn.drain()
            session_msg = decode_control(await conn.read_packet(15.0))
            assert session_msg.kind == "session"
            token = session_msg.token
            assert decode_portable_token(token) is not None
            head = []
            while len(head) < received:
                packet = await conn.read_packet(15.0)
                if packet.ptype is not PacketType.CONTROL:
                    head.append(packet)

            owner = fleet.router.ring.lookup("alpha")
            fleet.kill_shard(owner)
            conn.abort()

            conn = await open_records(*fleet.address)
            conn.write(encode_packet_bytes(encode_resume(token, received)))
            await conn.drain()
            resumed = decode_control(await conn.read_packet(15.0))
            assert resumed.kind == "session"
            assert resumed.resumed_at == received
            tail = await _drain_stream(conn)
            await conn.close()
            return head, tail

    head, tail = asyncio.run(run())
    _assert_streams_identical(head + tail, reference)
    assert _counter("repro_fleet_failover_sessions_total") >= 1


def test_refetch_after_kill_spills_over_to_replica():
    """A fresh hello for a dead shard's clip lands on the replica and
    still produces the identical stream (deterministic catalog)."""

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            host, port = fleet.address
            before = await fetch_stream(host, port, "bravo", QUALITY,
                                        DEVICE, options=_options())
            fleet.kill_shard(fleet.router.ring.lookup("bravo"))
            after = await fetch_stream(host, port, "bravo", QUALITY,
                                       DEVICE, options=_options())
            return before.packets, after.packets

    before, after = asyncio.run(run())
    _assert_streams_identical(after, before)
    assert _counter("repro_fleet_spillover_sessions_total") >= 1


def test_no_routable_shard_answers_busy_not_error():
    """With every shard dead the router must answer retriable busy.

    The health loop is slowed so the deaths are discovered by the
    handoff itself: sending the socket to a shard whose end of the pair
    is closed marks that shard dead on the spot.
    """

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=60.0) as fleet:
            for shard_id in fleet.shard_ids():
                fleet.kill_shard(shard_id)
            request = SessionRequest(
                "alpha", QUALITY, ClientCapabilities(DEVICE)
            )
            conn = await _open(*fleet.address, encode_hello(request))
            message = await _read_control(conn)
            await _hangup(conn)
            return message, fleet.shard_ids()

    message, shard_ids = asyncio.run(run())
    assert message.kind == "busy"
    assert message.busy.retry_after_s > 0
    assert _counter("repro_fleet_unroutable_total") >= 1
    down = {e["shard"] for e in flight_events("fleet_shard_down")
            if e.get("reason") == "handoff"}
    assert down == set(shard_ids)


def test_sessions_outlive_the_router():
    """After the handoff the router holds no task, socket or counter
    for the session: closing the router mid-stream leaves the stream to
    finish on its shard, byte-identical."""
    name = BIG_CLIP[0]
    reference = _reference(name, catalog=_big_catalog)

    async def run():
        async with FleetCoordinator(_big_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            request = SessionRequest(name, QUALITY, ClientCapabilities(DEVICE))
            conn = await _open(*fleet.address, encode_hello(request))
            assert (await _read_control(conn)).kind == "session"
            head = []
            while len(head) < 3:
                packet = await conn.read_packet(15.0)
                if packet.ptype is not PacketType.CONTROL:
                    head.append(packet)
            await fleet.router.close()
            tail = await _drain_stream(conn)
            await _hangup(conn)
            return head + tail

    _assert_streams_identical(asyncio.run(run()), reference)


def test_pipelined_requality_survives_the_handoff():
    """A requality written together with the hello reaches the shard.

    The router reads exactly the opening record, so the requality stays
    unread on the socket it hands off.  The fleet session applies the
    same switch, with the same packets, as a direct server given the
    same two messages in one write.
    """
    request = SessionRequest(BIG_CLIP[0], QUALITY, ClientCapabilities(DEVICE))
    opening = (encode_hello(request), encode_requality(quality=0.2))

    async def fetch(host, port):
        conn = await _open(host, port, *opening)
        assert (await _read_control(conn)).kind == "session"
        controls = []
        packets = await _drain_stream(conn, controls)
        await _hangup(conn)
        acks = [(m.requality.frame, m.requality.quality, m.requality.applied)
                for m in controls if m.kind == "requality"]
        return packets, acks

    async def run():
        async with FleetCoordinator(_big_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            routed = await fetch(*fleet.address)
        async with AnnotationStreamServer(_big_catalog()) as server:
            direct = await fetch(*server.address)
        return routed, direct

    (packets, acks), (direct_packets, direct_acks) = asyncio.run(run())
    assert len(acks) == 1 and acks[0][1:] == (0.2, True)
    assert acks == direct_acks
    _assert_streams_identical(packets, direct_packets)


def test_oversized_opening_record_answered_by_the_router():
    """An opening record too large for one handoff message gets
    ``error`` from the router: no hang, and no shard ever sees it."""
    huge = "x" * MAX_OPENING_RECORD_BYTES
    request = SessionRequest(huge, QUALITY, ClientCapabilities(DEVICE))

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            before = _routed_total()
            conn = await _open(*fleet.address, encode_hello(request))
            message = await _read_control(conn)
            after = await conn.read_packet(15.0)
            await _hangup(conn)
            return message, after, _routed_total() - before

    message, after, routed = asyncio.run(run())
    assert message.kind == "error"
    assert str(MAX_OPENING_RECORD_BYTES - 32) in message.error
    assert after is None  # a clean EOF after the answer, not a reset
    assert routed == 0


def test_undecodable_resume_token_answered_by_the_router():
    """No shard could honor a token the router cannot decode (here the
    earlier suffixed form), so the router answers ``error`` itself."""
    legacy = encode_resume(
        encode_portable_token(CLIPS[0][0], QUALITY, DEVICE) + ".0123abcd", 5
    )

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2,
                                    health_interval_s=0.2) as fleet:
            before = _routed_total()
            conn = await _open(*fleet.address, legacy)
            message = await _read_control(conn)
            after = await conn.read_packet(15.0)
            await _hangup(conn)
            return message, after, _routed_total() - before

    message, after, routed = asyncio.run(run())
    assert message.kind == "error"
    assert "resume token" in message.error
    assert after is None
    assert routed == 0
