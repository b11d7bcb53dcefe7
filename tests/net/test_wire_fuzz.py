"""Hostile clients at the wire: hypothesis drives raw sockets at a server.

Each example starts one small server and runs a few connections at it
at once.  A connection opens with one action (a valid ``hello``; a
``resume`` whose token is valid, forged, undecodable or carries a plan
the server never issues; a ``requality`` instead of an opening; raw
garbage; a truncated record then EOF; EOF; an abort) and follows it
with more (``requality`` requests that are valid, malformed or carry a
non-finite quality; ``progress`` counts that are honest, go backwards,
lie past the end, are huge, negative or not integers; garbage; a
truncated record then EOF; a half-close; reading k records; an abort).
A ``hello`` or ``resume`` may opt in to the progress window; such a
client reports what it holds after every read, as a real one does, and
the clip is longer than the window, so the server does wait on it.

The clients speak through plain non-blocking sockets and split what
they receive with :func:`~repro.net.codec.decode_packet`, so the test
does not lean on the reader it checks.  A client may keep sending
after the server has answered: the server reads and drops it until the
client's EOF, so no send fails and no reset destroys the answer.  Every
connection that was not aborted must end in exactly one of three ways:

* the stream its opening asked for, byte-identical to the in-process
  one under the switch plan the server acknowledged, then ``end`` and
  EOF;
* one ``error`` record, then EOF;
* EOF with nothing sent.

After each example no session is active, every connection task of the
server has finished, and a fresh fetch is byte-identical to the
in-process reference.  A last test kills a progress-reporting fetch at
the relay between its reports and checks the same.
"""

import asyncio
import base64
import functools
import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import ProfileCache, SchemeParameters
from repro.display import ipaq_5555
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    FaultSpec,
    LossyTransport,
    encode_packet_bytes,
)
from repro.net.codec import WIRE_HEADER_BYTES, WIRE_MAGIC, decode_packet
from repro.net.messages import (
    PROGRESS_WINDOW,
    decode_control,
    decode_portable_token,
    encode_hello,
    encode_portable_token,
    encode_progress,
    encode_requality,
    encode_resume,
)
from repro.streaming import (
    AdaptationControl,
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
    control_packet,
)
from repro.video import ArrayClip

CLIP = "fuzzclip"
DEVICE = "ipaq5555"
#: Longer than the progress window, so a reporting session waits.
FRAMES = 48
QUALITY = 0.05
#: The header's packet-type byte of a control record.
CONTROL_TYPE_CODE = 1
#: How long a client waits for the server before the example fails.
WAIT_S = 10.0


@functools.lru_cache(maxsize=None)
def _media() -> MediaServer:
    pixels = np.random.default_rng(7).integers(
        0, 256, size=(FRAMES, 16, 12, 3), dtype=np.uint8
    )
    media = MediaServer(
        params=SchemeParameters(quality=QUALITY, min_scene_interval_frames=5),
        profile_cache=ProfileCache(max_entries=8),
    )
    media.add_clip(ArrayClip(pixels, fps=24.0, name=CLIP))
    return media


@functools.lru_cache(maxsize=None)
def _full_stream(plan=()):
    """Wire bytes of every data record of the in-process stream."""
    media = _media()
    session = media.open_session(
        SessionRequest(CLIP, QUALITY, ClientCapabilities(DEVICE))
    )
    return tuple(
        encode_packet_bytes(packet)
        for batch in media.stream_batches(
            session, adaptation=AdaptationControl(plan)
        )
        for packet in batch
        if packet.ptype is not PacketType.CONTROL
    )


def _forged(body) -> str:
    raw = json.dumps(body).encode("utf-8")
    return "p1." + base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


_REQUEST = SessionRequest(CLIP, QUALITY, ClientCapabilities(DEVICE))
_HELLO = encode_packet_bytes(encode_hello(_REQUEST))
_HELLO_REPORTING = encode_packet_bytes(encode_hello(_REQUEST, progress=True))

_TOKENS = {
    "valid": [encode_portable_token(CLIP, QUALITY, DEVICE)],
    "forged": [
        _forged({"c": "nosuchclip", "q": QUALITY, "d": DEVICE, "s": []}),
        _forged({"c": CLIP, "q": QUALITY, "d": "nosuchdevice", "s": []}),
    ],
    "undecodable": ["p1.!!!", "not-a-token", ""],
    "out_of_range": [
        encode_portable_token(CLIP, QUALITY, DEVICE,
                              switches=((FRAMES, 0.1, None),)),
        encode_portable_token(CLIP, QUALITY, DEVICE,
                              switches=((5, 0.37, None),)),
    ],
}

_REQUALITY = {
    "valid": [encode_packet_bytes(encode_requality(quality=q))
              for q in (0.0, 0.1, 0.2)]
    + [encode_packet_bytes(encode_requality(ambient="office"))],
    "malformed": [encode_packet_bytes(control_packet(0, body)) for body in (
        b'{"kind": "requality", ', b"\xff\xfe", b'["requality"]',
    )],
    "nonfinite": [encode_packet_bytes(control_packet(0, body)) for body in (
        b'{"kind":"requality","quality":NaN}',
        b'{"kind":"requality","quality":Infinity}',
    )],
}

#: Undecodable progress bodies: each ends the server's reading.
_BAD_PROGRESS = {
    "negative": [b'{"kind":"progress","received":-1}'],
    "non_integer": [b'{"kind":"progress","received":2.5}',
                    b'{"kind":"progress","received":"8"}',
                    b'{"kind":"progress","received":true}'],
}
_PROGRESS_KINDS = ("honest", "backwards", "past_end", "huge",
                   *sorted(_BAD_PROGRESS))


def _progress_payload(action, held: int) -> bytes:
    """The record(s) of one ``progress`` action; ``held`` is the count
    of data records the client holds."""
    kind = action[1]
    if kind in _BAD_PROGRESS:
        bodies = _BAD_PROGRESS[kind]
        return encode_packet_bytes(
            control_packet(0, bodies[action[2] % len(bodies)])
        )
    counts = {
        "honest": [held],
        "backwards": [held, max(held - 1 - action[2], 0)],
        "past_end": [len(_full_stream()) + 1],
        "huge": [10 ** 9],
    }[kind]
    return b"".join(encode_packet_bytes(encode_progress(n)) for n in counts)


_garbage = st.binary(min_size=WIRE_HEADER_BYTES, max_size=200).filter(
    lambda data: not data.startswith(WIRE_MAGIC)
)
_requality = st.tuples(
    st.just("requality"), st.sampled_from(sorted(_REQUALITY)), st.integers(0, 9)
)
_truncated = st.tuples(st.just("truncate"), st.integers(0, 10_000))

_openings = st.one_of(
    st.tuples(st.just("hello"), st.booleans()),
    st.tuples(st.just("resume"), st.sampled_from(sorted(_TOKENS)),
              st.integers(0, 9), st.integers(0, FRAMES + 4), st.booleans()),
    _requality,
    st.tuples(st.just("garbage"), _garbage),
    _truncated,
    st.just(("shut",)),
    st.just(("abort",)),
)
_follow_ups = st.lists(st.one_of(
    _requality,
    st.tuples(st.just("progress"), st.sampled_from(_PROGRESS_KINDS),
              st.integers(0, 9)),
    st.tuples(st.just("garbage"), _garbage),
    _truncated,
    st.just(("shut",)),
    st.tuples(st.just("read"), st.integers(1, 30)),
    st.just(("abort",)),
), max_size=5)
_connections = st.lists(st.tuples(_openings, _follow_ups), min_size=1, max_size=3)


def _payload(action) -> bytes:
    kind = action[0]
    if kind == "hello":
        return _HELLO_REPORTING if action[1] else _HELLO
    if kind == "resume":
        tokens = _TOKENS[action[1]]
        return encode_packet_bytes(encode_resume(
            tokens[action[2] % len(tokens)], action[3], progress=action[4]
        ))
    if kind == "requality":
        records = _REQUALITY[action[1]]
        return records[action[2] % len(records)]
    if kind == "garbage":
        return action[1]
    assert kind == "truncate"
    return _HELLO[:1 + action[1] % (len(_HELLO) - 1)]


def _split(data: bytes):
    """The raw records in ``data``; a partial record at the end fails."""
    records = []
    pos = 0
    while pos < len(data):
        assert len(data) - pos >= WIRE_HEADER_BYTES, "stream ends mid-header"
        body_len = struct.unpack_from("<I", data, pos + 12)[0]
        end = pos + WIRE_HEADER_BYTES + body_len
        assert end <= len(data), "stream ends mid-record"
        records.append(data[pos:end])
        pos = end
    return records


def _whole_records(received: bytes):
    """``(records, data records)`` complete in ``received``."""
    pos = count = data = 0
    while len(received) - pos >= WIRE_HEADER_BYTES:
        end = pos + WIRE_HEADER_BYTES + struct.unpack_from(
            "<I", received, pos + 12)[0]
        if end > len(received):
            break
        data += received[pos + 5] != CONTROL_TYPE_CODE
        pos, count = end, count + 1
    return count, data


async def _recv_until(sock, received: bytearray, records, report) -> None:
    """Receive until ``received`` holds ``records`` whole records or
    EOF, awaiting ``report()`` after each receive."""
    loop = asyncio.get_running_loop()
    while _whole_records(received)[0] < records:
        chunk = await loop.sock_recv(sock, 65536)
        if not chunk:
            return
        received += chunk
        await report()


async def _converse(address, opening, follow_ups):
    """Run one connection; returns what it received, ``None`` if aborted."""
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setblocking(False)
    reporting = opening[0] in ("hello", "resume") and opening[-1]
    held_before = opening[3] if opening[0] == "resume" else 0
    received = bytearray()
    sending = True

    def held() -> int:
        return held_before + _whole_records(received)[1]

    async def report() -> None:
        if reporting and sending:
            await loop.sock_sendall(
                sock, encode_packet_bytes(encode_progress(held()))
            )

    try:
        await loop.sock_connect(sock, address)
        for action in (opening, *follow_ups):
            kind = action[0]
            if kind == "abort":
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                return None
            if kind == "read":
                await _recv_until(sock, received, action[1], report)
            elif sending:
                if kind == "progress":
                    await loop.sock_sendall(sock,
                                            _progress_payload(action, held()))
                elif kind != "shut":
                    await loop.sock_sendall(sock, _payload(action))
                if kind in ("shut", "truncate"):
                    sock.shutdown(socket.SHUT_WR)
                    sending = False
        await _recv_until(sock, received, float("inf"), report)
        return bytes(received)
    finally:
        sock.close()


def _check_stream(records, skip=0, plan=()):
    """``records`` are ``session``, the stream from ``skip`` under the
    acknowledged plan (``plan`` until an ack re-issues it), ``end``."""
    opened = decode_control(decode_packet(records[0]))
    assert opened.kind == "session", opened
    assert opened.resumed_at == skip
    closing = decode_control(decode_packet(records[-1]))
    assert closing.kind == "end", closing
    data = []
    for raw in records[1:-1]:
        packet = decode_packet(raw)
        if packet.ptype is not PacketType.CONTROL:
            data.append(raw)
            continue
        message = decode_control(packet)
        assert message.kind == "requality", message
        if message.requality.applied:
            plan = decode_portable_token(message.requality.token).switches
    full = _full_stream(tuple(plan))
    assert data == list(full[skip:])
    assert (closing.end.packet_count, closing.end.frame_count) == (
        len(full), FRAMES
    )


def _check_outcome(opening, received: bytes) -> None:
    records = _split(received)
    kind = opening[0]
    if kind == "shut":
        assert records == []
    elif kind == "hello":
        _check_stream(records)
    elif kind == "resume" and opening[1] == "valid":
        _check_stream(records, skip=opening[3])
    else:
        assert len(records) == 1, records
        assert decode_control(decode_packet(records[0])).kind == "error"


async def _fetch(address) -> bytes:
    return await _converse(address, ("hello", True), [])


async def _settled(server) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + WAIT_S
    while server.active_sessions or server._tasks:
        assert loop.time() < deadline, "server connections never finished"
        await asyncio.sleep(0.005)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connections=_connections)
# An opening of the wrong kind, answered, then more input: the server
# must read on to the client's EOF rather than close over it.
@example(connections=[(("requality", "valid", 0), [
    ("read", 1), ("requality", "malformed", 0), ("requality", "malformed", 0),
])])
def test_every_connection_ends_in_a_stream_an_error_or_a_clean_close(connections):
    async def run():
        async with AnnotationStreamServer(_media()) as server:
            outcomes = await asyncio.wait_for(asyncio.gather(*(
                _converse(server.address, opening, follow_ups)
                for opening, follow_ups in connections
            )), WAIT_S)
            await _settled(server)
            fresh = await asyncio.wait_for(_fetch(server.address), WAIT_S)
            await _settled(server)
        return outcomes, fresh

    outcomes, fresh = asyncio.run(run())
    for (opening, _), received in zip(connections, outcomes):
        if received is not None:
            _check_outcome(opening, received)
    _check_stream(_split(fresh))


@pytest.mark.parametrize("kill_after", [3, 12, 21, 30, 39, 47])
def test_relay_kill_between_progress_reports(kill_after):
    """A progress-reporting fetch through a relay that kills it once:
    the resumed session's window starts at the resume offset, and the
    fetch is byte-identical to the in-process stream."""
    assert len(_full_stream()) > PROGRESS_WINDOW

    async def run():
        async with AnnotationStreamServer(_media()) as server:
            spec = FaultSpec(kill_after_records=kill_after, max_faults=1)
            async with LossyTransport(*server.address, spec=spec) as relay:
                client = AsyncMobileClient(ipaq_5555(), max_retries=3,
                                           backoff_base_s=0.01, jitter_s=0.0)
                result = await asyncio.wait_for(
                    client.fetch(*relay.address, CLIP, QUALITY), WAIT_S
                )
            await _settled(server)
            fresh = await asyncio.wait_for(_fetch(server.address), WAIT_S)
            await _settled(server)
        return result, fresh

    result, fresh = asyncio.run(run())
    assert result.resumes == 1
    assert [encode_packet_bytes(p) for p in result.packets] == list(
        _full_stream()
    )
    _check_stream(_split(fresh))
