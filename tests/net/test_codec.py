"""Property tests for the binary wire codec.

Two invariants carry the whole transport:

* **round trip** — ``decode(encode(p))`` reproduces every packet field
  bit-identically, for all three packet types;
* **no garbage in** — any truncated, corrupted or random byte string
  raises :class:`~repro.net.codec.WireFormatError` (a
  :class:`~repro.streaming.client.StreamProtocolError`), never a crash,
  a hang or a silently wrong packet.
"""

import asyncio
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net import codec
from repro.net.codec import (
    MAX_BODY_BYTES,
    READ_AHEAD_BYTES,
    WIRE_HEADER_BYTES,
    WIRE_MAGIC,
    RecordProtocol,
    WireFormatError,
    decode_packet,
    encode_packet,
    encode_packet_bytes,
    wire_size,
)
from repro.streaming import (
    PACKET_HEADER_BYTES,
    MediaPacket,
    PacketType,
    annotation_packet,
    control_packet,
    frame_packet,
)
from repro.streaming.client import StreamProtocolError
from repro.video import Frame

# -- strategies --------------------------------------------------------

seqs = st.integers(0, 2**32 - 2)
wire_hints = st.none() | st.integers(0, 2**32 - 2)


@st.composite
def frames(draw):
    """A small random frame (geometry and pixels both fuzzed)."""
    height = draw(st.integers(1, 16))
    width = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(height, width, 3), dtype=np.uint8
    )
    return Frame(pixels, index=draw(st.integers(0, 10_000)))


@st.composite
def packets(draw):
    """Any of the three packet types with fuzzed fields."""
    kind = draw(st.sampled_from(["control", "annotation", "frame"]))
    seq = draw(seqs)
    hint = draw(wire_hints)
    if kind == "frame":
        # The wire carries one index; frame.index == frame_index on the
        # wire, exactly as MediaServer emits it.
        frame = draw(frames())
        return frame_packet(seq, frame, frame.index, wire_bytes=hint)
    if kind == "annotation":
        return MediaPacket(seq=seq, ptype=PacketType.ANNOTATION,
                           payload=draw(st.binary(min_size=1, max_size=200)),
                           wire_bytes=hint)
    return MediaPacket(seq=seq, ptype=PacketType.CONTROL,
                       payload=draw(st.binary(min_size=0, max_size=200)),
                       wire_bytes=hint)


def _assert_packets_equal(got: MediaPacket, ref: MediaPacket) -> None:
    assert got.ptype is ref.ptype
    assert got.seq == ref.seq
    assert got.wire_bytes == ref.wire_bytes
    if ref.ptype is PacketType.FRAME:
        assert got.frame_index == ref.frame_index
        assert got.frame.index == ref.frame.index
        assert got.frame.pixels.dtype == np.uint8
        assert np.array_equal(got.frame.pixels, ref.frame.pixels)
    else:
        assert got.payload == ref.payload


# -- round trip --------------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(packet=packets())
    def test_encode_decode_bit_identity(self, packet):
        _assert_packets_equal(decode_packet(encode_packet_bytes(packet)), packet)

    @settings(max_examples=60, deadline=None)
    @given(packet=packets())
    def test_record_length_is_header_plus_body(self, packet):
        encoded = encode_packet_bytes(packet)
        header, body = encode_packet(packet)
        assert len(header) == WIRE_HEADER_BYTES
        assert len(encoded) == WIRE_HEADER_BYTES + len(body)
        assert len(encoded) == wire_size(packet)

    @settings(max_examples=60, deadline=None)
    @given(packet=packets())
    def test_wire_size_matches_model_charge(self, packet):
        """The record occupies exactly what the network model charges
        (unless ``wire_bytes`` models an encoded bitstream)."""
        if packet.wire_bytes is None:
            assert wire_size(packet) == packet.size_bytes

    def test_header_parity_constant(self):
        assert WIRE_HEADER_BYTES == PACKET_HEADER_BYTES == 32

    def test_zero_payload_control_round_trips(self):
        packet = control_packet(0, b"")
        encoded = encode_packet_bytes(packet)
        assert len(encoded) == WIRE_HEADER_BYTES
        _assert_packets_equal(decode_packet(encoded), packet)


# -- malformed input ---------------------------------------------------

class TestMalformedInput:
    @settings(max_examples=120, deadline=None)
    @given(packet=packets(), data=st.data())
    def test_any_truncation_raises(self, packet, data):
        encoded = encode_packet_bytes(packet)
        cut = data.draw(st.integers(0, len(encoded) - 1), label="cut")
        with pytest.raises(WireFormatError):
            decode_packet(encoded[:cut])

    @settings(max_examples=120, deadline=None)
    @given(packet=packets(), data=st.data())
    def test_any_single_byte_corruption_raises(self, packet, data):
        encoded = bytearray(encode_packet_bytes(packet))
        pos = data.draw(st.integers(0, len(encoded) - 1), label="pos")
        encoded[pos] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_packet(bytes(encoded))

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(min_size=0, max_size=300))
    def test_random_garbage_raises(self, data):
        # A random blob that happened to be a valid record would decode
        # fine; it cannot (CRC32 + magic), but keep the test honest.
        assume(not data.startswith(WIRE_MAGIC))
        with pytest.raises(WireFormatError):
            decode_packet(data)

    def test_errors_are_stream_protocol_errors(self):
        """The retry loop catches StreamProtocolError; codec errors must be."""
        assert issubclass(WireFormatError, StreamProtocolError)
        with pytest.raises(StreamProtocolError):
            decode_packet(b"NOPE" + b"\x00" * 28)

    def test_trailing_bytes_rejected(self):
        encoded = encode_packet_bytes(annotation_packet(1, b"abc"))
        with pytest.raises(WireFormatError):
            decode_packet(encoded + b"x")

    def test_huge_body_length_rejected_without_allocation(self):
        header = bytearray(encode_packet_bytes(control_packet(0, b"")))
        struct.pack_into("<I", header, 12, MAX_BODY_BYTES + 1)
        with pytest.raises(WireFormatError):
            decode_packet(bytes(header))

    def test_frame_geometry_mismatch_rejected(self):
        packet = frame_packet(0, Frame.solid_gray(4, 4, 10), 0)
        header, body = encode_packet(packet)
        header = bytearray(header)
        struct.pack_into("<H", header, 20, 5)  # height lies about the body
        with pytest.raises(WireFormatError):
            decode_packet(bytes(header) + bytes(body))

    def test_oversized_seq_rejected_at_encode(self):
        with pytest.raises(WireFormatError):
            encode_packet(control_packet(2**32 - 1, b""))

    def test_oversized_wire_hint_rejected_at_encode(self):
        with pytest.raises(WireFormatError):
            encode_packet(
                frame_packet(0, Frame.solid_gray(4, 4, 0), 0,
                             wire_bytes=2**32 - 1)
            )


# -- the record protocol --------------------------------------

class _Transport:
    """Records what :class:`RecordProtocol` asks of its transport."""

    def __init__(self):
        self.paused = False
        self.pauses = 0

    def pause_reading(self):
        self.paused = True
        self.pauses += 1

    def resume_reading(self):
        self.paused = False

    def close(self):
        pass


def _protocol(scratch=None, **kwargs):
    """A connected protocol (call inside a running loop)."""
    if scratch is None:
        proto = RecordProtocol(**kwargs)
    else:
        with mock.patch.object(codec, "SCRATCH_BYTES", scratch):
            proto = RecordProtocol(**kwargs)
    transport = _Transport()
    proto.connection_made(transport)
    return proto, transport


def _deliver(proto, data, sizes=(1 << 30,)):
    """Hand ``data`` to the protocol as a socket would, in deliveries of
    ``sizes`` bytes (cycled), each cut to the buffer it is offered."""
    pos = 0
    k = 0
    while pos < len(data):
        buf = proto.get_buffer(-1)
        assert len(buf) > 0
        n = min(len(buf), sizes[k % len(sizes)], len(data) - pos)
        buf[:n] = data[pos:pos + n]
        proto.buffer_updated(n)
        pos += n
        k += 1


async def _drain(proto):
    """Every packet the protocol yields, up to EOF."""
    got = []
    while True:
        packet = await proto.read_packet(timeout=5.0)
        if packet is None:
            return got
        got.append(packet)


@st.composite
def streams(draw):
    """A few packets, at least one of them a frame bigger than 64 bytes."""
    big = frame_packet(0, Frame(np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))).integers(
            0, 256, size=(draw(st.integers(3, 40)), 24, 3), dtype=np.uint8),
        index=3), 3)
    packets_ = draw(st.lists(packets(), min_size=0, max_size=4))
    packets_.insert(draw(st.integers(0, len(packets_))), big)
    return packets_


# Scratch sizes: the smallest that holds a header, sizes that put record
# boundaries inside headers and bodies, and the real one.
scratch_sizes = st.sampled_from([WIRE_HEADER_BYTES, 45, 100, 1000, None])
deliveries = st.one_of(
    st.just([1]),
    st.lists(st.integers(1, 3000), min_size=1, max_size=8),
)


class TestRecordProtocol:
    @settings(max_examples=80, deadline=None)
    @given(stream=streams(), scratch=scratch_sizes, sizes=deliveries)
    def test_any_split_yields_the_decoded_records(self, stream, scratch, sizes):
        data = b"".join(encode_packet_bytes(p) for p in stream)

        async def run():
            proto, _ = _protocol(scratch)
            _deliver(proto, data, sizes)
            proto.eof_received()
            return await _drain(proto)

        got = asyncio.run(run())
        assert len(got) == len(stream)
        for packet, ref in zip(got, stream):
            _assert_packets_equal(packet, decode_packet(encode_packet_bytes(ref)))

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), scratch=scratch_sizes, data=st.data())
    def test_truncation_raises_after_the_complete_records(
        self, stream, scratch, data
    ):
        records = [encode_packet_bytes(p) for p in stream]
        blob = b"".join(records)
        cut = data.draw(st.integers(1, len(blob) - 1), label="cut")
        bounds = {sum(map(len, records[:i])) for i in range(len(records) + 1)}

        async def run():
            proto, _ = _protocol(scratch)
            _deliver(proto, blob[:cut], [7, 300])
            proto.eof_received()
            return await _drain(proto)

        if cut in bounds:
            assert len(asyncio.run(run())) == sum(
                1 for i in range(len(records)) if sum(map(len, records[:i + 1])) <= cut
            )
        else:
            with pytest.raises(WireFormatError):
                asyncio.run(run())

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), scratch=scratch_sizes, data=st.data())
    def test_any_single_byte_corruption_raises(self, stream, scratch, data):
        blob = bytearray(b"".join(encode_packet_bytes(p) for p in stream))
        blob[data.draw(st.integers(0, len(blob) - 1), label="pos")] ^= 0xFF

        async def run():
            proto, _ = _protocol(scratch)
            _deliver(proto, bytes(blob), [500])
            proto.eof_received()
            return await _drain(proto)

        with pytest.raises(WireFormatError):
            asyncio.run(run())

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(min_size=1, max_size=300))
    def test_random_garbage_raises(self, data):
        assume(not data.startswith(WIRE_MAGIC))

        async def run():
            proto, _ = _protocol()
            _deliver(proto, data)
            proto.eof_received()
            return await _drain(proto)

        with pytest.raises(WireFormatError):
            asyncio.run(run())

    def test_oversized_header_fails_before_any_body_buffer(self):
        header = bytearray(encode_packet_bytes(control_packet(0, b"")))
        struct.pack_into("<I", header, 12, MAX_BODY_BYTES + 1)

        async def run():
            proto, transport = _protocol()
            tracemalloc.start()
            try:
                _deliver(proto, bytes(header))
                with pytest.raises(WireFormatError, match="MAX_BODY_BYTES"):
                    await proto.read_packet(timeout=5.0)  # no EOF needed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024 * 1024
            assert transport.paused  # nothing more is read
            assert len(proto.get_buffer(-1)) <= codec.SCRATCH_BYTES

        asyncio.run(run())

    def test_body_cap_fails_at_the_header(self):
        """A body over the connection's cap fails as soon as its header
        is in, before a byte of it is buffered; one at the cap passes."""
        at_cap = encode_packet_bytes(annotation_packet(0, b"x" * 100))
        over = bytearray(at_cap[:WIRE_HEADER_BYTES])
        struct.pack_into("<I", over, 12, 101)

        async def run():
            proto, transport = _protocol(max_record_bytes=WIRE_HEADER_BYTES + 100)
            _deliver(proto, at_cap + bytes(over))
            assert (await proto.read_packet(timeout=5.0)).payload == b"x" * 100
            with pytest.raises(WireFormatError, match="100-byte limit"):
                await proto.read_packet(timeout=5.0)
            assert transport.paused
            assert proto._body is None

        asyncio.run(run())

    def test_discard_drops_input_until_eof_or_the_limit(self):
        """After a failure reading resumes; what arrives, queued records
        and a partial record included, is dropped until EOF or the
        limit, and a silent peer times the discard out."""
        record = encode_packet_bytes(annotation_packet(0, b"track"))

        async def run():
            proto, transport = _protocol()
            _deliver(proto, record + b"\x00" * WIRE_HEADER_BYTES)  # then garbage
            assert transport.paused
            discard = asyncio.ensure_future(proto.discard(limit=10_000))
            await asyncio.sleep(0)
            assert not transport.paused and not proto._records
            _deliver(proto, b"\xff" * 5000)
            await asyncio.sleep(0)
            assert not discard.done()
            proto.eof_received()
            await asyncio.wait_for(discard, 2.0)

            proto, _ = _protocol()
            _deliver(proto, record[:-2])  # a partial record
            discard = asyncio.ensure_future(proto.discard(limit=100))
            await asyncio.sleep(0)
            _deliver(proto, b"\xff" * 100)
            await asyncio.wait_for(discard, 2.0)  # the limit, no EOF

            proto, _ = _protocol()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(proto.discard(timeout=0.05), 2.0)

        asyncio.run(run())

    def test_frames_own_their_buffers(self):
        """A decoded frame's pixels are writable, and later records
        (through the same scratch buffer) never change them."""
        stream = [frame_packet(i, Frame(np.full((20, 20, 3), i, np.uint8),
                                        index=i), i) for i in range(6)]

        async def run():
            for scratch in (None, 100):
                proto, _ = _protocol(scratch)
                _deliver(proto, encode_packet_bytes(stream[0]), [50])
                first = (await proto.read_packet(timeout=5.0)).frame.pixels
                assert first.flags.writeable
                kept = first.copy()
                _deliver(proto, b"".join(
                    encode_packet_bytes(p) for p in stream[1:]), [50])
                proto.eof_received()
                rest = await _drain(proto)
                assert np.array_equal(first, kept)
                first[:] = 255  # the frame's own buffer: the rest keep theirs
                for i, packet in enumerate(rest, start=1):
                    assert (packet.frame.pixels == i).all()

        asyncio.run(run())

    def test_read_ahead_pauses_the_transport_at_the_bound(self):
        frame = frame_packet(0, Frame(np.zeros((100, 100, 3), np.uint8)), 0)
        record = encode_packet_bytes(frame)

        async def run():
            proto, transport = _protocol()
            held = 0
            while not transport.paused:  # a consumer that does not read
                _deliver(proto, record, [4096])
                held += len(record)
                assert held <= READ_AHEAD_BYTES + 2 * len(record)
            assert held - len(record) >= READ_AHEAD_BYTES
            assert transport.pauses == 1
            while held:
                await proto.read_packet(timeout=5.0)
                held -= len(record)
                if held - len(record) < READ_AHEAD_BYTES:
                    assert not transport.paused
            return transport.pauses

        assert asyncio.run(run()) == 1

    def test_small_records_never_pause_a_reading_consumer(self):
        stream = b"".join(encode_packet_bytes(annotation_packet(i, b"x" * 200))
                          for i in range(2000))

        async def run():
            proto, transport = _protocol()
            for start in range(0, len(stream), 65536):
                _deliver(proto, stream[start:start + 65536])
                while proto._records:
                    await proto.read_packet(timeout=5.0)
            return transport.pauses

        assert asyncio.run(run()) == 0

    def test_eof_at_boundary_reset_and_stall(self):
        record = encode_packet_bytes(annotation_packet(0, b"track"))

        async def run():
            proto, _ = _protocol()
            _deliver(proto, record)
            proto.connection_lost(ConnectionResetError("reset by peer"))
            # What arrived before the reset is still returned first.
            assert (await proto.read_packet(timeout=5.0)).payload == b"track"
            with pytest.raises(ConnectionResetError):
                await proto.read_packet(timeout=5.0)

            proto, _ = _protocol()
            _deliver(proto, record)
            proto.eof_received()
            assert await proto.read_packet(timeout=5.0) is not None
            assert await proto.read_packet(timeout=5.0) is None

            proto, _ = _protocol()
            _deliver(proto, record[:-2])  # stalls mid-body
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                # The outer bound only keeps a broken deadline from hanging.
                await asyncio.wait_for(proto.read_packet(timeout=0.05), 2.0)
            assert 0.05 <= loop.time() - started < 1.0

        asyncio.run(run())
