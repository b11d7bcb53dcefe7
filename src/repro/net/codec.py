"""Binary wire codec for :class:`~repro.streaming.packets.MediaPacket`.

Every packet becomes one length-prefixed record with a fixed 32-byte
header — exactly the ``PACKET_HEADER_BYTES`` the network model has always
charged per packet, so a record's on-the-wire length equals
``MediaPacket.size_bytes`` (modulo an explicit ``wire_bytes`` override,
which models an encoded bitstream while raw pixels travel in-process).

Wire record layout (little-endian, 32-byte header followed by the body)::

    offset  size  field
    0       4     magic            b"ANW1"
    4       1     version          1
    5       1     packet type      1=control, 2=annotation, 3=frame
    6       2     flags            must be 0 in version 1
    8       4     seq              packet sequence number
    12      4     body length      bytes following the header
    16      4     frame index      0xFFFFFFFF when absent
    20      2     frame height     0 for non-frame packets
    22      2     frame width      0 for non-frame packets
    24      4     wire-bytes hint  0xFFFFFFFF when absent
    28      4     CRC32            over header[0:28] + body

Bodies: control and annotation packets carry their payload bytes verbatim
(annotation payloads are already the RLE/varint-compressed track format of
:mod:`repro.core.annotation`); frame packets carry the raw ``(H, W, 3)``
uint8 pixel block.  :func:`encode_packet` returns the header and the pixel
buffer as separate buffers so frame payloads are written zero-copy, and
takes a frame record's CRC from a store of computed CRCs when the packet
names its content (``MediaPacket.crc_key``), reading the body only on a
miss.

Reading: :class:`RecordProtocol` assembles a connection's records on
every socket the server, the client and the fault relay own.  It
checks each header, and the body against the connection's cap
(:data:`MAX_OPENING_RECORD_BYTES` at a server, :data:`MAX_BODY_BYTES`
at a client), before it allocates the body; it lets the socket fill a
body buffer of exactly the announced length and bounds its read-ahead.
A decoded frame's pixels are a view of that buffer, so a frame is
copied once, by the kernel.  :func:`sock_read_record` reads one raw
record off a socket without reading past it (the fleet router).

Any malformed input — bad magic, unknown version/type, length or geometry
mismatch, CRC failure, truncation — raises :class:`WireFormatError`, a
:class:`~repro.streaming.client.StreamProtocolError` subclass, never a
crash or a hang.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Awaitable, Callable, Deque, List, Optional, Tuple, Union

import numpy as np

from ..core.profile_cache import ProfileCache
from ..streaming.client import StreamProtocolError
from ..streaming.packets import PACKET_HEADER_BYTES, MediaPacket, PacketType
from ..video.frame import Frame

#: Record magic — "ANnotation Wire, version 1 family".
WIRE_MAGIC = b"ANW1"
#: Current (only) wire format version.
WIRE_VERSION = 1
#: Fixed header size; by construction identical to the model's charge.
WIRE_HEADER_BYTES = PACKET_HEADER_BYTES

#: ``<magic, version, ptype, flags, seq, body_len, frame_index, h, w,
#: wire_bytes, crc32>``
_HEADER = struct.Struct("<4sBBHIIIHHII")
assert _HEADER.size == WIRE_HEADER_BYTES, "wire header must match the model charge"
#: The header without its CRC: the 28 bytes the CRC covers before the body.
_PREFIX = struct.Struct(_HEADER.format[:-1])
_CRC = struct.Struct("<I")

#: Sentinel for "field absent" in the u32 frame-index / wire-bytes slots.
_ABSENT = 0xFFFFFFFF

#: Upper bound on a record body; a corrupt length field must never make a
#: reader allocate gigabytes or block forever on bytes that never come.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest record (header + body) a peer may send to a server (and the
#: fleet router hands to a shard): an opening request or a ``requality``.
MAX_OPENING_RECORD_BYTES = 64 * 1024

#: Most input a rejecting end reads and drops before it closes
#: (:func:`discard_input`, :meth:`RecordProtocol.discard`).
DISCARD_LIMIT_BYTES = 1024 * 1024

_TYPE_CODES = {
    PacketType.CONTROL: 1,
    PacketType.ANNOTATION: 2,
    PacketType.FRAME: 3,
}
_CODE_TYPES = {code: ptype for ptype, code in _TYPE_CODES.items()}


class WireFormatError(StreamProtocolError):
    """The byte stream is not a valid wire record sequence."""


def _frame_body(frame: Frame) -> memoryview:
    """The frame's pixel block as a flat byte view (zero-copy when contiguous)."""
    pixels = frame.pixels
    if not pixels.flags["C_CONTIGUOUS"]:
        pixels = np.ascontiguousarray(pixels)
    return memoryview(pixels).cast("B")


def encode_packet(
    packet: MediaPacket, crcs: Optional[ProfileCache] = None
) -> List[Union[bytes, memoryview]]:
    """Encode a packet as ``[header, body]`` buffers.

    Frame bodies are returned as a memoryview over the pixel array —
    no copy is made; write both buffers to the transport in order
    (or join them with :func:`encode_packet_bytes`).

    ``crcs`` is a store of record CRCs (the media server's
    ``record_crcs``).  A packet stamped with a ``crc_key`` looks its CRC
    up there under ``(crc_key, header prefix)`` and computes it only on
    a miss, so a body served again is not read again; the bytes are the
    same either way.
    """
    if packet.seq > _ABSENT - 1:
        raise WireFormatError(f"seq {packet.seq} exceeds the u32 wire field")
    if packet.ptype is PacketType.FRAME:
        frame = packet.frame
        if frame.height > 0xFFFF or frame.width > 0xFFFF:
            raise WireFormatError(
                f"frame geometry {frame.height}x{frame.width} exceeds u16 wire fields"
            )
        body: Union[bytes, memoryview] = _frame_body(frame)
        frame_index = packet.frame_index
        height, width = frame.height, frame.width
    else:
        body = packet.payload
        frame_index = None
        height = width = 0
    if len(body) > MAX_BODY_BYTES:
        raise WireFormatError(f"body of {len(body)} bytes exceeds MAX_BODY_BYTES")
    wire_bytes = packet.wire_bytes
    if wire_bytes is not None and wire_bytes > _ABSENT - 1:
        raise WireFormatError(f"wire_bytes {wire_bytes} exceeds the u32 wire field")
    prefix = _PREFIX.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        _TYPE_CODES[packet.ptype],
        0,
        packet.seq,
        len(body),
        _ABSENT if frame_index is None else frame_index,
        height,
        width,
        _ABSENT if wire_bytes is None else wire_bytes,
    )
    key = packet.crc_key
    if key is None or crcs is None:
        crc = zlib.crc32(body, zlib.crc32(prefix))
    else:
        key = (key, prefix)
        crc = crcs.get(key)
        if crc is None:
            crc = zlib.crc32(body, zlib.crc32(prefix))
            crcs.put(key, crc)
    return [prefix + _CRC.pack(crc), body]


def encode_packet_bytes(packet: MediaPacket) -> bytes:
    """Encode a packet as one contiguous byte string (copies the body)."""
    header, body = encode_packet(packet)
    return bytes(header) + bytes(body)


def wire_size(packet: MediaPacket) -> int:
    """Actual record length on the wire: header plus raw body.

    Equal to :attr:`~repro.streaming.packets.MediaPacket.size_bytes`
    except when ``wire_bytes`` overrides the *modeled* body size.
    """
    if packet.ptype is PacketType.FRAME:
        return WIRE_HEADER_BYTES + packet.frame.pixels.nbytes
    return WIRE_HEADER_BYTES + len(packet.payload)


@dataclass(frozen=True)
class _ParsedHeader:
    """Validated header fields of one wire record."""

    ptype: PacketType
    seq: int
    body_len: int
    frame_index: Optional[int]
    height: int
    width: int
    wire_bytes: Optional[int]
    crc32: int
    crc_seed: int  # CRC state after the header prefix, to resume over the body
    raw: bytes  # the header's 32 bytes as they arrived


def _parse_header(buf: Union[bytes, memoryview],
                  max_body_bytes: int = MAX_BODY_BYTES) -> _ParsedHeader:
    if len(buf) < WIRE_HEADER_BYTES:
        raise WireFormatError(
            f"truncated header: {len(buf)} of {WIRE_HEADER_BYTES} bytes"
        )
    header = bytes(buf[:WIRE_HEADER_BYTES])
    (magic, version, type_code, flags, seq, body_len,
     frame_index, height, width, wire_bytes, crc) = _HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad record magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    if flags != 0:
        raise WireFormatError(f"unknown flags 0x{flags:04x} in version 1")
    ptype = _CODE_TYPES.get(type_code)
    if ptype is None:
        raise WireFormatError(f"unknown packet type code {type_code}")
    if body_len > MAX_BODY_BYTES:
        raise WireFormatError(f"body length {body_len} exceeds MAX_BODY_BYTES")
    if body_len > max_body_bytes:
        raise WireFormatError(f"body length {body_len} exceeds "
                              f"the {max_body_bytes}-byte limit")
    if ptype is PacketType.FRAME:
        if frame_index == _ABSENT:
            raise WireFormatError("frame record without a frame index")
        if height == 0 or width == 0:
            raise WireFormatError("frame record with zero geometry")
        if body_len != height * width * 3:
            raise WireFormatError(
                f"frame body of {body_len} bytes does not match "
                f"{height}x{width}x3 geometry"
            )
    else:
        if frame_index != _ABSENT:
            raise WireFormatError(f"{ptype.value} record with a frame index")
        if height != 0 or width != 0:
            raise WireFormatError(f"{ptype.value} record with frame geometry")
        if body_len == 0 and ptype is PacketType.ANNOTATION:
            raise WireFormatError("annotation record with an empty body")
    return _ParsedHeader(
        ptype=ptype,
        seq=seq,
        body_len=body_len,
        frame_index=None if frame_index == _ABSENT else frame_index,
        height=height,
        width=width,
        wire_bytes=None if wire_bytes == _ABSENT else wire_bytes,
        crc32=crc,
        crc_seed=zlib.crc32(header[:-4]),
        raw=header,
    )


def _build_packet(head: _ParsedHeader, body: Union[bytes, bytearray]) -> MediaPacket:
    """Verify the CRC and build the packet; a frame takes ``body`` over.

    A frame's pixels are a view of ``body``, so callers hand over a
    buffer nothing else holds (a ``bytearray`` gives writable pixels).
    """
    if len(body) != head.body_len:
        raise WireFormatError(
            f"truncated body: {len(body)} of {head.body_len} bytes"
        )
    if zlib.crc32(body, head.crc_seed) != head.crc32:
        raise WireFormatError("CRC32 mismatch: record corrupted in transit")
    try:
        if head.ptype is PacketType.FRAME:
            pixels = np.frombuffer(body, dtype=np.uint8).reshape(
                head.height, head.width, 3
            )
            return MediaPacket(
                seq=head.seq,
                ptype=PacketType.FRAME,
                frame=Frame(pixels, index=head.frame_index),
                frame_index=head.frame_index,
                wire_bytes=head.wire_bytes,
            )
        return MediaPacket(
            seq=head.seq,
            ptype=head.ptype,
            payload=bytes(body),
            wire_bytes=head.wire_bytes,
        )
    except ValueError as exc:  # MediaPacket invariant violations
        raise WireFormatError(f"invalid packet fields on the wire: {exc}") from exc


def decode_packet(data: Union[bytes, memoryview]) -> MediaPacket:
    """Decode exactly one wire record; trailing bytes are an error."""
    head = _parse_header(data)
    body = memoryview(data)[WIRE_HEADER_BYTES:]
    if len(body) > head.body_len:
        raise WireFormatError(
            f"{len(body) - head.body_len} trailing bytes after the record"
        )
    return _build_packet(head, bytearray(body))


async def sock_read_record(
    sock: socket.socket, max_body_bytes: int = MAX_BODY_BYTES
) -> Optional[bytes]:
    """Read exactly one raw record off a non-blocking socket.

    Never reads past the record (header, then exactly its body), so
    bytes pipelined behind it stay in the kernel for whoever serves the
    socket next.  ``None`` on EOF before the first byte;
    :class:`WireFormatError` on truncation, a bad header or a body over
    ``max_body_bytes``.
    """
    loop = asyncio.get_running_loop()
    record = bytearray()
    size = WIRE_HEADER_BYTES
    while len(record) < size:
        chunk = await loop.sock_recv(sock, size - len(record))
        if not chunk:
            if not record:
                return None
            raise WireFormatError(
                f"connection closed mid-record ({len(record)} of {size} bytes)"
            )
        record += chunk
        if len(record) == WIRE_HEADER_BYTES:
            size += _parse_header(record, max_body_bytes).body_len
    return bytes(record)


async def discard_input(
    read: Callable[[int], Awaitable[bytes]],
    limit: int = DISCARD_LIMIT_BYTES,
) -> None:
    """Read and drop input through ``read`` until EOF or ``limit`` bytes.

    Closing a socket with unread input makes the kernel send a reset,
    which can destroy the answer still in flight to the peer.  An end
    that rejects an opening record therefore answers, shuts down its
    write side, and calls this to consume the rest of what the peer
    sent before it closes.  Callers bound the wait with a timeout.
    """
    while limit > 0:
        chunk = await read(min(limit, 64 * 1024))
        if not chunk:
            return
        limit -= len(chunk)


#: Size of the scratch buffer :class:`RecordProtocol` reads headers and
#: small records into.  A record that does not fit the rest of a scratch
#: read gets its own buffer, which the socket then fills directly.
SCRATCH_BYTES = 64 * 1024

#: Most bytes of completed records :class:`RecordProtocol` holds, besides
#: the newest one, before it pauses the transport: asyncio's stream
#: reader allows twice its 64 KiB limit.  A client that reads ahead
#: further would let the server run further ahead of playback, and a
#: mid-stream switch lands after everything already read ahead.
READ_AHEAD_BYTES = 2 * 64 * 1024

_Record = Tuple[_ParsedHeader, bytearray]


class RecordProtocol(asyncio.BufferedProtocol):
    """One connection's wire records, each read into a buffer of its own.

    The header of every record is validated (:func:`_parse_header`),
    and the record checked against ``max_record_bytes``, before anything
    is allocated for its body.  Records that fit the rest of a
    :data:`SCRATCH_BYTES` read are split out of it; a larger body gets a
    ``bytearray`` of its exact length, whose unfilled tail
    :meth:`get_buffer` hands to the transport, so the kernel copies the
    body straight into the buffer the decoded frame keeps.  Completed
    records wait undecoded; the transport pauses while the records
    waiting besides the newest one hold :data:`READ_AHEAD_BYTES`.

    :meth:`read_raw` / :meth:`read_packet` return the next record, or
    ``None`` on EOF at a record boundary.  They raise
    :class:`WireFormatError` for a bad header or EOF mid-record,
    ``ConnectionError`` when the connection was reset, and
    ``asyncio.TimeoutError`` when no record completes within
    ``timeout`` seconds of the call.  Records that arrived before a
    failure are returned first.  One timer serves all reads: each read
    moves the deadline, and the timer re-arms itself when it fires early.

    The peer's EOF ends reading only; :meth:`write` / :meth:`drain` /
    :meth:`write_eof` work until :meth:`close` or :meth:`abort`.
    ``on_open`` is called with the protocol once it is connected (a
    listening server starts the connection's task there).  ``decode_s``
    totals the CPU time spent parsing headers and building packets.
    """

    def __init__(self, max_record_bytes: int = WIRE_HEADER_BYTES + MAX_BODY_BYTES,
                 on_open: Optional[Callable[["RecordProtocol"], None]] = None):
        self._loop = asyncio.get_running_loop()
        self._max_body_bytes = max_record_bytes - WIRE_HEADER_BYTES
        self._on_open = on_open
        self._transport: Optional[asyncio.Transport] = None
        self._scratch = bytearray(SCRATCH_BYTES)
        self._scratch_view = memoryview(self._scratch)
        self._scratch_len = 0
        self._head: Optional[_ParsedHeader] = None  # record being filled
        self._body: Optional[bytearray] = None
        self._body_view: Optional[memoryview] = None
        self._filled = 0
        self._records: Deque[_Record] = deque()
        self._waiting = 0  # bytes of completed records not yet read
        self._newest = 0  # size of the newest of them
        self._read_paused = False
        self._eof = False
        self._exc: Optional[BaseException] = None
        self._discard_left: Optional[int] = None  # set while discarding
        self._waiter: Optional[asyncio.Future] = None
        self._deadline: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._write_paused = False
        self._drain_waiter: Optional[asyncio.Future] = None
        self._closed = self._loop.create_future()
        self.decode_s = 0.0

    # -- asyncio.BufferedProtocol -------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._on_open is not None:
            self._on_open(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body_view is not None:
            return self._body_view[self._filled:]
        return self._scratch_view[self._scratch_len:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._discard_left is not None:
            self._discard_left -= nbytes
            if self._discard_left <= 0:
                self._wake()
            return
        if self._exc is not None:
            return  # failed: what still arrives is dropped
        if self._body is not None:
            self._filled += nbytes
            if self._filled == len(self._body):
                self._push(self._head, self._body)
                self._head = self._body = self._body_view = None
            return
        self._scratch_len += nbytes
        try:
            self._split()
        except WireFormatError as exc:
            self._fail(exc)

    def eof_received(self) -> bool:
        self._eof = True
        if self._body is not None or self._scratch_len:
            have = self._filled if self._body is not None else self._scratch_len
            self._fail(WireFormatError(
                f"connection closed mid-record ({have} bytes of it read)"
            ))
        self._wake()
        return True  # keep the write side open

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self._eof:
            if exc is None:
                self.eof_received()
            else:
                self._fail(exc)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(ConnectionResetError("Connection lost"))
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- record assembly ------------------------------------------------
    def feed(self, data: bytes) -> None:
        """Take ``data`` (at most :data:`SCRATCH_BYTES`, read off the
        socket before this protocol took it over) as if it arrived."""
        self.get_buffer(len(data))[:len(data)] = data
        self.buffer_updated(len(data))

    def _split(self) -> None:
        """Take every complete record out of the scratch buffer."""
        view = self._scratch_view
        end = self._scratch_len
        pos = 0
        while end - pos >= WIRE_HEADER_BYTES:
            t0 = perf_counter()
            head = _parse_header(view[pos:pos + WIRE_HEADER_BYTES],
                                 self._max_body_bytes)
            self.decode_s += perf_counter() - t0
            start = pos + WIRE_HEADER_BYTES
            stop = start + head.body_len
            if stop <= end:
                self._push(head, bytearray(view[start:stop]))
                pos = stop
                continue
            body = bytearray(head.body_len)
            body[:end - start] = view[start:end]
            self._head, self._body = head, body
            self._body_view = memoryview(body)
            self._filled = end - start
            pos = end
            break
        if pos:
            self._scratch[:end - pos] = self._scratch[pos:end]
            self._scratch_len = end - pos

    def _push(self, head: _ParsedHeader, body: bytearray) -> None:
        self._records.append((head, body))
        size = WIRE_HEADER_BYTES + len(body)
        self._waiting += size
        self._newest = size
        self._wake()
        if (not self._read_paused
                and self._waiting - self._newest >= READ_AHEAD_BYTES):
            self._read_paused = True
            self._transport.pause_reading()

    def _fail(self, exc: BaseException) -> None:
        if self._exc is None:
            self._exc = exc
            # Anything read from now on lands in the scratch and is dropped.
            self._scratch_len = 0
            self._head = self._body = self._body_view = None
            if self._transport is not None and not self._read_paused:
                self._read_paused = True
                self._transport.pause_reading()
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _on_deadline(self) -> None:
        self._timer = None
        waiter = self._waiter
        if waiter is None or waiter.done() or self._deadline is None:
            return
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._on_deadline)
        else:
            waiter.set_exception(asyncio.TimeoutError())

    # -- reading ----------------------------------------------------------
    async def read_raw(self, timeout: Optional[float] = None) -> Optional[_Record]:
        """The next record as ``(parsed header, body)``, CRC unchecked."""
        if not self._records:
            if self._exc is None and not self._eof:
                await self._wait(timeout)
            if not self._records:
                if self._exc is not None:
                    raise self._exc
                return None  # EOF
        record = self._records.popleft()
        self._waiting -= WIRE_HEADER_BYTES + len(record[1])
        if not self._records:
            self._newest = 0
        if (self._read_paused and self._exc is None
                and self._waiting - self._newest < READ_AHEAD_BYTES):
            self._read_paused = False
            self._transport.resume_reading()
        return record

    async def read_packet(self, timeout: Optional[float] = None) -> Optional[MediaPacket]:
        """The next record decoded (CRC verified); see :meth:`read_raw`."""
        record = await self.read_raw(timeout)
        if record is None:
            return None
        t0 = perf_counter()
        packet = _build_packet(*record)
        self.decode_s += perf_counter() - t0
        return packet

    async def discard(self, limit: int = DISCARD_LIMIT_BYTES,
                      timeout: Optional[float] = None) -> None:
        """Drop input until the peer's EOF or ``limit`` bytes, records
        not yet read and a partial or failed one included, as
        :func:`discard_input` does for a socket; ``asyncio.TimeoutError``
        after ``timeout`` seconds."""
        self._discard_left = limit
        self._records.clear()
        self._waiting = self._newest = self._scratch_len = 0
        self._head = self._body = self._body_view = None
        if self._read_paused:
            self._read_paused = False
            self._transport.resume_reading()
        # Only the limit, EOF or a lost connection wake the wait.
        while (self._discard_left > 0 and not self._eof
               and not self._closed.done()):
            await self._wait(timeout)

    async def _wait(self, timeout: Optional[float]) -> None:
        """Until the protocol wakes the reader, or the deadline."""
        loop = self._loop
        if timeout is None:
            self._deadline = None
        else:
            self._deadline = deadline = loop.time() + timeout
            timer = self._timer
            if timer is None or timer.when() > deadline:
                if timer is not None:
                    timer.cancel()
                self._timer = loop.call_at(deadline, self._on_deadline)
        self._waiter = loop.create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    # -- writing ----------------------------------------------------------
    def write(self, data: Union[bytes, bytearray, memoryview]) -> None:
        """Queue ``data`` on the transport."""
        self._transport.write(data)

    def write_eof(self) -> None:
        """Shut down the write side once the buffered data is sent."""
        self._transport.write_eof()

    async def drain(self) -> None:
        """Wait until the transport's write buffer is below its high
        mark; ``ConnectionResetError`` once the connection is closing."""
        if self._closed.done() or self._transport.is_closing():
            raise ConnectionResetError("Connection lost")
        if not self._write_paused:
            return
        self._drain_waiter = self._loop.create_future()
        try:
            await self._drain_waiter
        finally:
            self._drain_waiter = None

    def abort(self) -> None:
        """Drop the connection now, and whatever is still buffered for it."""
        if self._transport is not None:
            self._transport.abort()

    async def close(self, timeout: Optional[float] = None) -> None:
        """Close once the buffered data is sent and wait until the
        connection is gone; after ``timeout`` seconds, abort it."""
        self._transport.close()
        await asyncio.wait([self._closed], timeout=timeout)
        self._transport.abort()  # a no-op once it is gone


async def open_records(host: str, port: int) -> RecordProtocol:
    """Connect to ``host:port`` and read it through a :class:`RecordProtocol`."""
    loop = asyncio.get_running_loop()
    _, protocol = await loop.create_connection(RecordProtocol, host, port)
    return protocol
