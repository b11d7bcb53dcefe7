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
buffer as separate buffers so frame payloads are written zero-copy.

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
from dataclasses import dataclass
from time import perf_counter
from typing import Awaitable, Callable, List, Optional, Union

import numpy as np

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

#: Sentinel for "field absent" in the u32 frame-index / wire-bytes slots.
_ABSENT = 0xFFFFFFFF

#: Upper bound on a record body; a corrupt length field must never make a
#: reader allocate gigabytes or block forever on bytes that never come.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most input a rejecting end reads and drops before it closes
#: (:func:`discard_input`).
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


def encode_packet(packet: MediaPacket) -> List[Union[bytes, memoryview]]:
    """Encode a packet as ``[header, body]`` buffers.

    Frame bodies are returned as a memoryview over the pixel array —
    no copy is made; pass the list straight to ``StreamWriter.write``
    (via :func:`encode_packet_bytes` or ``writer.writelines``).
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
    prefix = _HEADER.pack(
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
        0,
    )
    crc = zlib.crc32(body, zlib.crc32(prefix[:-4]))
    header = prefix[:-4] + struct.pack("<I", crc)
    return [header, body]


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


def _parse_header(buf: Union[bytes, memoryview]) -> _ParsedHeader:
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
    )


def _build_packet(head: _ParsedHeader, body: Union[bytes, memoryview]) -> MediaPacket:
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
                frame=Frame(pixels.copy(), index=head.frame_index),
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
    return _build_packet(head, body)


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
            body_len = _parse_header(record).body_len
            if body_len > max_body_bytes:
                raise WireFormatError(f"body length {body_len} exceeds "
                                      f"the {max_body_bytes}-byte limit")
            size += body_len
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


async def read_packet(
    reader: asyncio.StreamReader,
    timings: Optional[dict] = None,
) -> Optional[MediaPacket]:
    """Read one record from an asyncio stream.

    Returns ``None`` on a clean EOF at a record boundary; raises
    :class:`WireFormatError` on truncation mid-record or any header/CRC
    violation.  Callers own read timeouts (``asyncio.wait_for``).

    ``timings`` (when given) receives a ``decode_s`` increment covering
    the CPU cost of header parsing, CRC verification and packet
    construction — the socket wait itself is excluded — so callers can
    aggregate per-record decode cost into one ``net.decode`` span.
    """
    try:
        header = await reader.readexactly(WIRE_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireFormatError(
            f"connection closed mid-header ({len(exc.partial)} bytes)"
        ) from exc
    if timings is None:
        head = _parse_header(header)
    else:
        t0 = perf_counter()
        head = _parse_header(header)
        timings["decode_s"] = timings.get("decode_s", 0.0) + perf_counter() - t0
    try:
        body = await reader.readexactly(head.body_len)
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"connection closed mid-body ({len(exc.partial)} of "
            f"{head.body_len} bytes)"
        ) from exc
    if timings is None:
        return _build_packet(head, body)
    t0 = perf_counter()
    packet = _build_packet(head, body)
    timings["decode_s"] += perf_counter() - t0
    return packet
