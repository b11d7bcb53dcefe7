"""Stream packets.

The annotated stream travels as a packet sequence: one annotation packet up
front (annotations are "available even before decoding the data", which is
what enables optimizations ahead of the decode — Section 3), followed by
frame packets in presentation order.  Control packets carry session
negotiation messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..video.frame import Frame

#: Fixed per-packet header overhead charged by the network model (bytes).
PACKET_HEADER_BYTES = 32


class PacketType(enum.Enum):
    """Kind of payload a packet carries."""

    CONTROL = "control"
    ANNOTATION = "annotation"
    FRAME = "frame"


@dataclass(frozen=True)
class MediaPacket:
    """One unit on the wire.

    Exactly one of ``frame`` / ``payload`` is set: frame packets carry the
    pixel array by reference (serialization cost is charged via
    :attr:`size_bytes`, not paid in copies), other packets carry bytes.
    ``wire_bytes`` overrides the body size on the network — set by servers
    that model an encoded bitstream while handing decoded pixels to the
    in-process client.  ``crc_key`` names a frame body's content (the
    media server's clip registration, frame index and transform key):
    the wire encoder reuses a record's CRC under it.  It is not part of
    the packet's value, so it never affects equality.
    """

    seq: int
    ptype: PacketType
    payload: Optional[bytes] = None
    frame: Optional[Frame] = None
    frame_index: Optional[int] = None
    wire_bytes: Optional[int] = None
    crc_key: Optional[Hashable] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError("packet seq must be non-negative")
        if self.ptype is PacketType.FRAME:
            if self.frame is None or self.frame_index is None:
                raise ValueError("frame packets need a frame and a frame_index")
            if self.payload is not None:
                raise ValueError("frame packets must not carry a bytes payload")
        else:
            if self.payload is None:
                raise ValueError(f"{self.ptype.value} packets need a bytes payload")
            if self.frame is not None or self.frame_index is not None:
                raise ValueError(f"{self.ptype.value} packets must not carry a frame")
        if self.wire_bytes is not None and self.wire_bytes < 0:
            raise ValueError("wire_bytes must be non-negative")

    @property
    def size_bytes(self) -> int:
        """On-the-wire size, including the fixed header."""
        if self.wire_bytes is not None:
            body = self.wire_bytes
        elif self.ptype is PacketType.FRAME:
            body = self.frame.pixels.nbytes
        else:
            body = len(self.payload)
        return PACKET_HEADER_BYTES + body


def annotation_packet(seq: int, payload: bytes) -> MediaPacket:
    """Build an annotation packet carrying a serialized track."""
    return MediaPacket(seq=seq, ptype=PacketType.ANNOTATION, payload=payload)


def frame_packet(seq: int, frame: Frame, frame_index: int,
                 wire_bytes: Optional[int] = None,
                 crc_key: Optional[Hashable] = None) -> MediaPacket:
    """Build a frame packet (optionally with an encoded wire size)."""
    return MediaPacket(seq=seq, ptype=PacketType.FRAME, frame=frame,
                       frame_index=frame_index, wire_bytes=wire_bytes,
                       crc_key=crc_key)


def control_packet(seq: int, payload: bytes) -> MediaPacket:
    """Build a control (negotiation) packet."""
    return MediaPacket(seq=seq, ptype=PacketType.CONTROL, payload=payload)
