"""Streaming system: server, proxy, network path, client, sessions."""

from .packets import (
    PACKET_HEADER_BYTES,
    MediaPacket,
    PacketType,
    annotation_packet,
    control_packet,
    frame_packet,
)
from .network import (
    DEFAULT_WIRED,
    DEFAULT_WIRELESS,
    DeliverySchedule,
    Link,
    NetworkPath,
)
from .session import (
    ClientCapabilities,
    NegotiationError,
    SessionDescription,
    SessionRequest,
    snap_quality,
)
from .server import AdaptationControl, MediaServer, ResumePoint
from .archive import load_archive, save_archive
from .middleware import (
    AdaptationEvent,
    BatteryAwareMiddleware,
    PowerHint,
    QualityAdvisor,
    SessionPlan,
    publish_power_hints,
)
from .playout import PlayoutBuffer, PlayoutReport, StallEvent
from .proxy import TranscodingProxy
from .client import MobileClient, StreamProtocolError

__all__ = [
    "MediaPacket",
    "PacketType",
    "PACKET_HEADER_BYTES",
    "annotation_packet",
    "frame_packet",
    "control_packet",
    "Link",
    "NetworkPath",
    "DeliverySchedule",
    "DEFAULT_WIRED",
    "DEFAULT_WIRELESS",
    "ClientCapabilities",
    "SessionRequest",
    "SessionDescription",
    "NegotiationError",
    "snap_quality",
    "AdaptationControl",
    "MediaServer",
    "ResumePoint",
    "save_archive",
    "load_archive",
    "PowerHint",
    "publish_power_hints",
    "QualityAdvisor",
    "BatteryAwareMiddleware",
    "AdaptationEvent",
    "SessionPlan",
    "PlayoutBuffer",
    "PlayoutReport",
    "StallEvent",
    "TranscodingProxy",
    "MobileClient",
    "StreamProtocolError",
]
