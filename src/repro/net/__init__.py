"""Real network transport for annotated streams (asyncio TCP).

The paper's Figure 1 pipeline is server → proxy → wireless hop → PDA.
Up to this layer the repo *models* that path (``repro.streaming`` computes
delivery timing without moving bytes); ``repro.net`` puts the annotated
stream on an actual socket:

* :mod:`repro.net.codec` — binary wire format: length-prefixed records
  with a fixed 32-byte header (the same ``PACKET_HEADER_BYTES`` the
  network model charges), CRC32 integrity, zero-copy frame payloads.
* :mod:`repro.net.messages` — the control-packet vocabulary (hello /
  resume / progress / requality / session / end / busy / health /
  status / stats / statsdump / error) used for session negotiation,
  flow control, mid-stream adaptation, load shedding, health probing
  and live stats scraping on the wire; hello/resume carry distributed-
  trace ids so server spans link under the client's fetch trace.  Also
  the *portable* resume-token format that lets any server over the same
  deterministic catalog adopt another server's session (fleet failover).
* :mod:`repro.net.config` — :class:`ServeConfig` / :class:`FetchOptions`,
  the frozen config objects behind the serve and fetch entry points
  (shared by the facade, the CLI and every :mod:`repro.fleet` worker).
* :mod:`repro.net.server` — :class:`AnnotationStreamServer`: hosts many
  concurrent sessions on one listening socket, each connection read
  through the codec's record protocol and each session stepping its
  compensation one chunk ahead of its socket writes, which stay within
  a progress window of what the client holds (backpressure),
  admission control with a bounded accept queue and busy-shedding,
  token-based session resume, graceful drain and clean cancellation.
* :mod:`repro.net.client` — :class:`AsyncMobileClient`: timeouts,
  exponential retry with jitter, protocol-error recovery,
  reconnect-with-resume and an optional :class:`CircuitBreaker`; plus
  :class:`BatteryClient`, which issues mid-stream ``requality`` steps
  as its modeled battery drains and its simulated light sensor changes.
* :mod:`repro.net.fault` — :class:`LossyTransport`: a deterministic
  fault-injecting TCP relay (delay / drop / truncate / corrupt /
  connection-kill / stall), parameterized from the
  :class:`~repro.streaming.network.Link` model.

Everything is instrumented through :mod:`repro.telemetry`.
"""

from .codec import (
    WIRE_HEADER_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireFormatError,
    decode_packet,
    encode_packet,
    encode_packet_bytes,
    wire_size,
)
from .config import FetchOptions, ServeConfig
from .messages import (
    MESSAGE_KINDS,
    BusyInfo,
    ControlMessage,
    EndInfo,
    HelloInfo,
    PortableTokenInfo,
    RequalityInfo,
    ResumeInfo,
    StatsRequest,
    StatusInfo,
    decode_control,
    decode_portable_token,
    encode_portable_token,
    encode_busy,
    encode_end,
    encode_error,
    encode_health,
    encode_hello,
    encode_requality,
    encode_requality_ack,
    encode_resume,
    encode_session,
    encode_stats_request,
    encode_statsdump,
    encode_status,
)
from .fault import FaultSpec, LossyTransport
from .server import (
    STATE_DRAINING,
    STATE_READY,
    STATE_STOPPED,
    AnnotationStreamServer,
)
from .client import (
    AsyncMobileClient,
    BatteryClient,
    CircuitBreaker,
    CircuitOpenError,
    FetchResult,
    LatencyStats,
    ServerBusyError,
    StreamFetchError,
    fetch_stats,
    fetch_stats_sync,
    fetch_status,
    fetch_status_sync,
)

__all__ = [
    "WIRE_HEADER_BYTES",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireFormatError",
    "encode_packet",
    "encode_packet_bytes",
    "decode_packet",
    "wire_size",
    "ServeConfig",
    "FetchOptions",
    "MESSAGE_KINDS",
    "ControlMessage",
    "HelloInfo",
    "ResumeInfo",
    "RequalityInfo",
    "EndInfo",
    "BusyInfo",
    "StatusInfo",
    "StatsRequest",
    "PortableTokenInfo",
    "decode_portable_token",
    "encode_portable_token",
    "decode_control",
    "encode_hello",
    "encode_requality",
    "encode_requality_ack",
    "encode_resume",
    "encode_session",
    "encode_end",
    "encode_busy",
    "encode_health",
    "encode_status",
    "encode_stats_request",
    "encode_statsdump",
    "encode_error",
    "FaultSpec",
    "LossyTransport",
    "AnnotationStreamServer",
    "STATE_READY",
    "STATE_DRAINING",
    "STATE_STOPPED",
    "AsyncMobileClient",
    "BatteryClient",
    "CircuitBreaker",
    "CircuitOpenError",
    "ServerBusyError",
    "FetchResult",
    "LatencyStats",
    "StreamFetchError",
    "fetch_status",
    "fetch_status_sync",
    "fetch_stats",
    "fetch_stats_sync",
]
