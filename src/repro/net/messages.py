"""Control-packet vocabulary for on-the-wire session negotiation.

The in-process model negotiates with Python objects
(:class:`~repro.streaming.session.SessionRequest` →
:class:`~repro.streaming.session.SessionDescription`); on a socket those
travel as CONTROL packets whose body is a compact JSON object with a
``kind`` tag:

* ``hello``   — client → server: clip name, requested quality, device.
* ``resume``  — client → server: a resume token plus how many data
  records the client already holds; the server continues the stream
  from that offset instead of starting over.
* ``progress`` — client → server, mid-stream: how many data records
  the client holds.  A session whose opening record set ``progress``
  writes at most :data:`PROGRESS_WINDOW` data records past that count.
* ``requality`` — bidirectional mid-stream adaptation.  Client →
  server: switch the live session to a different quality and/or
  ambient bind (at least one of the two), applied at the next scene
  boundary without tearing the connection down.  Server → client: the
  in-stream acknowledgement (``applied``, the boundary ``frame``, the
  effective quality/ambient, a re-issued resume ``token``) or a
  rejection (``error``).
* ``session`` — server → client: the accepted session description,
  plus a resume token and (on resume) the offset being continued from.
* ``end``     — server → client: stream complete; carries the emitted
  packet/frame counts so the client can verify nothing was dropped.
* ``busy``    — server → client: load shed; the server is at its
  session cap (or draining) and the client should back off for at
  least ``retry_after_s`` before reconnecting.
* ``health``  — client → server: a ``/healthz``-style probe; answered
  with ``status`` and a close, bypassing admission control.
* ``status``  — server → client: liveness/readiness snapshot (state,
  accepting flag, active/waiting session counts, cap).
* ``stats``   — client → server: a live-observability probe; like
  ``health`` it bypasses admission control, but the answer is a full
  metrics snapshot (JSON or Prometheus text), optionally with recent
  flight-recorder events and collected spans.
* ``statsdump`` — server → client: the ``stats`` answer (health dict,
  metrics snapshot, events, spans).
* ``error``   — server → client: negotiation or serving failure.

``hello`` and ``resume`` optionally carry a ``trace`` id and the
client's open ``span`` id, so server-side spans join the client's
trace (one fetch, one linked tree across the wire), and a ``progress``
flag: the client will send ``progress`` records.

JSON keeps the control plane debuggable (``tcpdump`` shows readable
records); the data plane — annotation tracks and pixels — stays binary.
Malformed control bodies raise
:class:`~repro.net.codec.WireFormatError`.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..display.ambient import as_ambient_trace
from ..streaming.packets import MediaPacket, PacketType, control_packet
from ..streaming.session import (
    ClientCapabilities,
    NegotiationError,
    SessionDescription,
    SessionRequest,
)
from ..streaming.server import WIRE_CHUNK_FRAMES
from .codec import WireFormatError

#: Every control-message kind the wire speaks, in protocol order.  The
#: doc–code sync gate (`tests/test_docs.py`) asserts this tuple and the
#: control-plane table in ``docs/protocol.md`` list exactly the same
#: kinds, so the spec cannot silently drift from the implementation.
MESSAGE_KINDS = (
    "hello",
    "resume",
    "progress",
    "requality",
    "session",
    "end",
    "busy",
    "health",
    "status",
    "stats",
    "statsdump",
    "error",
)

#: Data records a progress-reporting session may have written past the
#: count its client last reported.  It must hold the largest step a
#: session writes (a wire chunk of frames plus a re-bind annotation)
#: plus the records a report can lag by (:data:`PROGRESS_EVERY` - 1),
#: or the session would wait on a report that never comes.
PROGRESS_WINDOW = 2 * WIRE_CHUNK_FRAMES

#: A progress-reporting client reports after every this many data
#: records, and on resume through ``received``.  Each report costs
#: every process on the path a wakeup; once per wire chunk keeps that
#: cost small.
PROGRESS_EVERY = WIRE_CHUNK_FRAMES


@dataclass(frozen=True)
class HelloInfo:
    """Decoded ``hello`` message: what the client asked for.

    ``trace_id``/``parent_span_id`` (both optional) carry the client's
    distributed-trace context so server-side spans link under the
    client span that opened the connection.  ``progress`` says the
    client sends ``progress`` records (see :data:`PROGRESS_WINDOW`).
    """

    clip_name: str
    quality: float
    device_name: str
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    progress: bool = False

    def to_request(self) -> SessionRequest:
        """Rebuild the in-process session request (validates the device)."""
        return SessionRequest(
            clip_name=self.clip_name,
            quality=self.quality,
            capabilities=ClientCapabilities(device_name=self.device_name),
        )


@dataclass(frozen=True)
class ResumeInfo:
    """Decoded ``resume`` message: where the client wants to continue.

    ``received_packets`` is the number of *data* records (annotation +
    frame) the client already holds from previous connections — the
    implicit ack up to which the server may skip.
    ``trace_id``/``parent_span_id`` relink the resumed server session
    into the same client trace as the original attempt; ``progress`` is
    as for :class:`HelloInfo`.
    """

    token: str
    received_packets: int
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    progress: bool = False


@dataclass(frozen=True)
class RequalityInfo:
    """Decoded ``requality`` message (request or acknowledgement).

    A *request* (client → server) leaves ``applied`` as ``None`` and
    carries the desired ``quality`` and/or ``ambient`` spec (at least
    one).  An *acknowledgement* (server → client, emitted in-stream at
    the switch boundary) sets ``applied``; ``frame`` is the scene-start
    frame the new binding takes effect at, ``quality``/``ambient`` are
    the effective post-switch values, ``token`` is the re-issued resume
    token whose embedded switch plan lets any same-catalog shard replay
    the adapted stream, and ``error`` explains a rejection.
    """

    quality: Optional[float] = None
    ambient: Optional[str] = None
    applied: Optional[bool] = None
    frame: Optional[int] = None
    token: Optional[str] = None
    error: Optional[str] = None

    @property
    def is_request(self) -> bool:
        """True for a client-side request, False for a server ack."""
        return self.applied is None


@dataclass(frozen=True)
class EndInfo:
    """Decoded ``end`` message: the server's emitted-stream totals."""

    packet_count: int
    frame_count: int


@dataclass(frozen=True)
class BusyInfo:
    """Decoded ``busy`` message: the server shed this connection.

    ``retry_after_s`` is the server's backoff hint; ``active_sessions``
    and ``max_sessions`` describe the load that triggered the shed
    (``max_sessions`` is ``None`` when shedding was caused by a drain
    rather than the cap).
    """

    retry_after_s: float
    active_sessions: int
    max_sessions: Optional[int] = None


@dataclass(frozen=True)
class StatusInfo:
    """Decoded ``status`` message: a server health/readiness snapshot."""

    state: str
    accepting: bool
    active_sessions: int
    waiting_sessions: int
    max_sessions: Optional[int] = None


@dataclass(frozen=True)
class StatsRequest:
    """Decoded ``stats`` probe: what snapshot shape the client wants.

    ``format`` selects the metrics rendering (``json`` or
    ``prometheus``); ``include_events``/``include_spans`` additionally
    request the flight-recorder tail and the collected span events, and
    ``limit`` caps how many of each are returned (``None`` = server
    default).
    """

    format: str = "json"
    include_events: bool = False
    include_spans: bool = False
    limit: Optional[int] = None


@dataclass(frozen=True)
class ControlMessage:
    """One decoded control packet; exactly one payload field is set.

    For ``session`` messages, ``token`` carries the server-issued resume
    token and ``resumed_at`` the data-record offset the stream continues
    from (0 for a fresh session).  For ``statsdump`` messages,
    ``statsdump`` holds the server's observability snapshot dict.
    """

    kind: str
    hello: Optional[HelloInfo] = None
    session: Optional[SessionDescription] = None
    end: Optional[EndInfo] = None
    error: Optional[str] = None
    resume: Optional[ResumeInfo] = None
    requality: Optional[RequalityInfo] = None
    #: For ``progress`` messages: the data records the client holds.
    received: Optional[int] = None
    busy: Optional[BusyInfo] = None
    status: Optional[StatusInfo] = None
    stats: Optional[StatsRequest] = None
    statsdump: Optional[dict] = None
    token: Optional[str] = None
    resumed_at: int = 0


def _dump(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode_hello(
    request: SessionRequest,
    seq: int = 0,
    trace_id: Optional[str] = None,
    parent_span_id: Optional[str] = None,
    progress: bool = False,
) -> MediaPacket:
    """Build the client's opening control packet.

    ``trace_id``/``parent_span_id`` (optional) propagate the client's
    distributed-trace context so the server session links under it.
    ``progress`` promises ``progress`` records (:func:`encode_progress`).
    """
    body = {
        "kind": "hello",
        "clip": request.clip_name,
        "quality": request.quality,
        "device": request.capabilities.device_name,
    }
    _opening_options(body, trace_id, parent_span_id, progress)
    return control_packet(seq, _dump(body))


def _opening_options(body: dict, trace_id, parent_span_id, progress) -> None:
    """The optional keys ``hello`` and ``resume`` share."""
    if trace_id is not None:
        body["trace"] = trace_id
    if parent_span_id is not None:
        body["span"] = parent_span_id
    if progress:
        body["progress"] = True


def encode_resume(
    token: str,
    received_packets: int,
    seq: int = 0,
    trace_id: Optional[str] = None,
    parent_span_id: Optional[str] = None,
    progress: bool = False,
) -> MediaPacket:
    """Build the client's reconnect-with-resume control packet.

    ``token`` is the server-issued resume token from the original
    session message; ``received_packets`` is how many data records the
    client already holds (the server skips exactly that many).
    ``trace_id``/``parent_span_id`` relink the resumed server session
    into the client's trace; ``progress`` is as for :func:`encode_hello`.
    """
    if received_packets < 0:
        raise ValueError("received_packets must be non-negative")
    body = {
        "kind": "resume",
        "token": token,
        "received": received_packets,
    }
    _opening_options(body, trace_id, parent_span_id, progress)
    return control_packet(seq, _dump(body))


def encode_progress(received: int, seq: int = 0) -> MediaPacket:
    """Build the client's mid-stream report of the data records it holds."""
    if received < 0:
        raise ValueError("received must be non-negative")
    return control_packet(seq, _dump({"kind": "progress", "received": received}))


def encode_requality(
    quality: Optional[float] = None,
    ambient: Optional[str] = None,
    seq: int = 0,
) -> MediaPacket:
    """Build the client's mid-stream adaptation request.

    At least one of ``quality`` (a new target level in [0, 1]) and
    ``ambient`` (a preset name or numeric illuminance spec) must be
    given; the server re-binds the live session at the next scene
    boundary and acknowledges in-stream.
    """
    if quality is None and ambient is None:
        raise ValueError("requality needs a quality and/or an ambient")
    body: dict = {"kind": "requality"}
    if quality is not None:
        if not 0.0 <= quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {quality}")
        body["quality"] = float(quality)
    if ambient is not None:
        body["ambient"] = str(ambient)
    return control_packet(seq, _dump(body))


def encode_requality_ack(
    applied: bool,
    frame: int,
    quality: Optional[float] = None,
    ambient: Optional[str] = None,
    token: Optional[str] = None,
    error: Optional[str] = None,
    seq: int = 0,
) -> MediaPacket:
    """Build the server's in-stream answer to a ``requality`` request.

    ``frame`` is the scene boundary the switch takes effect at (or the
    current position for a rejection); ``token`` re-issues the resume
    token with the applied switch embedded so failover replays the
    adapted stream.
    """
    if frame < 0:
        raise ValueError("frame must be non-negative")
    body: dict = {
        "kind": "requality",
        "applied": bool(applied),
        "frame": int(frame),
    }
    if quality is not None:
        body["quality"] = float(quality)
    if ambient is not None:
        body["ambient"] = str(ambient)
    if token is not None:
        body["token"] = token
    if error is not None:
        body["error"] = str(error)
    return control_packet(seq, _dump(body))


def encode_session(
    session: SessionDescription,
    seq: int,
    token: Optional[str] = None,
    resumed_at: int = 0,
) -> MediaPacket:
    """Build the server's accepted-session control packet.

    ``token`` (see :func:`encode_portable_token`) lets the client
    reconnect after a drop; ``resumed_at`` tells a resuming client the
    data-record offset the stream continues from.
    """
    body = {
        "kind": "session",
        "session_id": session.session_id,
        "clip": session.clip_name,
        "quality": session.quality,
        "device": session.device_name,
        "fps": session.fps,
        "frame_count": session.frame_count,
    }
    if token is not None:
        body["token"] = token
    if resumed_at:
        body["resumed_at"] = resumed_at
    return control_packet(seq, _dump(body))


def encode_end(packet_count: int, frame_count: int, seq: int) -> MediaPacket:
    """Build the server's end-of-stream control packet."""
    return control_packet(seq, _dump({
        "kind": "end",
        "packet_count": packet_count,
        "frame_count": frame_count,
    }))


def encode_busy(
    retry_after_s: float,
    active_sessions: int,
    max_sessions: Optional[int] = None,
    seq: int = 0,
) -> MediaPacket:
    """Build the server's load-shed (BUSY / RETRY_AFTER) control packet."""
    if retry_after_s < 0:
        raise ValueError("retry_after_s must be non-negative")
    return control_packet(seq, _dump({
        "kind": "busy",
        "retry_after_s": retry_after_s,
        "active": active_sessions,
        "max": max_sessions,
    }))


def encode_health(seq: int = 0) -> MediaPacket:
    """Build the client's ``/healthz``-style probe control packet."""
    return control_packet(seq, _dump({"kind": "health"}))


def encode_status(
    state: str,
    accepting: bool,
    active_sessions: int,
    waiting_sessions: int,
    max_sessions: Optional[int] = None,
    seq: int = 0,
) -> MediaPacket:
    """Build the server's health/readiness answer to a ``health`` probe."""
    return control_packet(seq, _dump({
        "kind": "status",
        "state": state,
        "accepting": bool(accepting),
        "active": active_sessions,
        "waiting": waiting_sessions,
        "max": max_sessions,
    }))


def encode_stats_request(
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
    seq: int = 0,
) -> MediaPacket:
    """Build the client's live-observability probe control packet.

    ``format`` selects the metrics rendering (``json``/``prometheus``);
    ``include_events``/``include_spans`` request the flight-recorder
    tail and collected spans, ``limit`` caps how many of each come back.
    """
    if format not in ("json", "prometheus"):
        raise ValueError(f"unknown stats format {format!r}")
    body: dict = {"kind": "stats", "format": format}
    if include_events:
        body["events"] = True
    if include_spans:
        body["spans"] = True
    if limit is not None:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        body["limit"] = int(limit)
    return control_packet(seq, _dump(body))


def encode_statsdump(payload: dict, seq: int = 0) -> MediaPacket:
    """Build the server's answer to a ``stats`` probe.

    ``payload`` is the JSON-serializable observability snapshot
    (``health``, ``metrics``/``prometheus``, optional ``events`` and
    ``spans`` keys).
    """
    body = {"kind": "statsdump"}
    body.update(payload)
    return control_packet(seq, _dump(body))


def encode_error(message: str, seq: int) -> MediaPacket:
    """Build the server's failure control packet."""
    return control_packet(seq, _dump({"kind": "error", "message": message}))


def decode_control(packet: MediaPacket) -> ControlMessage:
    """Parse a CONTROL packet body into a :class:`ControlMessage`."""
    if packet.ptype is not PacketType.CONTROL:
        raise WireFormatError(f"expected a control packet, got {packet.ptype.value}")
    try:
        obj = json.loads(packet.payload.decode("utf-8"))
        kind = obj["kind"]
        if kind == "hello":
            trace_id = obj.get("trace")
            span_id = obj.get("span")
            return ControlMessage(kind=kind, hello=HelloInfo(
                clip_name=str(obj["clip"]),
                quality=float(obj["quality"]),
                device_name=str(obj["device"]),
                trace_id=None if trace_id is None else str(trace_id),
                parent_span_id=None if span_id is None else str(span_id),
                progress=obj.get("progress") is True,
            ))
        if kind == "resume":
            received = int(obj["received"])
            if received < 0:
                raise WireFormatError("resume with a negative received count")
            trace_id = obj.get("trace")
            span_id = obj.get("span")
            return ControlMessage(kind=kind, resume=ResumeInfo(
                token=str(obj["token"]),
                received_packets=received,
                trace_id=None if trace_id is None else str(trace_id),
                parent_span_id=None if span_id is None else str(span_id),
                progress=obj.get("progress") is True,
            ))
        if kind == "progress":
            received = obj["received"]
            if (isinstance(received, bool) or not isinstance(received, int)
                    or received < 0):
                raise WireFormatError(
                    f"progress needs a non-negative integer count, "
                    f"got {received!r}"
                )
            return ControlMessage(kind=kind, received=received)
        if kind == "requality":
            quality = obj.get("quality")
            if quality is not None:
                quality = float(quality)
                if not 0.0 <= quality <= 1.0:
                    raise WireFormatError(
                        f"requality quality out of range: {quality}"
                    )
            ambient = obj.get("ambient")
            applied = obj.get("applied")
            frame = obj.get("frame")
            if applied is None:
                if quality is None and ambient is None:
                    raise WireFormatError(
                        "requality request without a quality or ambient"
                    )
            elif frame is None or int(frame) < 0:
                raise WireFormatError("requality ack without a valid frame")
            token = obj.get("token")
            error = obj.get("error")
            return ControlMessage(kind=kind, requality=RequalityInfo(
                quality=quality,
                ambient=None if ambient is None else str(ambient),
                applied=None if applied is None else bool(applied),
                frame=None if frame is None else int(frame),
                token=None if token is None else str(token),
                error=None if error is None else str(error),
            ))
        if kind == "session":
            resumed_at = int(obj.get("resumed_at", 0))
            token = obj.get("token")
            return ControlMessage(
                kind=kind,
                session=SessionDescription(
                    session_id=int(obj["session_id"]),
                    clip_name=str(obj["clip"]),
                    quality=float(obj["quality"]),
                    device_name=str(obj["device"]),
                    fps=float(obj["fps"]),
                    frame_count=int(obj["frame_count"]),
                ),
                token=None if token is None else str(token),
                resumed_at=resumed_at,
            )
        if kind == "busy":
            max_sessions = obj.get("max")
            return ControlMessage(kind=kind, busy=BusyInfo(
                retry_after_s=float(obj["retry_after_s"]),
                active_sessions=int(obj["active"]),
                max_sessions=None if max_sessions is None else int(max_sessions),
            ))
        if kind == "health":
            return ControlMessage(kind=kind)
        if kind == "stats":
            fmt = str(obj.get("format", "json"))
            if fmt not in ("json", "prometheus"):
                raise WireFormatError(f"unknown stats format {fmt!r}")
            limit = obj.get("limit")
            if limit is not None:
                limit = int(limit)
                if limit < 0:
                    raise WireFormatError("stats with a negative limit")
            return ControlMessage(kind=kind, stats=StatsRequest(
                format=fmt,
                include_events=bool(obj.get("events", False)),
                include_spans=bool(obj.get("spans", False)),
                limit=limit,
            ))
        if kind == "statsdump":
            payload = {k: v for k, v in obj.items() if k != "kind"}
            return ControlMessage(kind=kind, statsdump=payload)
        if kind == "status":
            max_sessions = obj.get("max")
            return ControlMessage(kind=kind, status=StatusInfo(
                state=str(obj["state"]),
                accepting=bool(obj["accepting"]),
                active_sessions=int(obj["active"]),
                waiting_sessions=int(obj["waiting"]),
                max_sessions=None if max_sessions is None else int(max_sessions),
            ))
        if kind == "end":
            return ControlMessage(kind=kind, end=EndInfo(
                packet_count=int(obj["packet_count"]),
                frame_count=int(obj["frame_count"]),
            ))
        if kind == "error":
            return ControlMessage(kind=kind, error=str(obj["message"]))
    except WireFormatError:
        raise
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"malformed control body: {exc}") from exc
    raise WireFormatError(f"unknown control message kind {kind!r}")


def raise_for_error(message: ControlMessage) -> ControlMessage:
    """Turn a server ``error`` message into a :class:`NegotiationError`."""
    if message.kind == "error":
        raise NegotiationError(f"server rejected the session: {message.error}")
    return message


# ----------------------------------------------------------------------
# Portable resume tokens
# ----------------------------------------------------------------------
#: Version prefix of portable resume tokens.
PORTABLE_TOKEN_PREFIX = "p1"


@dataclass(frozen=True)
class PortableTokenInfo:
    """The session request embedded in a portable resume token.

    A token carries the (clip, quality, device) triple that opened the
    session, plus its applied switch plan.  Because annotated streams
    are deterministic functions of those, **any** server holding the
    same catalog can honor the token and replay the stream
    byte-identically, with no resume state of its own.  This is also
    how the sharded fleet (:mod:`repro.fleet`) survives a shard death:
    the router re-routes the client's resume to a replica shard and the
    replica rebuilds the session from the token alone.
    """

    clip_name: str
    quality: float
    device_name: str
    #: Applied mid-stream switches, oldest first: ``(frame, quality,
    #: ambient_spec_or_None)``.  ``quality`` above stays the *opening*
    #: quality (so the head annotation replays identically); a replica
    #: adopting the token replays each switch at exactly its recorded
    #: frame, reproducing the adapted stream byte for byte.
    switches: Tuple[Tuple[int, float, Optional[str]], ...] = ()

    def to_request(self) -> SessionRequest:
        """Rebuild the session request the token was issued for."""
        return SessionRequest(
            clip_name=self.clip_name,
            quality=self.quality,
            capabilities=ClientCapabilities(device_name=self.device_name),
        )


def encode_portable_token(
    clip_name: str, quality: float, device_name: str,
    switches: Sequence[Tuple[int, float, Optional[str]]] = (),
) -> str:
    """The portable resume token of one session.

    The token is ``p1.<base64 session request>``, a pure function of its
    arguments: any server holding the same catalog can honor it (see
    :class:`PortableTokenInfo`).  ``switches`` embeds the session's
    applied mid-stream requality plan (oldest first), so tokens
    re-issued after adaptation replay the adapted stream byte-identically.
    The token is not signed: it reveals, and lets a client choose, only
    what a ``hello`` could ask for anyway.
    """
    body_obj: dict = {
        "c": clip_name,
        "q": quality,
        "d": device_name,
    }
    if switches:
        body_obj["s"] = [
            [int(frame), float(q), ambient]
            for frame, q, ambient in switches
        ]
    body = _dump(body_obj)
    encoded = base64.urlsafe_b64encode(body).decode("ascii").rstrip("=")
    return f"{PORTABLE_TOKEN_PREFIX}.{encoded}"


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def decode_portable_token(token: str) -> Optional[PortableTokenInfo]:
    """Parse a portable resume token; ``None`` for anything else.

    Opaque random tokens, the earlier ``p1.<body>.<suffix>`` form,
    truncated or tampered tokens, and tokens from future format
    versions all return ``None`` (the server answers ``error`` and the
    client refetches), never raise.  The embedded switch plan is
    checked here, because a resumed producer trusts it: frames must be
    non-negative integers in strictly increasing order, qualities
    finite, and every ambient spec must parse.  (Whether the frames lie
    inside the clip is up to the server honoring the token.)
    """
    prefix, _, encoded = token.partition(".")
    if prefix != PORTABLE_TOKEN_PREFIX or "." in encoded:
        return None
    try:
        padded = encoded + "=" * (-len(encoded) % 4)
        obj = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
        if not isinstance(obj, dict):
            return None
        switches = []
        last = -1
        for entry in obj.get("s", []):
            frame, q, ambient = entry
            if (isinstance(frame, bool) or not isinstance(frame, int)
                    or frame <= last):
                return None
            if ambient is not None:
                ambient = str(ambient)
                as_ambient_trace(ambient)  # ValueError when malformed
            switches.append((frame, _finite(q), ambient))
            last = frame
        return PortableTokenInfo(
            clip_name=str(obj["c"]),
            quality=_finite(obj["q"]),
            device_name=str(obj["d"]),
            switches=tuple(switches),
        )
    except (ValueError, KeyError, TypeError, binascii.Error,
            UnicodeDecodeError, RecursionError):
        return None
