"""`AsyncMobileClient`: fetch annotated streams over the wire, robustly.

The receive side of :mod:`repro.net`.  A fetch opens a TCP connection,
sends the hello, reads the session description, then drains annotation
and frame records until the server's ``end`` control message.  The
hello (or resume) opts in to progress reports: every
:data:`~repro.net.messages.PROGRESS_EVERY` data records the client
tells the server how many it holds, and the server writes at most
:data:`~repro.net.messages.PROGRESS_WINDOW` past that, so a live switch
is polled near the frame the client is playing.  Every failure mode
maps to a recovery path:

* connect/read **timeouts** (``connect_timeout_s`` / ``read_timeout_s``),
* **transport errors** (reset, refused, mid-record close),
* **protocol errors** (CRC mismatch, malformed records, missing frames,
  wrong counts in ``end``),
* **load shedding** — a server ``busy`` message makes the client honor
  the carried retry-after hint before reconnecting,
* **mid-stream drops** — when the server issued a resume token, the
  retry loop becomes a *reconnect-with-resume* state machine: the next
  attempt presents the token plus the count of records already received
  and continues from that offset instead of starting over.  If the
  server rejects the token (it does not decode, or names content the
  server cannot serve), the client falls back to a fresh fetch.  Annotated streams are deterministic, so a
  resumed stream is byte-identical to an uninterrupted one.

An attempt that delivered at least one data record and holds a resume
token is followed by an immediate reconnect: the server was up, and the
token continues where it stopped.  Every other failed attempt (nothing
delivered, or a next attempt that must refetch from scratch) backs off,
exponentially with jitter (seedable for deterministic tests), counted
over the run of such attempts; a resumable one restarts the run.  An optional
:class:`CircuitBreaker` trips after a configurable run of consecutive
failures, failing fast for a cooldown period instead of hammering a
dead server.  Negotiation rejections (unknown
clip/device) are *not* retried: the server answered authoritatively.

Playback is unchanged from the in-process path: the fetched packets feed
:meth:`~repro.streaming.client.MobileClient.play_stream`, so everything
the paper's client does (backlight schedule, power accounting) applies
byte-identically to wire-delivered streams.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.policy import QUALITY_LEVELS
from ..display.ambient import AMBIENT_BY_NAME, DARK_ROOM, as_ambient_trace
from ..display.devices import DeviceProfile
from ..power.battery import Battery, LoadTrace
from ..player.playback import PlaybackResult
from ..streaming.client import MobileClient, StreamProtocolError
from ..streaming.packets import MediaPacket, PacketType
from ..streaming.session import NegotiationError, SessionDescription
from ..telemetry import (
    emit_span,
    record_event,
    registry as telemetry_registry,
    trace,
)
from .codec import WireFormatError, encode_packet_bytes, open_records
from .messages import (
    PROGRESS_EVERY,
    RequalityInfo,
    StatusInfo,
    decode_control,
    encode_health,
    encode_hello,
    encode_progress,
    encode_requality,
    encode_resume,
    encode_stats_request,
    raise_for_error,
)


class StreamFetchError(ConnectionError):
    """A fetch ran out of retries; carries the last underlying failure."""


class ServerBusyError(ConnectionError):
    """The server shed the connection with a busy message.

    ``retry_after_s`` is the server's minimum-backoff hint; the retry
    loop sleeps at least that long before reconnecting.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(StreamFetchError):
    """The circuit breaker is open: failing fast instead of connecting."""


class CircuitBreaker:
    """Trip after N consecutive failures, fail fast for a cooldown.

    States follow the classic pattern: *closed* (attempts flow),
    *open* (attempts raise :class:`CircuitOpenError` until
    ``reset_after_s`` has elapsed), then *half-open* (one trial attempt
    is allowed; success closes the circuit, failure re-opens it).

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker.  Must be >= 1.
    reset_after_s:
        Cooldown before a trial attempt is allowed.
    clock:
        Monotonic time source; injectable for deterministic tests.

    Raises
    ------
    ValueError
        If ``failure_threshold`` < 1 or ``reset_after_s`` < 0.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s < 0:
            raise ValueError("reset_after_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._failures = 0
        self._open_until: Optional[float] = None

    @property
    def consecutive_failures(self) -> int:
        """Failures recorded since the last success."""
        return self._failures

    @property
    def is_open(self) -> bool:
        """True while attempts would fail fast (cooldown not elapsed)."""
        return self._open_until is not None and self._clock() < self._open_until

    def before_attempt(self) -> None:
        """Gate an attempt: raises :class:`CircuitOpenError` while open."""
        if self.is_open:
            remaining = self._open_until - self._clock()
            raise CircuitOpenError(
                f"circuit breaker open after {self._failures} consecutive "
                f"failures; retry allowed in {remaining:.2f}s"
            )

    def record_failure(self) -> None:
        """Count a failed attempt; trips the breaker at the threshold."""
        self._failures += 1
        if self._failures >= self.failure_threshold:
            if self._open_until is None:
                record_event("breaker_open", failures=self._failures,
                             reset_after_s=self.reset_after_s)
            self._open_until = self._clock() + self.reset_after_s

    def record_success(self) -> None:
        """Close the circuit and forget the failure run."""
        if self._open_until is not None:
            record_event("breaker_close", failures=self._failures)
        self._failures = 0
        self._open_until = None


@dataclass(frozen=True)
class LatencyStats:
    """Per-session delivery latency measured against the playout clock.

    ``ttff_s`` is time-to-first-frame from the start of :meth:`fetch`
    (connection setup, retries and annotation records included — the
    user-visible startup delay).  ``mean_gap_s``/``max_gap_s``
    summarize inter-frame arrival gaps.  ``deadline_misses`` counts
    frames that arrived after their playout deadline under the model
    used by :class:`~repro.streaming.network.DeliverySchedule`:
    playback starts when the first frame lands, frame ``i`` is due at
    ``first_arrival + i / fps``.
    """

    ttff_s: float
    mean_gap_s: float
    max_gap_s: float
    deadline_misses: int
    frame_count: int

    @classmethod
    def from_arrivals(
        cls, start_s: float, arrivals: List[float], fps: float
    ) -> Optional["LatencyStats"]:
        """Derive the stats from raw arrival timestamps.

        Parameters
        ----------
        start_s:
            ``perf_counter`` timestamp when the fetch began.
        arrivals:
            Per-frame ``perf_counter`` arrival timestamps, in
            presentation order.
        fps:
            The clip's playout rate (deadline spacing).  Must be > 0.

        Returns ``None`` when no frames arrived.
        """
        if not arrivals:
            return None
        if fps <= 0:
            raise ValueError("fps must be positive")
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        first = arrivals[0]
        interval = 1.0 / fps
        misses = sum(
            1 for i, t in enumerate(arrivals) if t - first > i * interval
        )
        return cls(
            ttff_s=first - start_s,
            mean_gap_s=(sum(gaps) / len(gaps)) if gaps else 0.0,
            max_gap_s=max(gaps) if gaps else 0.0,
            deadline_misses=misses,
            frame_count=len(arrivals),
        )


@dataclass(frozen=True)
class FetchResult:
    """One successfully fetched stream.

    ``packets`` holds the data-plane sequence exactly as the in-process
    :meth:`~repro.streaming.server.MediaServer.stream` would have yielded
    it (annotation packets first, then frames in presentation order);
    control traffic is consumed by the protocol and not included.
    ``attempts`` counts connections made and ``resumes`` how many of
    them continued mid-stream via a resume token.  ``latency`` carries
    the per-session :class:`LatencyStats` (``None`` with telemetry
    disabled) and ``trace_id`` the distributed trace the fetch's spans
    were recorded under (``None`` with telemetry disabled).
    ``requalities`` holds the mid-stream ``requality`` acknowledgements
    in arrival order — each applied entry marks the frame a re-bound
    annotation (present in ``packets``) took effect at.
    """

    session: SessionDescription
    packets: List[MediaPacket]
    attempts: int
    resumes: int = 0
    latency: Optional[LatencyStats] = None
    trace_id: Optional[str] = None
    requalities: Tuple[RequalityInfo, ...] = ()

    @property
    def frame_count(self) -> int:
        """Number of frame packets fetched."""
        return sum(1 for p in self.packets if p.ptype is PacketType.FRAME)


@dataclass
class _FetchProgress:
    """Mutable reconnect state threaded through the retry loop."""

    session: Optional[SessionDescription] = None
    token: Optional[str] = None
    packets: List[MediaPacket] = field(default_factory=list)
    frames_seen: int = 0
    resumes: int = 0
    started_s: float = 0.0
    frame_arrivals: List[float] = field(default_factory=list)
    decode_s: float = 0.0
    #: Data records the current attempt delivered; the retry loop
    #: reconnects at once after one that delivered any and can resume.
    delivered: int = 0
    requalities: List[RequalityInfo] = field(default_factory=list)
    # Scratch for adaptive clients (_advise): last requested quality /
    # ambient, thresholds crossed.  Survives a resume, like packets.
    adapt: dict = field(default_factory=dict)

    @property
    def resumable(self) -> bool:
        """Whether the next attempt can present a resume token."""
        return self.token is not None and self.session is not None

    def reset(self) -> None:
        """Discard partial state; the next attempt starts fresh.

        ``started_s`` and ``decode_s`` survive: time-to-first-frame is
        measured from the original fetch start, and decode cost
        aggregates across attempts.
        """
        self.session = None
        self.token = None
        self.packets = []
        self.frames_seen = 0
        self.frame_arrivals = []
        self.requalities = []
        self.adapt = {}


class _ResumeRejected(Exception):
    """The server refused our resume token; retry from scratch."""


class AsyncMobileClient:
    """Asyncio client fetching annotated streams from an
    :class:`~repro.net.server.AnnotationStreamServer`.

    Parameters
    ----------
    device:
        The handheld's profile; advertised in the hello and used for
        playback.
    connect_timeout_s / read_timeout_s:
        Deadline for establishing a connection / for each record read.
    max_retries:
        How many times a failed fetch is re-attempted (0 = single shot).
    backoff_base_s / backoff_max_s / jitter_s:
        Exponential backoff: the ``k``-th consecutive attempt that
        could not resume (0-based) is followed by a sleep of
        ``min(base * 2**k, max) + uniform(0, jitter)``.  An attempt that
        delivered data and can resume is followed by an immediate
        reconnect; one that would refetch from scratch backs off like
        an empty one.
    rng:
        Jitter source; pass a seeded :class:`random.Random` for
        deterministic schedules in tests.
    resume:
        When True (default), a mid-stream drop reconnects with the
        server-issued resume token and continues from the last received
        record instead of refetching from scratch.
    circuit_breaker:
        Optional :class:`CircuitBreaker` shared across fetches; when
        open, :meth:`fetch` raises :class:`CircuitOpenError`
        immediately.  ``None`` disables fail-fast behavior.

    Raises
    ------
    ValueError
        If any timeout/backoff parameter is out of range.
    """

    def __init__(
        self,
        device: DeviceProfile,
        connect_timeout_s: float = 5.0,
        read_timeout_s: float = 30.0,
        max_retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter_s: float = 0.05,
        rng: Optional[random.Random] = None,
        resume: bool = True,
        circuit_breaker: Optional[CircuitBreaker] = None,
    ):
        if connect_timeout_s <= 0 or read_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base_s < 0 or backoff_max_s < 0 or jitter_s < 0:
            raise ValueError("backoff parameters must be non-negative")
        self.device = device
        self.connect_timeout_s = connect_timeout_s
        self.read_timeout_s = read_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter_s = jitter_s
        self.rng = rng if rng is not None else random.Random()
        self.resume = resume
        self.circuit_breaker = circuit_breaker
        self._player = MobileClient(device)
        reg = telemetry_registry()
        self._retries_counter = reg.counter(
            "repro_net_client_retries_total",
            help="Fetch attempts retried after a transport/protocol failure.",
        )
        self._protocol_errors_counter = reg.counter(
            "repro_net_client_protocol_errors_total",
            help="Wire protocol violations observed by clients.",
        )
        self._fetches_counter = reg.counter(
            "repro_net_client_fetches_total", help="Streams fetched successfully.",
        )
        self._resumes_counter = reg.counter(
            "repro_net_client_resumes_total",
            help="Reconnects that continued a stream via a resume token.",
        )
        self._busy_counter = reg.counter(
            "repro_net_client_busy_total",
            help="Connections shed by a busy server (client backed off).",
        )
        self._circuit_open_counter = reg.counter(
            "repro_net_client_circuit_open_total",
            help="Fetches failed fast because the circuit breaker was open.",
        )
        self._ttff_hist = reg.histogram(
            "repro_net_client_ttff_seconds",
            help="Time from fetch start to the first frame record.",
        )
        self._frame_gap_hist = reg.histogram(
            "repro_net_client_frame_gap_seconds",
            help="Inter-frame arrival gaps observed by clients.",
        )
        self._deadline_miss_counter = reg.counter(
            "repro_net_client_deadline_misses_total",
            help="Frames that arrived after their playout deadline "
                 "(playback anchored at first-frame arrival, 1/fps spacing).",
        )
        self._requality_counter = reg.counter(
            "repro_net_client_requalities_total",
            help="Mid-stream requality requests sent to servers.",
        )

    # ------------------------------------------------------------------
    def backoff_s(self, attempt: int) -> float:
        """Sleep after the ``attempt``-th (0-based) consecutive attempt
        that could not resume: exponential + jitter."""
        base = min(self.backoff_base_s * (2 ** attempt), self.backoff_max_s)
        return base + self.rng.uniform(0.0, self.jitter_s)

    async def _open_stream(self, host, port, clip_name, quality, progress,
                           attempt: int = 0):
        """Connect and negotiate; returns the connection mid-protocol.

        Presents a resume token when ``progress`` carries one, a fresh
        hello otherwise.  The opening message carries the active trace
        id plus this connect span's id, so the server's spans link
        under this attempt.  Raises :class:`ServerBusyError` on load
        shed and :class:`_ResumeRejected` when the server refuses the
        token.
        """
        resuming = self.resume and progress.resumable
        with trace("net.connect") as span:
            if span is not None:
                span.set_tag("attempt", attempt)
                if resuming:
                    span.set_tag("resuming", True)
            trace_id = None if span is None else span.trace_id
            span_id = None if span is None else span.span_id
            conn = await asyncio.wait_for(
                open_records(host, port), timeout=self.connect_timeout_s
            )
            try:
                if resuming:
                    opening = encode_resume(progress.token, len(progress.packets),
                                            trace_id=trace_id,
                                            parent_span_id=span_id,
                                            progress=True)
                else:
                    progress.reset()
                    request = self._player.request(clip_name, quality)
                    opening = encode_hello(request, trace_id=trace_id,
                                           parent_span_id=span_id,
                                           progress=True)
                conn.write(encode_packet_bytes(opening))
                await conn.drain()

                first = await conn.read_packet(self.read_timeout_s)
                if first is None:
                    raise WireFormatError("server closed before answering the hello")
                message = decode_control(first)
                if message.kind == "busy":
                    busy = message.busy
                    raise ServerBusyError(
                        f"server busy ({busy.active_sessions} active"
                        + (f" of {busy.max_sessions}" if busy.max_sessions else "")
                        + f"); retry after {busy.retry_after_s:.2f}s",
                        retry_after_s=busy.retry_after_s,
                    )
                try:
                    message = raise_for_error(message)
                except NegotiationError:
                    if resuming:
                        raise _ResumeRejected() from None
                    raise
                if message.kind != "session":
                    raise WireFormatError(
                        f"expected a session message, got {message.kind!r}"
                    )
                if resuming:
                    if message.resumed_at != len(progress.packets):
                        raise WireFormatError(
                            f"server resumed at {message.resumed_at}, client "
                            f"holds {len(progress.packets)} records"
                        )
                    progress.resumes += 1
                    self._resumes_counter.inc()
                else:
                    progress.session = message.session
                    progress.token = message.token if self.resume else None
                if span is not None and progress.session is not None:
                    span.set_tag("session_id", progress.session.session_id)
                return conn
            except BaseException:
                await conn.close()
                raise

    async def _fetch_once(
        self, host: str, port: int, clip_name: str, quality: float,
        progress: _FetchProgress, attempt: int = 0,
    ) -> FetchResult:
        """One connection's worth of fetching, continuing ``progress``."""
        conn = await self._open_stream(
            host, port, clip_name, quality, progress, attempt=attempt
        )
        try:
            packets = progress.packets
            while True:
                packet = await conn.read_packet(self.read_timeout_s)
                if packet is None:
                    raise WireFormatError("server closed before end-of-stream")
                if packet.ptype is PacketType.CONTROL:
                    message = raise_for_error(decode_control(packet))
                    if message.kind == "requality":
                        self._handle_requality_ack(message.requality, progress)
                        continue  # control traffic: not a data record
                    if message.kind != "end":
                        raise WireFormatError(
                            f"unexpected control message {message.kind!r} "
                            f"mid-stream"
                        )
                    if len(packets) != message.end.packet_count:
                        raise WireFormatError(
                            f"stream carried {len(packets)} records, server "
                            f"emitted {message.end.packet_count}"
                        )
                    if progress.frames_seen != message.end.frame_count:
                        raise WireFormatError(
                            f"stream carried {progress.frames_seen} frames, "
                            f"server emitted {message.end.frame_count}"
                        )
                    break
                if packet.ptype is PacketType.FRAME:
                    if packet.frame_index != progress.frames_seen:
                        raise WireFormatError(
                            f"frame {packet.frame_index} arrived, expected "
                            f"{progress.frames_seen} (record dropped in transit?)"
                        )
                    progress.frames_seen += 1
                    progress.frame_arrivals.append(perf_counter())
                # An annotation record after frames is a mid-stream
                # re-bind marker (requality): the full replacement track
                # for the frames that follow.  Kept in ``packets`` —
                # playback overlays it from its arrival position.
                packets.append(packet)
                progress.delivered += 1
                if len(packets) % PROGRESS_EVERY == 0:
                    # No drain: a few bytes per report, and the server
                    # reads them as they come.
                    conn.write(encode_packet_bytes(encode_progress(len(packets))))
                advice = self._advise(progress)
                if advice is not None:
                    quality_req, ambient_req = advice
                    conn.write(encode_packet_bytes(
                        encode_requality(
                            quality=quality_req, ambient=ambient_req
                        )
                    ))
                    await conn.drain()
                    self._requality_counter.inc()
                    record_event(
                        "client_requality_request",
                        quality=quality_req, ambient=ambient_req,
                        frame=progress.frames_seen,
                    )
            return FetchResult(
                session=progress.session,
                packets=packets,
                attempts=1,
                resumes=progress.resumes,
                requalities=tuple(progress.requalities),
            )
        finally:
            progress.decode_s += conn.decode_s
            await conn.close()

    def _handle_requality_ack(
        self, info: Optional[RequalityInfo], progress: _FetchProgress
    ) -> None:
        """Fold a mid-stream ``requality`` acknowledgement into progress.

        An applied ack updates the resume token (the server re-issues
        the token with the switch plan embedded) and the adaptive
        state's authoritative quality/ambient, and confirms the fields of
        the outstanding request it matches — an unconfirmed request is
        sent again after a resume; a rejected ack (no scene boundary
        left) is recorded but changes nothing.
        """
        if info is None or info.is_request:
            raise WireFormatError("malformed requality message from server")
        progress.requalities.append(info)
        if info.applied:
            if info.token is not None and self.resume:
                progress.token = info.token
            if info.quality is not None:
                progress.adapt["quality"] = info.quality
            if info.ambient is not None:
                progress.adapt["ambient"] = info.ambient
            unacked = progress.adapt.get("unacked")
            if unacked is not None:
                # The ack may answer an earlier request than the latest;
                # only the fields it matches are confirmed.
                quality, ambient = unacked
                if quality is not None and info.quality is not None \
                        and abs(quality - info.quality) <= 1e-9:
                    quality = None
                if ambient == info.ambient:
                    ambient = None
                progress.adapt["unacked"] = (quality, ambient)
        record_event(
            "client_requality_ack", applied=bool(info.applied),
            frame=info.frame, quality=info.quality, ambient=info.ambient,
        )

    def _advise(
        self, progress: _FetchProgress
    ) -> Optional[Tuple[Optional[float], Optional[str]]]:
        """Adaptation hook, called once per received data record.

        Subclasses (see :class:`BatteryClient`) return
        ``(quality, ambient)`` — either may be ``None`` — to send a
        mid-stream ``requality`` request; the base client never adapts.
        Decisions must be driven by *modeled* playback time
        (``frames_seen / fps``), not wall clock, so adaptive fetches
        stay deterministic.
        """
        return None

    async def fetch(
        self, host: str, port: int, clip_name: str, quality: float
    ) -> FetchResult:
        """Fetch one annotated stream, retrying on transient failures.

        A failed attempt that delivered data records and holds a resume
        token reconnects at once, resuming from the last received
        record; any other backs off exponentially, counted over the
        consecutive run of such attempts; ``busy``
        sheds wait at least the server's retry-after hint.  Raises
        :class:`~repro.streaming.session.NegotiationError` on
        authoritative rejection, :class:`CircuitOpenError` when the
        breaker is open, and :class:`StreamFetchError` after exhausting
        ``max_retries``.
        """
        last_error: Optional[BaseException] = None
        progress = _FetchProgress(started_s=perf_counter())
        breaker = self.circuit_breaker
        with trace("net.fetch") as fetch_span:
            if fetch_span is not None:
                fetch_span.set_tag("clip", clip_name)
                fetch_span.set_tag("quality", quality)
            # Consecutive failed attempts that could not resume.
            idle = 0
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._retries_counter.inc()
                    # A drop after data means the server is up: resume
                    # at once.  An attempt that delivered nothing, or
                    # one that cannot resume and so starts over, backs
                    # off, counted over the run of such attempts.
                    resuming = (progress.delivered and self.resume
                                and progress.resumable)
                    idle = 0 if resuming else idle + 1
                    delay = self.backoff_s(idle - 1) if idle else 0.0
                    if isinstance(last_error, ServerBusyError):
                        delay = max(delay, last_error.retry_after_s)
                    if delay:
                        await asyncio.sleep(delay)
                    emit_span("net.retry", delay,
                              tags={"attempt": attempt,
                                    "cause": type(last_error).__name__})
                progress.delivered = 0
                if breaker is not None:
                    try:
                        breaker.before_attempt()
                    except CircuitOpenError:
                        self._circuit_open_counter.inc()
                        raise
                try:
                    result = await self._fetch_once(
                        host, port, clip_name, quality, progress,
                        attempt=attempt,
                    )
                    self._fetches_counter.inc()
                    if breaker is not None:
                        breaker.record_success()
                    latency = self._finish_latency(progress, result.session)
                    if fetch_span is not None:
                        fetch_span.set_tag("session_id",
                                           result.session.session_id)
                        fetch_span.set_tag("attempts", attempt + 1)
                        emit_span("net.decode", progress.decode_s,
                                  tags={"session_id":
                                        result.session.session_id})
                    return FetchResult(
                        session=result.session,
                        packets=result.packets,
                        attempts=attempt + 1,
                        resumes=result.resumes,
                        latency=latency,
                        trace_id=(None if fetch_span is None
                                  else fetch_span.trace_id),
                        requalities=result.requalities,
                    )
                except NegotiationError:
                    raise  # authoritative rejection; retrying cannot help
                except _ResumeRejected:
                    # The server cannot honor the token: start over.
                    progress.reset()
                    last_error = StreamProtocolError(
                        "server refused the resume token; refetching"
                    )
                except ServerBusyError as exc:
                    # Load shed, not a failure of the server: back off
                    # without tripping the breaker.
                    self._busy_counter.inc()
                    last_error = exc
                except StreamProtocolError as exc:
                    self._protocol_errors_counter.inc()
                    record_event("client_protocol_error", clip=clip_name,
                                 reason=str(exc))
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
        raise StreamFetchError(
            f"fetch of {clip_name!r} failed after {self.max_retries + 1} "
            f"attempts: {last_error}"
        ) from last_error

    def _finish_latency(
        self, progress: _FetchProgress, session: SessionDescription
    ) -> Optional[LatencyStats]:
        """Fold a completed fetch's arrivals into the latency metrics."""
        stats = LatencyStats.from_arrivals(
            progress.started_s, progress.frame_arrivals, session.fps
        )
        if stats is None:
            return None
        self._ttff_hist.observe(stats.ttff_s)
        if len(progress.frame_arrivals) > 1:
            self._frame_gap_hist.observe_many(
                [b - a for a, b in zip(progress.frame_arrivals,
                                       progress.frame_arrivals[1:])]
            )
        if stats.deadline_misses:
            self._deadline_miss_counter.inc(stats.deadline_misses)
        return stats

    # ------------------------------------------------------------------
    def play(self, fetched: FetchResult, **playback_kwargs) -> PlaybackResult:
        """Play a fetched stream through the paper's client model."""
        return self._player.play_stream(
            fetched.session, fetched.packets, **playback_kwargs
        )

    async def fetch_and_play(
        self, host: str, port: int, clip_name: str, quality: float,
        **playback_kwargs,
    ) -> PlaybackResult:
        """Fetch then play in one call (playback runs off the event loop)."""
        fetched = await self.fetch(host, port, clip_name, quality)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.play(fetched, **playback_kwargs)
        )


class BatteryClient(AsyncMobileClient):
    """A fetch client that adapts mid-stream to battery and ambient state.

    The degradation loop of the adaptation control plane: during a fetch
    the client tracks a modeled battery (a :class:`~repro.power.battery.
    LoadTrace` drained against a :class:`~repro.power.battery.Battery`)
    and a simulated light sensor (an ambient trace).  Both are driven by
    *modeled* playback time — ``frames_seen / fps`` — so an adaptive
    fetch is deterministic regardless of wire speed.

    * Each time the state of charge falls through a ``soc_thresholds``
      entry, the client requests the next step down the quality ladder
      (a higher clip fraction — more aggressive backlight reduction,
      hence longer runtime; see :data:`repro.core.policy.QUALITY_LEVELS`).
    * Each time the ambient trace's condition changes, the client
      requests a re-bind under the new condition (bright surroundings
      contribute reflected luminance, so the same scenes need less
      backlight).

    Requests ride the live connection as ``requality`` control messages
    and take effect at the server's next scene boundary; the applied
    acknowledgement updates the resume token so drops keep their
    byte-identical replay guarantee.

    Parameters
    ----------
    device:
        The handheld's profile, as for :class:`AsyncMobileClient`.
    battery_trace:
        Load spec draining the battery: a :class:`LoadTrace`, a
        ``"t:watts,..."`` spec string, or a bare wattage.  ``None``
        disables battery-driven quality steps.
    ambient_trace:
        Simulated light-sensor spec (anything
        :func:`repro.display.as_ambient_trace` accepts).  ``None``
        disables ambient re-binds.
    battery:
        The pack model; default :class:`~repro.power.battery.Battery`.
    soc_thresholds:
        State-of-charge levels (fractions) that each trigger one quality
        step down, highest first.
    quality_ladder:
        The clip-fraction ladder to step along, ascending; defaults to
        the paper's five levels.
    **kwargs:
        Everything :class:`AsyncMobileClient` accepts.
    """

    def __init__(
        self,
        device: DeviceProfile,
        battery_trace: Optional[Union[str, float, LoadTrace]] = None,
        ambient_trace=None,
        battery: Optional[Battery] = None,
        soc_thresholds: Sequence[float] = (0.5, 0.3, 0.15, 0.05),
        quality_ladder: Sequence[float] = QUALITY_LEVELS,
        **kwargs,
    ):
        super().__init__(device, **kwargs)
        if battery_trace is None:
            self.load_trace: Optional[LoadTrace] = None
        elif isinstance(battery_trace, LoadTrace):
            self.load_trace = battery_trace
        elif isinstance(battery_trace, (int, float)):
            self.load_trace = LoadTrace.constant(float(battery_trace))
        else:
            self.load_trace = LoadTrace.parse(str(battery_trace))
        self.ambient_trace = (
            None if ambient_trace is None else as_ambient_trace(ambient_trace)
        )
        self.battery = battery if battery is not None else Battery()
        thresholds = tuple(sorted((float(t) for t in soc_thresholds),
                                  reverse=True))
        if any(not 0.0 < t < 1.0 for t in thresholds):
            raise ValueError("soc_thresholds must lie strictly in (0, 1)")
        self.soc_thresholds = thresholds
        ladder = tuple(sorted(float(q) for q in quality_ladder))
        if not ladder:
            raise ValueError("quality_ladder must not be empty")
        self.quality_ladder = ladder

    def state_of_charge(self, time_s: float) -> float:
        """Modeled state of charge after ``time_s`` of playback."""
        if self.load_trace is None:
            return 1.0
        used = self.load_trace.energy_wh(time_s)
        usable = self.battery.usable_energy_wh(
            self.load_trace.power_at(time_s)
        )
        return max(0.0, 1.0 - used / usable)

    def _advise(
        self, progress: _FetchProgress
    ) -> Optional[Tuple[Optional[float], Optional[str]]]:
        """Step the quality/ambient state machine for one frame tick."""
        session = progress.session
        if session is None or session.fps <= 0:
            return None
        state = progress.adapt
        if "quality" not in state:
            state["quality"] = session.quality
            # The server's opening binding assumed a dark room (unless
            # its own serve-time trace says otherwise — the client can
            # only model its local sensor).
            state["ambient"] = DARK_ROOM.name
            state["crossed"] = 0
            state["resumes"] = progress.resumes
            # (quality, ambient) asked for but not yet confirmed by an
            # applied ack; see _handle_requality_ack.
            state["unacked"] = (None, None)
        t = progress.frames_seen / session.fps
        quality_req: Optional[float] = None
        if self.load_trace is not None:
            soc = self.state_of_charge(t)
            crossings = sum(1 for th in self.soc_thresholds if soc <= th)
            if crossings > state["crossed"]:
                state["crossed"] = crossings
                ladder = self.quality_ladder
                start = 0
                for idx, q in enumerate(ladder):
                    if q <= session.quality + 1e-9:
                        start = idx
                target = ladder[min(start + crossings, len(ladder) - 1)]
                if target > float(state["quality"]) + 1e-9:
                    state["quality"] = target
                    quality_req = target
        ambient_req: Optional[str] = None
        if self.ambient_trace is not None:
            cond = self.ambient_trace.condition_at(t)
            if cond.name != state["ambient"]:
                state["ambient"] = cond.name
                ambient_req = (
                    cond.name if cond.name in AMBIENT_BY_NAME
                    else f"{cond.illuminance:g}"
                )
        unacked_quality, unacked_ambient = state["unacked"]
        if progress.resumes != state["resumes"]:
            # A request the server had not yet applied died with the old
            # connection; the resumed session starts without it.
            state["resumes"] = progress.resumes
            if quality_req is None:
                quality_req = unacked_quality
            if ambient_req is None:
                ambient_req = unacked_ambient
        if quality_req is None and ambient_req is None:
            return None
        state["unacked"] = (
            unacked_quality if quality_req is None else quality_req,
            unacked_ambient if ambient_req is None else ambient_req,
        )
        return quality_req, ambient_req


async def _probe(
    host: str, port: int, request: MediaPacket, timeout_s: float
) -> MediaPacket:
    """Send one probe record and read the one record that answers it."""
    conn = await asyncio.wait_for(open_records(host, port), timeout=timeout_s)
    try:
        conn.write(encode_packet_bytes(request))
        await conn.drain()
        packet = await conn.read_packet(timeout_s)
        if packet is None:
            raise WireFormatError("server closed before answering the probe")
        return packet
    finally:
        await conn.close()


async def fetch_status(
    host: str, port: int, timeout_s: float = 5.0
) -> StatusInfo:
    """Probe a server's ``/healthz``-style status over the wire.

    Opens a connection, sends a ``health`` control message and returns
    the decoded :class:`~repro.net.messages.StatusInfo` answer.  Health
    probes bypass admission control, so this works against a saturated
    or draining server.  Raises :class:`WireFormatError` on a malformed
    answer and ``OSError`` / ``asyncio.TimeoutError`` when the server is
    unreachable.
    """
    packet = await _probe(host, port, encode_health(), timeout_s)
    message = raise_for_error(decode_control(packet))
    if message.kind != "status":
        raise WireFormatError(
            f"expected a status message, got {message.kind!r}"
        )
    return message.status


def fetch_status_sync(host: str, port: int, timeout_s: float = 5.0) -> StatusInfo:
    """Blocking wrapper over :func:`fetch_status` for sync callers."""
    return asyncio.run(fetch_status(host, port, timeout_s=timeout_s))


async def fetch_stats(
    host: str,
    port: int,
    timeout_s: float = 5.0,
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
) -> dict:
    """Probe a server's live observability snapshot over the wire.

    Sends a ``stats`` control message — admission-bypassing like the
    ``health`` probe, so it answers from a saturated or draining server
    — and returns the decoded ``statsdump`` payload dict: the server's
    ``health`` snapshot plus its full metrics registry (under
    ``metrics`` for ``format="json"``, Prometheus exposition text under
    ``prometheus`` for ``format="prometheus"``), optionally with the
    flight-recorder tail (``events``) and collected spans (``spans``).

    Parameters
    ----------
    host / port:
        The server address to probe.
    timeout_s:
        Deadline for connecting and for reading the answer.
    format:
        Metrics rendering: ``json`` or ``prometheus``.
    include_events:
        Also request the flight-recorder tail.
    include_spans:
        Also request collected span events.
    limit:
        Cap on returned events/spans (``None`` = server defaults).

    Raises :class:`WireFormatError` on a malformed answer and
    ``OSError`` / ``asyncio.TimeoutError`` when the server is
    unreachable.
    """
    probe = encode_stats_request(
        format=format,
        include_events=include_events,
        include_spans=include_spans,
        limit=limit,
    )
    packet = await _probe(host, port, probe, timeout_s)
    message = raise_for_error(decode_control(packet))
    if message.kind != "statsdump":
        raise WireFormatError(
            f"expected a statsdump message, got {message.kind!r}"
        )
    return message.statsdump


def fetch_stats_sync(
    host: str,
    port: int,
    timeout_s: float = 5.0,
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
) -> dict:
    """Blocking wrapper over :func:`fetch_stats` for sync callers.

    Parameters
    ----------
    host / port:
        The server address to probe.
    timeout_s:
        Deadline for connecting and for reading the answer.
    format:
        Metrics rendering: ``json`` or ``prometheus``.
    include_events:
        Also request the flight-recorder tail.
    include_spans:
        Also request collected span events.
    limit:
        Cap on returned events/spans (``None`` = server defaults).
    """
    return asyncio.run(fetch_stats(
        host, port, timeout_s=timeout_s, format=format,
        include_events=include_events, include_spans=include_spans,
        limit=limit,
    ))
