"""`AnnotationStreamServer`: annotated streams over real asyncio TCP.

Hosts many concurrent sessions on one listening socket, plus
connections the fleet router hands over
(:meth:`~AnnotationStreamServer.adopt`), each read and written through
a :class:`~repro.net.codec.RecordProtocol` capped at 64 KiB per client
record.  Each connection runs the wire protocol::

    client                          server
      | -- hello (control) ---------> |   admission control, then
      | <-------- session (control) - |   negotiate via MediaServer
      | <----- annotation record(s) - |   batched chunk emission
      | <--------- frame records ---- |   (one compute step at a time)
      | <------------ end (control) - |   then half-close
      | -- EOF ---------------------> |

Packet production reuses the media server's batched emission path.
The session task drives it in *steps*: a step advances the batch
generator through its next group that carries a frame and encodes what
it got into contiguous wire buffers.  Steps run on one
``ThreadPoolExecutor`` per server, sized ``compute_slots`` (the host's
cores by default), so the event loop never blocks on numpy and no more
compensation runs at once than there are cores: more numpy-heavy
threads than cores just adds GIL convoy — every thread stalls behind
every other thread's long non-GIL-releasing kernel — which starves the
event loop and inflates frame gaps without adding throughput.

The task keeps exactly one step in flight: as soon as step *k* returns
it submits step *k+1*, then writes step *k*'s buffers with ``write`` +
``drain``.  A slow client blocks ``drain``, so compensation never runs
more than one step ahead of the writes — backpressure without a queue.
A client whose opening record sets ``progress`` reports the data
records it holds; its session also holds each of step *k*'s batches
until writing it keeps within
:data:`~repro.net.messages.PROGRESS_WINDOW` data records of that count
(the step in flight keeps computing meanwhile).  So a stalled client
has at most the window written to it, whatever the socket buffers
would hold, and a live request is polled at most the window plus one
step past what the client holds.  Without the flag, or once
the client's reports stop (its EOF, a reset, an undecodable record),
only the socket buffers bound how far the writes run ahead.  A gone
client costs at most the step in flight; the generator is closed once
that step is done, never while it runs.  After ``end`` the server
shuts down its write side and discards what the client still sends
until the client's EOF, so the close never answers unread input with
a reset that would destroy the stream's tail.

Operational resilience on top of the happy path:

* **Admission control** — ``max_sessions`` caps concurrently served
  streams.  Overflow connections wait in a bounded accept queue
  (``accept_queue`` waiters, ``accept_timeout_s`` each); beyond that the
  server *sheds load*: it answers the hello with a ``busy`` control
  message carrying a retry-after hint and closes, instead of queueing
  unboundedly and collapsing.
* **Session resume** — every session message and applied ``requality``
  ack carries a resume token, the portable encoding of the session's
  (clip, opening quality, device, switch plan).  A stream is a
  deterministic function of those four, so the token is all the state a
  resume needs: a client reconnecting with ``resume`` + the count of
  data records it already holds continues from exactly that offset, on
  this server, a restarted one or any other over the same catalog.  The
  server keeps no resume state; it seeks to that record instead of
  regenerating the prefix, and a resumed stream is bit-identical to an
  uninterrupted one.
* **Graceful drain** — :meth:`drain` flips the server to *draining*
  (new hellos are shed with ``busy``), lets in-flight sessions finish
  within a deadline, cancels stragglers, then closes the socket.
  :meth:`healthz` and the ``health`` probe message expose
  liveness/readiness without consuming an admission slot.
* **Live observability** — the ``stats`` probe message (admission-
  bypassing like ``health``) answers with a full metrics snapshot
  (JSON or Prometheus text), optionally plus the flight-recorder tail
  and collected spans, so a running server's registry is reachable
  from outside the process (:meth:`stats_snapshot`).

Telemetry: active/waiting-session and readiness gauges, a histogram
of the batches each step still has to write, records/bytes counters,
disconnect / shed / resumed counters, and a linked span tree per
connection — ``net.admission`` and ``net.session`` join the client's
trace via the ids carried in ``hello``/``resume``, the engine spans a
step opens nest inside the session via one copied context per session,
and per-stage aggregates (``net.produce``: summed step time,
``net.encode``, ``net.queue.wait``: time awaiting a step,
``net.window.wait``: time holding writes for a client's progress
reports, ``net.write``) break the send path down without per-packet
span cost.  Session lifecycle lands in the flight recorder
(open/resume/shed/reject/end/disconnect/drain).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import socket
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from time import perf_counter
from typing import List, Optional, Set, Tuple

from ..display.ambient import as_ambient_trace
from ..streaming.packets import MediaPacket, PacketType
from ..streaming.server import AdaptationControl, MediaServer
from ..streaming.session import NegotiationError, SessionDescription
from ..telemetry import (
    emit_span,
    record_event,
    registry as telemetry_registry,
    stats_payload,
    trace,
    trace_context,
)
from .codec import (
    MAX_OPENING_RECORD_BYTES,
    RecordProtocol,
    WireFormatError,
    encode_packet,
)
from .config import ServeConfig
from .messages import (
    PROGRESS_WINDOW,
    StatsRequest,
    decode_control,
    decode_portable_token,
    encode_busy,
    encode_end,
    encode_error,
    encode_portable_token,
    encode_requality_ack,
    encode_session,
    encode_statsdump,
    encode_status,
)


class _WireSteps:
    """One session's stream, encoded one frame-carrying group per :meth:`step`.

    The session task runs :meth:`step` on the server's compute executor,
    never two at once, so the batch generator advances on one thread at
    a time.  A step pulls groups from
    :meth:`~repro.streaming.server.MediaServer.stream_batches` up to and
    including the next one that carries a frame (control-only groups —
    the head, a switch's ack and annotation — ride with it) and encodes
    them into contiguous wire buffers that flush at the ``batch_records``
    / ``batch_bytes`` thresholds.  Frame records take their CRCs from the
    media server's :attr:`~repro.streaming.server.MediaServer.record_crcs`.

    ``skip`` is a resume offset: the client already holds the first
    ``skip`` data records.  Past the head, the stream *seeks*:
    :meth:`~repro.streaming.server.MediaServer.resume_point` maps the
    offset through the session's switch plan to a frame, the plan
    entries behind it move to the control's applied list, and emission
    starts there under the binding in force — nothing the client holds
    is compensated again.  The counts start at the resume point, so the
    ``end`` totals still describe the complete stream.  An offset inside
    the head re-emits the stream from the top and drops the records
    already held.  Only *data* records (annotation + frame) are counted
    or skipped — in-stream control packets (requality acks) always reach
    the current connection and never perturb the resume offset or the
    ``end`` totals.
    """

    def __init__(self, media_server: MediaServer, session: SessionDescription,
                 skip: int, adaptation: AdaptationControl,
                 batch_records: int, batch_bytes: int):
        self._media = media_server
        self._session = session
        self._skip = skip
        self._adaptation = adaptation
        self._batch_records = batch_records
        self._batch_bytes = batch_bytes
        self._groups = None
        #: Data records / frames of the complete stream emitted so far.
        self.packet_count = 0
        self.frame_count = 0
        #: Summed encode time and summed step time, in seconds.
        self.encode_s = 0.0
        self.produce_s = 0.0
        #: True once the generator is exhausted.
        self.done = False

    def _open(self):
        point = self._media.resume_point(
            self._session, self._skip, self._adaptation.switch_plan()
        )
        start = None
        if point is not None:
            self._adaptation.fast_forward(point.switches)
            self.packet_count, self.frame_count = point.records, point.frame
            start = point.frame
        return self._media.stream_batches(
            self._session, adaptation=self._adaptation, start=start
        )

    def step(self) -> List[Tuple[bytearray, int, int]]:
        """Advance through the next frame-carrying group; return its
        ``(buffer, records, data records through it)`` wire batches
        (possibly none)."""
        t_step = perf_counter()
        batches = []
        buffer = bytearray()
        records = 0
        try:
            if self._groups is None:
                self._groups = self._open()
            for group in self._groups:
                carries_frame = False
                for packet in group:
                    is_data = packet.ptype is not PacketType.CONTROL
                    send = not is_data or self.packet_count >= self._skip
                    if is_data:
                        self.packet_count += 1
                        if packet.ptype is PacketType.FRAME:
                            self.frame_count += 1
                            carries_frame = True
                    if send:
                        t0 = perf_counter()
                        header, body = encode_packet(packet, self._media.record_crcs)
                        buffer += header
                        if len(body):
                            buffer += body
                        self.encode_s += perf_counter() - t0
                        records += 1
                        if (records >= self._batch_records
                                or len(buffer) >= self._batch_bytes):
                            batches.append((buffer, records, self.packet_count))
                            buffer = bytearray()
                            records = 0
                if carries_frame:
                    break
            else:
                self.done = True
            if records:
                batches.append((buffer, records, self.packet_count))
            return batches
        finally:
            self.produce_s += perf_counter() - t_step

    def close(self) -> None:
        """Close the batch generator (only while no step runs)."""
        if self._groups is not None:
            self._groups.close()


class _ProgressWindow:
    """How far a progress-reporting session may write past its client.

    ``received`` is the count of data records the client last reported
    holding (complete-stream terms, like a resume offset).  A report
    never moves it backwards nor past ``written``, the data records the
    session has handed to the transport.  :meth:`wait` returns once
    writing through a given record keeps within
    :data:`~repro.net.messages.PROGRESS_WINDOW`, or once the reports
    have stopped (:meth:`close`).
    """

    def __init__(self, received: int):
        self.received = self.written = received
        self._open = True
        self._waiter: Optional[asyncio.Future] = None

    def report(self, count: int) -> None:
        """Take a client's ``progress`` count."""
        count = min(count, self.written)
        if count > self.received:
            self.received = count
            self._wake()

    def close(self) -> None:
        """The client's reports have stopped: never wait again."""
        self._open = False
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def wait(self, end: int) -> None:
        """Until data records up to ``end`` may be written; then count
        them as written."""
        while self._open and end - self.received > PROGRESS_WINDOW:
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        self.written = max(self.written, end)


#: Send-queue histogram buckets (batches of a step still to write).
_QUEUE_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Server lifecycle states reported by :meth:`AnnotationStreamServer.healthz`.
STATE_READY = "ready"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"


def _token(session: SessionDescription, plan=()) -> str:
    """The resume token of ``session`` under its applied switch ``plan``."""
    return encode_portable_token(
        session.clip_name, session.quality, session.device_name, switches=plan
    )


class AnnotationStreamServer:
    """Serve a :class:`~repro.streaming.server.MediaServer` catalog over TCP.

    Parameters
    ----------
    media_server:
        The catalog + annotation owner; one instance is shared by every
        session (its caches make session 2..N cheap).
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    config:
        The serving policy, a :class:`~repro.net.config.ServeConfig`:
        admission control (``max_sessions`` / ``accept_queue`` /
        ``accept_timeout_s`` / ``busy_retry_after_s``), graceful drain
        (``drain_timeout_s``), wire batching (``batch_records`` /
        ``batch_bytes``), the compute executor's size
        (``compute_slots``) and the hello deadline
        (``hello_timeout_s``).  ``None`` uses the defaults.
    """

    def __init__(
        self,
        media_server: MediaServer,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
    ):
        if config is None:
            config = ServeConfig()
        #: The immutable serving policy this server was built from.
        self.config = config
        self.media_server = media_server
        if config.ambient is not None:
            # Serve-time ambient binding: every session's scenes are
            # bound under this simulated light-sensor trace.
            media_server.ambient = as_ambient_trace(config.ambient)
        self.host = host
        self._port = port
        self.hello_timeout_s = config.hello_timeout_s
        self.max_sessions = config.max_sessions
        self.accept_queue = config.accept_queue
        self.accept_timeout_s = config.accept_timeout_s
        self.busy_retry_after_s = config.busy_retry_after_s
        self.drain_timeout_s = config.drain_timeout_s
        self.batch_records = config.batch_records
        self.batch_bytes = config.batch_bytes
        self.compute_slots = config.resolved_compute_slots()
        self._executor = self._new_executor()
        self._server: Optional[asyncio.base_events.Server] = None
        self._state = STATE_STOPPED
        self._active_count = 0
        self._waiting_count = 0
        self._slot_available: Optional[asyncio.Condition] = None
        self._tasks: Set["asyncio.Task"] = set()
        reg = telemetry_registry()
        self._active_gauge = reg.gauge(
            "repro_net_active_sessions", help="Wire sessions currently being served.",
        )
        self._waiting_gauge = reg.gauge(
            "repro_net_waiting_sessions",
            help="Connections parked in the admission accept queue.",
        )
        self._ready_gauge = reg.gauge(
            "repro_net_server_ready",
            help="1 while the server accepts new sessions, else 0.",
        )
        self._draining_gauge = reg.gauge(
            "repro_net_server_draining",
            help="1 while the server is draining in-flight sessions, else 0.",
        )
        self._queue_hist = reg.histogram(
            "repro_net_send_queue_depth",
            help="Batches of the current step still to write, sampled "
                 "at each batch write.",
            buckets=_QUEUE_BUCKETS,
        )
        self._records_counter = reg.counter(
            "repro_net_records_sent_total", help="Wire records written to clients.",
        )
        self._bytes_counter = reg.counter(
            "repro_net_bytes_sent_total", help="Wire bytes written to clients.",
        )
        self._disconnects_counter = reg.counter(
            "repro_net_disconnects_total",
            help="Sessions that ended on a transport error or client hangup.",
        )
        self._rejects_counter = reg.counter(
            "repro_net_rejected_sessions_total",
            help="Connections rejected during negotiation.",
        )
        self._shed_counter = reg.counter(
            "repro_net_shed_sessions_total",
            help="Connections shed with a busy message (cap reached or draining).",
        )
        self._resumed_counter = reg.counter(
            "repro_net_resumed_sessions_total",
            help="Sessions continued from a resume token after a drop.",
        )
        self._health_counter = reg.counter(
            "repro_net_health_probes_total",
            help="health probes answered with a status message.",
        )
        self._stats_counter = reg.counter(
            "repro_net_stats_probes_total",
            help="stats probes answered with a statsdump message.",
        )
        self._requality_counter = reg.counter(
            "repro_requality_total",
            help="Mid-stream requality requests accepted from clients.",
        )
        self._progress_counter = reg.counter(
            "repro_net_progress_reports_total",
            help="Mid-stream progress records received from clients.",
        )

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        return self.host, self.port

    @property
    def state(self) -> str:
        """Lifecycle state: ``ready``, ``draining`` or ``stopped``."""
        return self._state

    @property
    def active_sessions(self) -> int:
        """Sessions currently holding an admission slot."""
        return self._active_count

    def healthz(self) -> dict:
        """A ``/healthz``-style snapshot of liveness and readiness.

        Returns a dict with ``state``, ``accepting`` (readiness),
        ``active_sessions``, ``waiting_sessions`` and ``max_sessions`` —
        the same fields the wire ``status`` message carries, for
        in-process health checks.
        """
        return {
            "state": self._state,
            "accepting": self._state == STATE_READY,
            "active_sessions": self._active_count,
            "waiting_sessions": self._waiting_count,
            "max_sessions": self.max_sessions,
        }

    def stats_snapshot(
        self,
        format: str = "json",
        include_events: bool = False,
        include_spans: bool = False,
        limit: Optional[int] = None,
    ) -> dict:
        """The payload answered to a ``stats`` probe: the shared
        :func:`~repro.telemetry.stats_payload` around :meth:`healthz`."""
        return stats_payload(self.healthz(), format, include_events,
                             include_spans, limit)

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the resolved address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._slot_available = asyncio.Condition()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: RecordProtocol(MAX_OPENING_RECORD_BYTES,
                                   on_open=self._accepted),
            host=self.host, port=self._port,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._state = STATE_READY
        self._ready_gauge.set(1)
        self._draining_gauge.set(0)
        return self.address

    async def close(self) -> None:
        """Stop accepting connections and wait for the socket to close.

        A hard stop: in-flight session tasks are cancelled.  Use
        :meth:`drain` first for a graceful shutdown.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._tasks):
            task.cancel()
        await self._wait_tasks()
        if server is not None:
            await server.wait_closed()
        # Steps still running for cancelled sessions finish here; a
        # restarted server steps on a fresh executor.
        executor, self._executor = self._executor, self._new_executor()
        await asyncio.to_thread(executor.shutdown)
        self._state = STATE_STOPPED
        self._ready_gauge.set(0)
        self._draining_gauge.set(0)

    def _new_executor(self) -> ThreadPoolExecutor:
        # Every session's compensation steps run here, so its size is
        # the server-wide compute gate.  Not the engine's shared pool: a
        # step can itself wait on that pool's workers.
        return ThreadPoolExecutor(
            max_workers=self.compute_slots, thread_name_prefix="net-compute"
        )

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Gracefully shut down: stop admitting, finish in-flight sessions.

        Flips the server to *draining* — new hellos are shed with
        ``busy`` while health probes keep being answered — then waits up
        to ``timeout_s`` (default ``drain_timeout_s``) for in-flight
        sessions to complete.  Sessions still running at the deadline
        are cancelled; their clients can resume them from their tokens
        against any server over the same catalog, this one restarted
        included.  Finally closes the listening socket.

        Returns ``True`` when every session finished within the
        deadline, ``False`` when stragglers had to be cancelled.
        """
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else self.drain_timeout_s
        )
        if self._state == STATE_READY:
            self._state = STATE_DRAINING
            self._ready_gauge.set(0)
            self._draining_gauge.set(1)
            record_event("drain_begin", active=self._active_count,
                         waiting=self._waiting_count)
        # Wake queued waiters so they shed immediately instead of
        # sitting out their accept timeout against a draining server.
        if self._slot_available is not None:
            async with self._slot_available:
                self._slot_available.notify_all()
        while self._tasks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            await asyncio.wait(list(self._tasks), timeout=remaining)
        completed = not self._tasks
        record_event("drain_end", completed=completed,
                     cancelled=len(self._tasks))
        await self.close()
        return completed

    async def serve_forever(self) -> None:
        """Block serving sessions until cancelled (used by ``repro serve``)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "AnnotationStreamServer":
        """Start on ``async with`` entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        """Close on ``async with`` exit."""
        await self.close()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admit(self) -> bool:
        """Try to claim an admission slot; False means shed with busy.

        Uncapped servers admit unconditionally while ready.  At the cap,
        up to ``accept_queue`` connections park on the slot condition for
        ``accept_timeout_s``; everything beyond that is shed.
        """
        if self._state != STATE_READY:
            return False
        if self.max_sessions is None:
            self._active_count += 1
            return True
        async with self._slot_available:
            if self._active_count < self.max_sessions:
                self._active_count += 1
                return True
            if self._waiting_count >= self.accept_queue:
                return False
            self._waiting_count += 1
            self._waiting_gauge.inc()
            deadline = time.monotonic() + self.accept_timeout_s
            try:
                while True:
                    if self._state != STATE_READY:
                        return False
                    if self._active_count < self.max_sessions:
                        self._active_count += 1
                        return True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    try:
                        await asyncio.wait_for(
                            self._slot_available.wait(), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        return False
            finally:
                self._waiting_count -= 1
                self._waiting_gauge.dec()

    async def _release_slot(self) -> None:
        """Return an admission slot and wake one queued waiter."""
        self._active_count -= 1
        if self._slot_available is not None:
            async with self._slot_available:
                self._slot_available.notify()

    async def _send(
        self,
        conn: RecordProtocol,
        packet: MediaPacket,
        timings: Optional[dict] = None,
    ) -> None:
        """Encode and write one packet; optionally accumulate stage times.

        ``timings`` (when given) receives ``encode_s`` / ``write_s``
        increments — plain float adds per record, aggregated into
        ``net.encode`` / ``net.write`` spans once per session.
        """
        t0 = perf_counter()
        header, body = encode_packet(packet)
        t1 = perf_counter()
        conn.write(header)
        if len(body):
            conn.write(body)
        await conn.drain()
        if timings is not None:
            timings["encode_s"] += t1 - t0
            timings["write_s"] += perf_counter() - t1
        self._records_counter.inc()
        self._bytes_counter.inc(len(header) + len(body))

    async def _send_busy(self, conn: RecordProtocol) -> None:
        """Shed the connection with a busy message (best effort)."""
        self._shed_counter.inc()
        record_event("session_shed", active=self._active_count,
                     max=self.max_sessions, state=self._state)
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(conn, encode_busy(
                self.busy_retry_after_s,
                self._active_count,
                self.max_sessions,
                seq=0,
            ))

    async def _send_stats(self, conn: RecordProtocol,
                          request: StatsRequest) -> None:
        """Answer a stats probe with the observability snapshot."""
        self._stats_counter.inc()
        payload = self.stats_snapshot(**asdict(request))
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(conn, encode_statsdump(payload, seq=0))

    async def _send_status(self, conn: RecordProtocol) -> None:
        """Answer a health probe with the current status snapshot."""
        self._health_counter.inc()
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(conn, encode_status(seq=0, **self.healthz()))

    async def _read_first(self, conn: RecordProtocol):
        """Read and decode the connection's opening control message."""
        try:
            first = await conn.read_packet(self.hello_timeout_s)
            if first is None:
                return None  # connected and left without asking anything
            return decode_control(first)
        except asyncio.TimeoutError:
            self._rejects_counter.inc()
            return None
        except WireFormatError as exc:
            self._rejects_counter.inc()
            await self._reject(conn, str(exc))
            return None
        except (ConnectionError, OSError):
            return None  # reset before asking anything

    async def _reject(self, conn: RecordProtocol, reason: str) -> None:
        """Answer ``error``, then half-close (:meth:`_half_close`)."""
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(conn, encode_error(reason, seq=0))
            await self._half_close(conn)

    async def _half_close(self, conn: RecordProtocol) -> None:
        """Shut down the write side, then let the client finish: what it
        still sends (a late ``requality``, the rest of a rejected record)
        is dropped until its EOF (:meth:`~repro.net.codec.RecordProtocol.discard`,
        bounded by ``hello_timeout_s``), so the close sends no reset that
        would throw away the stream's unsent tail."""
        try:
            with contextlib.suppress(ConnectionError, OSError,
                                     asyncio.TimeoutError):
                conn.write_eof()
                await conn.discard(timeout=self.hello_timeout_s)
        except asyncio.CancelledError:
            # close() / drain() cut the wait short.  Everything was
            # sent, so end as a finished task, not a cancelled one.
            conn.abort()

    async def _read_requests(
        self,
        conn: RecordProtocol,
        adaptation: AdaptationControl,
        session: SessionDescription,
        window: Optional[_ProgressWindow],
    ) -> None:
        """Drain the client's mid-stream control messages.

        A client sends two kinds after its opening hello/resume.  A
        ``requality`` deposits the desired quality and/or ambient in the
        session's :class:`AdaptationControl`, to be applied by the
        stream at the next scene boundary.  A ``progress`` count goes to
        the session's ``window`` (ignored without one).  Anything
        undecodable ends the reader (the session itself keeps streaming;
        a broken *pipe* surfaces on the write side).
        """
        while True:
            try:
                packet = await conn.read_packet()
            except (WireFormatError, ConnectionError, OSError):
                return
            if packet is None:
                return  # client half-closed; keep streaming
            try:
                message = decode_control(packet)
            except WireFormatError:
                return
            if message.kind == "progress":
                self._progress_counter.inc()
                if window is not None:
                    window.report(message.received)
                continue
            if message.kind != "requality" or message.requality is None:
                continue  # nothing else is meaningful mid-stream
            info = message.requality
            if not info.is_request:
                continue
            with trace("net.requality") as span:
                if span is not None:
                    span.set_tag("session_id", session.session_id)
                    if info.quality is not None:
                        span.set_tag("quality", info.quality)
                    if info.ambient is not None:
                        span.set_tag("ambient", info.ambient)
                try:
                    # An ambient spec that does not parse would fail the
                    # re-bind mid-stream; it is dropped here instead.
                    if info.ambient is not None:
                        as_ambient_trace(info.ambient)
                    adaptation.request(
                        quality=info.quality, ambient=info.ambient
                    )
                except ValueError:
                    continue
                self._requality_counter.inc()
                record_event(
                    "requality_request",
                    session_id=session.session_id,
                    quality=info.quality,
                    ambient=info.ambient,
                )

    def _open_session(self, message):
        """Resolve a hello or resume into (session, token, skip, plan).

        A resume token is the portable encoding of the session request
        and its applied switch plan, so a resume decodes the token and
        opens the session afresh; the catalog is deterministic, so the
        stream replays byte-identically wherever the token was issued.
        ``plan`` is that switch plan, empty for fresh sessions.  Raises
        :class:`~repro.streaming.session.NegotiationError` when the
        request cannot be served: a bad clip/device, or a token that
        does not decode or carries a plan this server would never have
        produced (a frame at or past the clip's end, which also bounds
        the plan's length, or an unprepared quality).
        """
        media = self.media_server
        if message.kind != "resume":
            session = media.open_session(message.hello.to_request())
            record_event("session_open", session_id=session.session_id,
                         clip=session.clip_name, quality=session.quality,
                         device=session.device_name)
            return session, _token(session), 0, ()
        info = decode_portable_token(message.resume.token)
        if info is None:
            raise NegotiationError("undecodable resume token")
        frame_count = media.get_clip(info.clip_name).frame_count
        if any(frame >= frame_count or quality not in media.qualities
               for frame, quality, _ in info.switches):
            raise NegotiationError(
                "resume token carries a switch plan this server never issues"
            )
        session = media.open_session(info.to_request())
        skip = message.resume.received_packets
        self._resumed_counter.inc()
        record_event("session_resume", session_id=session.session_id,
                     clip=session.clip_name, received=skip)
        return session, _token(session, info.switches), skip, info.switches

    def adopt(self, sock: socket.socket, record: bytes) -> "asyncio.Task":
        """Serve a connection accepted elsewhere, as if accepted here.

        ``record`` is the raw opening record already read off ``sock``,
        where anything the client sent after it is still unread; the
        fleet router hands connections to shards this way.  Returns the
        connection's task (:meth:`drain` / :meth:`close` manage it).
        """
        conn = RecordProtocol(MAX_OPENING_RECORD_BYTES)
        # The record goes in first, so the protocol reads exactly what
        # the client sent, in order.
        conn.feed(record)

        def cleanup() -> None:
            conn.abort()
            sock.close()  # not yet the transport's if cancelled early

        return self._track(self._adopt(sock, conn), cleanup)

    async def _adopt(self, sock: socket.socket, conn: RecordProtocol) -> None:
        await asyncio.get_running_loop().connect_accepted_socket(
            lambda: conn, sock
        )
        await self._handle_connection(conn)

    def _accepted(self, conn: RecordProtocol) -> None:
        # Called from connection_made, once the transport exists: a task
        # started earlier, from the protocol factory, would see none.
        self._track(self._handle_connection(conn), conn.abort)

    def _track(self, coro, cleanup) -> "asyncio.Task":
        """Run a connection as a task :meth:`drain` / :meth:`close`
        manage; ``cleanup`` runs when it is done, even if cancelled
        before it started."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(lambda _: cleanup())
        return task

    async def _handle_connection(self, conn: RecordProtocol) -> None:
        message = await self._read_first(conn)
        if message is None:
            pass  # gone, timed out, or already answered
        elif message.kind == "health":
            await self._send_status(conn)
        elif message.kind == "stats":
            await self._send_stats(conn, message.stats)
        elif message.kind in ("hello", "resume"):
            await self._admit_and_serve(message, conn)
        else:
            self._rejects_counter.inc()
            await self._reject(
                conn,
                f"expected hello, resume, health or stats, got {message.kind!r}",
            )
        await conn.close(timeout=5.0)

    async def _admit_and_serve(self, message, conn: RecordProtocol) -> None:
        # Join the client's distributed trace (ids ride in the
        # hello/resume body); absent ids start a fresh server-side trace
        # so admission and session spans still form one tree.
        info = message.hello if message.kind == "hello" else message.resume
        with trace_context(trace_id=info.trace_id,
                           parent_id=info.parent_span_id):
            with trace("net.admission") as admission_span:
                admitted = await self._admit()
                if admission_span is not None:
                    admission_span.set_tag("admitted", admitted)
            if not admitted:
                await self._send_busy(conn)
                return
            try:
                finished = await self._serve_session(message, conn)
            finally:
                await self._release_slot()
        if finished:
            await self._half_close(conn)

    async def _serve_session(self, message, conn: RecordProtocol) -> bool:
        """Run one admitted session to completion (or disconnect).

        The session task drives the stream: it keeps one
        :meth:`_WireSteps.step` in flight on the compute executor and,
        as soon as step *k* returns, submits step *k+1* and writes step
        *k*'s batches — for a progress-reporting client, once they keep
        within its window.  A gone client therefore costs at most the
        step in flight.  A live request still pending when the stream is
        done is answered with a rejection ack before ``end``.  Returns
        whether the session ended with a last message (``end`` or a
        negotiation ``error``), after which the caller half-closes
        instead of dropping the connection.
        """
        self._active_gauge.inc()
        clean = False
        session: Optional[SessionDescription] = None
        timings = {"encode_s": 0.0, "queue_wait_s": 0.0, "write_s": 0.0,
                   "window_wait_s": 0.0}
        window: Optional[_ProgressWindow] = None
        reader_task: Optional["asyncio.Task"] = None
        step: Optional[Future] = None
        try:
            with trace("net.session") as session_span:
                try:
                    session, token, skip, plan = self._open_session(message)
                except (WireFormatError, NegotiationError) as exc:
                    self._rejects_counter.inc()
                    record_event("session_reject", reason=str(exc))
                    with contextlib.suppress(ConnectionError, OSError):
                        await self._send(conn, encode_error(str(exc), seq=0))
                    clean = True
                    return clean
                if session_span is not None:
                    session_span.set_tag("session_id", session.session_id)
                    session_span.set_tag("clip", session.clip_name)
                    if skip:
                        session_span.set_tag("resumed_at", skip)
                adaptation = AdaptationControl(plan=plan)

                def build_ack(frame, quality, ambient, switch_plan):
                    return encode_requality_ack(
                        True, frame, quality=quality, ambient=ambient,
                        token=_token(session, switch_plan), seq=0,
                    )

                adaptation.ack_builder = build_ack
                adaptation.reject_builder = (
                    lambda frame, reason: encode_requality_ack(
                        False, frame, error=reason, seq=0
                    )
                )
                steps = _WireSteps(self.media_server, session, skip, adaptation,
                                   self.batch_records, self.batch_bytes)
                # Every step runs in one copy of this task's context, so
                # the engine spans under it nest under net.session; steps
                # never overlap, so the copy is never entered twice.
                step_ctx = contextvars.copy_context()
                tags = {"session_id": session.session_id}
                t_first = perf_counter()
                step = self._executor.submit(step_ctx.run, steps.step)
                await self._send(
                    conn,
                    encode_session(session, seq=0, token=token, resumed_at=skip),
                )
                if (message.hello or message.resume).progress:
                    window = _ProgressWindow(skip)
                reader_task = asyncio.get_running_loop().create_task(
                    self._read_requests(conn, adaptation, session, window)
                )
                if window is not None:
                    reader_task.add_done_callback(lambda _: window.close())
                sent = 0
                try:
                    while step is not None:
                        t0 = perf_counter()
                        batches = await asyncio.wrap_future(step)
                        timings["queue_wait_s"] += perf_counter() - t0
                        step = None if steps.done else self._executor.submit(
                            step_ctx.run, steps.step
                        )
                        if batches and t_first is not None:
                            compute_s = perf_counter() - t_first
                            t_first = None
                            emit_span("net.first_byte_enqueued", compute_s,
                                      tags=tags)
                            record_event("first_byte_enqueued",
                                         compute_s=compute_s, **tags)
                        for i, (buffer, records, end) in enumerate(batches):
                            if window is not None:
                                t1 = perf_counter()
                                await window.wait(end)
                                timings["window_wait_s"] += perf_counter() - t1
                            self._queue_hist.observe(len(batches) - i)
                            t1 = perf_counter()
                            conn.write(buffer)
                            await conn.drain()
                            timings["write_s"] += perf_counter() - t1
                            self._records_counter.inc(records)
                            self._bytes_counter.inc(len(buffer))
                            sent += records
                    if adaptation.poll_request() is not None:
                        # Deposited after the stream's last poll.
                        for ack in adaptation.switch_missed(
                            steps.frame_count,
                            "no scene boundary before end of stream",
                        ):
                            await self._send(conn, ack, timings=timings)
                            sent += 1
                    await self._send(
                        conn,
                        encode_end(steps.packet_count, steps.frame_count,
                                   seq=sent + 1),
                        timings=timings,
                    )
                    clean = True
                finally:
                    if session_span is not None:
                        emit_span("net.produce", steps.produce_s, tags=tags)
                        emit_span("net.encode",
                                  timings["encode_s"] + steps.encode_s, tags=tags)
                        emit_span("net.queue.wait", timings["queue_wait_s"],
                                  tags=tags)
                        emit_span("net.write", timings["write_s"], tags=tags)
                        if window is not None:
                            emit_span("net.window.wait",
                                      timings["window_wait_s"], tags=tags)
        except (ConnectionError, OSError):
            self._disconnects_counter.inc()
            record_event(
                "session_disconnect",
                session_id=None if session is None else session.session_id,
            )
        except asyncio.CancelledError:
            self._disconnects_counter.inc()
            record_event(
                "session_disconnect",
                session_id=None if session is None else session.session_id,
                cancelled=True,
            )
            raise
        else:
            if session is not None and clean:
                record_event("session_end", session_id=session.session_id,
                             clip=session.clip_name)
        finally:
            if reader_task is not None:
                reader_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await reader_task
            if step is not None:
                # Close the generator once the step in flight is done
                # (or cancelled unstarted), never while it runs.
                step.add_done_callback(lambda _: step_ctx.run(steps.close))
            if not clean:
                # A graceful close would wait to flush buffered records
                # to a peer that is gone (or cancelled us by never
                # reading); drop the buffer so the close is bounded.
                conn.abort()
            self._active_gauge.dec()
        return clean

    async def _wait_tasks(self) -> None:
        """Wait for all session tasks to unwind after cancellation."""
        while self._tasks:
            await asyncio.wait(list(self._tasks))
