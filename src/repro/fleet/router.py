"""Fleet front door: an asyncio L7 router over the shard servers.

Clients speak the ordinary wire protocol to one address; the router
reads each connection's opening record (exact-size reads, so whatever
the client pipelined behind it stays unread), decides which shard
should serve it, and *hands the accepted socket to that shard*:
``socket.send_fds`` (SCM_RIGHTS) over the shard's AF_UNIX
``SOCK_SEQPACKET`` pair, with the raw record alongside.  The shard
adopts the connection (:meth:`~repro.net.server.AnnotationStreamServer.adopt`)
and the router closes its copy, so no session byte passes through the
router and sessions outlive it.  Opening records over
:data:`~repro.net.codec.MAX_OPENING_RECORD_BYTES`, the cap every
server puts on a client's records, are answered ``error``, never
handed off; after any ``error`` the router shuts down its write side
and discards what the client still sends (bounded), so the client
reads the answer and a clean EOF rather than a reset.

Routing policy, per first-packet kind:

* ``hello`` — consistent-hash the clip name onto the ring
  (:class:`~repro.fleet.ring.HashRing`), so every session for a clip
  lands on the shard whose profile and binding caches are already warm for
  it.  If the owner is dead, full at its last ``status`` probe
  (not accepting, or at its session cap) or its handoff pair is full,
  *spill over* to the next distinct shard in ring order; the shard's own
  retriable ``busy`` covers the gap between probes.
* ``resume`` — a resume token is the portable encoding of the session
  (:mod:`repro.net.messages`), so the router decodes the token itself,
  recovers the clip name, and walks the same preference order: the
  owner if it is still alive, otherwise a replica.  The replica has
  never seen the session, but the token carries everything needed to
  rebuild it over the shared deterministic catalog, and the replay is
  byte-identical — this is the fleet's failover path.  A token the
  router cannot decode no shard could honor either, so the router
  answers ``error`` itself.
* ``health`` / ``stats`` — answered by the router itself: an aggregate
  readiness snapshot, or a ``statsdump`` whose ``fleet`` section lists
  every shard's bound port, liveness and load (what ``repro fleet
  status`` prints).

Failure handling is deliberately *retriable*: when no shard can take a
connection the router answers ``busy`` (clients back off and retry),
never ``error`` (which clients treat as authoritative rejection, and
the router sends only for requests no shard could serve).  A
failed handoff (the shard's end of the pair is closed) marks the shard
dead immediately — faster than the background health loop — and the
health loop later revives it when the ``status`` probe answers again;
those probes are the router's only TCP connections to shards.

Telemetry: ``fleet.route`` spans per routed connection (up to the
handoff), ``repro_fleet_*`` gauges/counters (alive shards,
routed/spillover/failover/unroutable totals) and flight-recorder events
for shard death, revival, spillover and failover.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.codec import (
    MAX_OPENING_RECORD_BYTES,
    WIRE_HEADER_BYTES,
    WireFormatError,
    decode_packet,
    discard_input,
    encode_packet_bytes,
    sock_read_record,
)
from ..net.messages import (
    StatusInfo,
    decode_control,
    decode_portable_token,
    encode_busy,
    encode_error,
    encode_statsdump,
    encode_status,
)
from ..telemetry import (
    record_event,
    registry as telemetry_registry,
    stats_payload,
    trace,
)
from .ring import HashRing

__all__ = ["FleetRouter", "MAX_OPENING_RECORD_BYTES", "ShardLink"]

#: Router lifecycle states mirrored from the single-server vocabulary.
_STATE_READY = "ready"
_STATE_STOPPED = "stopped"


@dataclass
class ShardLink:
    """The router's live view of one shard.

    Parameters
    ----------
    shard_id:
        The shard's stable name (its position on the hash ring).
    host / port:
        Where the shard's :class:`~repro.net.server.AnnotationStreamServer`
        actually listens (for ``status`` probes) — the *bound* port
        reported by the worker, not the requested one.
    channel:
        The router's non-blocking end of the shard's handoff pair.
    """

    shard_id: str
    host: str
    port: int
    channel: socket.socket
    alive: bool = True
    status: Optional[StatusInfo] = field(default=None)

    def accepting(self) -> bool:
        """Admission headroom at the last ``status`` probe (spillover check)."""
        status = self.status
        if status is None:
            return True
        return status.accepting and (
            status.max_sessions is None
            or status.active_sessions < status.max_sessions
        )


class FleetRouter:
    """Single-address front door routing wire sessions onto shards.

    Parameters
    ----------
    shards:
        ``(shard_id, host, port, channel)`` for every shard: its *bound*
        port (workers report it after listening) and the router's end of
        its handoff pair, which the coordinator owns.
    host / port:
        Router bind address; ``port=0`` picks a free port.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring.
    health_interval_s:
        Period of the background ``status``-probe loop.
    probe_timeout_s:
        Per-probe connect+read deadline; a shard missing it is marked
        dead (until a later probe answers).
    hello_timeout_s:
        How long a client connection may take to present its opening
        record.
    busy_retry_after_s:
        Retry-after hint on ``busy`` answers when no shard is routable.

    Raises
    ------
    ValueError
        If ``shards`` is empty or a timing parameter is out of range.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[str, str, int, socket.socket]],
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 64,
        health_interval_s: float = 1.0,
        probe_timeout_s: float = 2.0,
        hello_timeout_s: float = 10.0,
        busy_retry_after_s: float = 0.25,
    ):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        if health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        if probe_timeout_s <= 0:
            raise ValueError("probe_timeout_s must be positive")
        if hello_timeout_s <= 0:
            raise ValueError("hello_timeout_s must be positive")
        if busy_retry_after_s < 0:
            raise ValueError("busy_retry_after_s must be non-negative")
        self.host = host
        self._port = port
        self.health_interval_s = health_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.hello_timeout_s = hello_timeout_s
        self.busy_retry_after_s = busy_retry_after_s
        self._links: Dict[str, ShardLink] = {}
        for shard in shards:
            link = ShardLink(*shard)
            if link.shard_id in self._links:
                raise ValueError(f"duplicate shard id {link.shard_id!r}")
            self._links[link.shard_id] = link
        self.ring = HashRing(tuple(self._links), vnodes=vnodes)
        self._listener: Optional[socket.socket] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._health_task: Optional[asyncio.Task] = None
        self._tasks: set = set()
        self._state = _STATE_STOPPED
        reg = telemetry_registry()
        self._alive_gauge = reg.gauge(
            "repro_fleet_shards_alive",
            help="Shards currently believed reachable by the router.",
        )
        self._routed_counters = {
            shard_id: reg.counter(
                "repro_fleet_routed_sessions_total",
                help="Connections handed off to each shard.",
                labels={"shard": shard_id},
            )
            for shard_id in self._links
        }
        self._spillover_counter = reg.counter(
            "repro_fleet_spillover_sessions_total",
            help="hello connections routed off their ring owner (dead/full).",
        )
        self._failover_counter = reg.counter(
            "repro_fleet_failover_sessions_total",
            help="resume connections re-routed to a replica shard.",
        )
        self._unroutable_counter = reg.counter(
            "repro_fleet_unroutable_total",
            help="Connections answered busy because no shard was routable.",
        )
        self._probe_counter = reg.counter(
            "repro_fleet_health_probes_total",
            help="Aggregate health/stats probes answered by the router.",
        )
        self._alive_gauge.set(len(self._links))

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        if self._listener is None:
            raise RuntimeError("router is not started")
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        return self.host, self.port

    @property
    def state(self) -> str:
        """Lifecycle state: ``ready`` or ``stopped``."""
        return self._state

    def links(self) -> List[ShardLink]:
        """Snapshot of every shard link, in ring insertion order."""
        return [self._links[s] for s in self.ring.shards]

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Probe every shard once, bind the front door, and start the
        accept and health loops."""
        if self._listener is not None:
            raise RuntimeError("router is already started")
        loop = asyncio.get_running_loop()
        family, _, _, _, address = (await loop.getaddrinfo(
            self.host, self._port, type=socket.SOCK_STREAM
        ))[0]
        self._listener = socket.create_server(address, family=family)
        self._listener.setblocking(False)
        self._port = self._listener.getsockname()[1]
        await self.probe_shards()
        self._state = _STATE_READY
        self._accept_task = asyncio.ensure_future(self._accept_loop())
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self.address

    async def close(self) -> None:
        """Stop accepting, probing and reading opening records.

        Sessions already handed off belong to their shards and run on.
        """
        tasks = [t for t in (self._accept_task, self._health_task) if t]
        tasks += self._tasks
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._accept_task = self._health_task = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._state = _STATE_STOPPED

    async def serve_forever(self) -> None:
        """Block routing sessions until cancelled (used by ``repro serve``)."""
        if self._listener is None:
            await self.start()
        await self._accept_task

    async def __aenter__(self) -> "FleetRouter":
        """Start on ``async with`` entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        """Close on ``async with`` exit."""
        await self.close()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            await self.probe_shards()

    async def probe_shards(self) -> Dict[str, bool]:
        """Probe every shard's ``status`` once; returns shard → alive.

        Dead shards are probed too — a shard that answers again is
        revived (the health loop calls this periodically, so a restarted
        or recovered shard rejoins the routable set automatically).
        """
        from ..net.client import fetch_status

        async def probe(link: ShardLink) -> None:
            try:
                link.status = await fetch_status(
                    link.host, link.port, timeout_s=self.probe_timeout_s
                )
            except (OSError, asyncio.TimeoutError, WireFormatError):
                self._mark_dead(link, reason="health_probe")
            else:
                self._mark_alive(link)

        await asyncio.gather(*(probe(l) for l in self._links.values()))
        return {s: l.alive for s, l in self._links.items()}

    def _mark_dead(self, link: ShardLink, reason: str) -> None:
        if link.alive:
            link.alive = False
            self._alive_gauge.dec()
            record_event("fleet_shard_down", shard=link.shard_id,
                         port=link.port, reason=reason)
        link.status = None

    def _mark_alive(self, link: ShardLink) -> None:
        if not link.alive:
            link.alive = True
            self._alive_gauge.inc()
            record_event("fleet_shard_up", shard=link.shard_id,
                         port=link.port)

    # ------------------------------------------------------------------
    # Aggregate probes
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Aggregate fleet health in the single-server ``healthz`` shape.

        ``state``/``accepting`` reflect whether *any* shard is routable;
        session counts are sums over the live shard statuses.
        """
        statuses = [l.status for l in self._links.values() if l.status]
        accepting = any(
            l.alive and l.accepting() for l in self._links.values()
        )
        max_sessions: Optional[int] = 0
        for status in statuses:
            if status.max_sessions is None:
                max_sessions = None
                break
            max_sessions += status.max_sessions
        if not statuses:
            max_sessions = None
        return {
            "state": _STATE_READY if accepting else "draining",
            "accepting": accepting,
            "active_sessions": sum(s.active_sessions for s in statuses),
            "waiting_sessions": sum(s.waiting_sessions for s in statuses),
            "max_sessions": max_sessions,
        }

    def fleet_snapshot(self) -> dict:
        """The ``fleet`` section of the router's ``statsdump`` answer."""
        return {
            "router": {"host": self.host, "port": self._port},
            "shards": [
                {
                    "shard": link.shard_id,
                    "host": link.host,
                    "port": link.port,
                    "alive": link.alive,
                    "active_sessions": (
                        link.status.active_sessions if link.status else None
                    ),
                    "max_sessions": (
                        link.status.max_sessions if link.status else None
                    ),
                    "state": link.status.state if link.status else None,
                }
                for link in self.links()
            ],
        }

    def stats_snapshot(
        self,
        format: str = "json",
        include_events: bool = False,
        include_spans: bool = False,
        limit: Optional[int] = None,
    ) -> dict:
        """The router's answer to a ``stats`` probe: the shared
        :func:`~repro.telemetry.stats_payload` around :meth:`healthz`, plus
        a ``fleet`` section (:meth:`fleet_snapshot`)."""
        payload = stats_payload(self.healthz(), format, include_events,
                                include_spans, limit)
        payload["fleet"] = self.fleet_snapshot()
        return payload

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _ = await loop.sock_accept(self._listener)
            except OSError:  # aborted handshake or fd exhaustion: keep going
                await asyncio.sleep(0.05)
                continue
            task = loop.create_task(self._handle(sock))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _handle(self, sock: socket.socket) -> None:
        """Route one accepted connection, then drop the router's copy
        (after a handoff the shard holds its own, so the session lives)."""
        try:
            await self._handle_connection(sock)
        finally:
            sock.close()

    async def _handle_connection(self, sock: socket.socket) -> None:
        try:
            raw = await asyncio.wait_for(
                sock_read_record(sock, max_body_bytes=(
                    MAX_OPENING_RECORD_BYTES - WIRE_HEADER_BYTES
                )),
                timeout=self.hello_timeout_s,
            )
            if raw is None:
                return
            message = decode_control(decode_packet(raw))
        except WireFormatError as exc:
            await self._reject(sock, str(exc))
            return
        except (asyncio.TimeoutError, OSError):
            return
        if message.kind == "health":
            self._probe_counter.inc()
            await self._answer(sock, encode_status(seq=0, **self.healthz()))
            return
        if message.kind == "stats":
            self._probe_counter.inc()
            payload = self.stats_snapshot(**asdict(message.stats))
            await self._answer(sock, encode_statsdump(payload, seq=0))
            return
        if message.kind == "hello":
            clip = message.hello.clip_name
        elif message.kind == "resume":
            info = decode_portable_token(message.resume.token)
            if info is None:
                await self._reject(sock, "undecodable resume token")
                return
            clip = info.clip_name
        else:
            await self._reject(
                sock, f"unroutable first message kind {message.kind!r}"
            )
            return
        await self._route(message.kind, clip, raw, sock)

    @staticmethod
    async def _answer(sock: socket.socket, packet) -> None:
        """Send the router's own one-record answer (best effort)."""
        with contextlib.suppress(OSError):
            await asyncio.get_running_loop().sock_sendall(
                sock, encode_packet_bytes(packet)
            )

    async def _reject(self, sock: socket.socket, reason: str) -> None:
        """Answer ``error``, then let the client finish before the close.

        The write side is shut down first, so the client reads the
        answer and a clean EOF; then what the client still sends (the
        rest of an oversized record, say) is discarded, bounded by
        :data:`~repro.net.codec.DISCARD_LIMIT_BYTES` and
        ``hello_timeout_s``, so the close sends no reset.
        """
        await self._answer(sock, encode_error(reason, seq=0))
        loop = asyncio.get_running_loop()
        with contextlib.suppress(OSError, asyncio.TimeoutError):
            sock.shutdown(socket.SHUT_WR)
            await asyncio.wait_for(
                discard_input(lambda n: loop.sock_recv(sock, n)),
                timeout=self.hello_timeout_s,
            )

    async def _route(self, kind, clip, raw: bytes, sock: socket.socket) -> None:
        owner: Optional[str] = None
        with trace("fleet.route", tags={"kind": kind, "clip": clip}):
            for shard_id in self.ring.preference(clip):
                if owner is None:
                    owner = shard_id
                link = self._links[shard_id]
                if not link.alive:
                    continue
                if kind == "hello" and not link.accepting():
                    continue
                try:
                    socket.send_fds(link.channel, [raw], [sock.fileno()])
                except BlockingIOError:
                    continue  # the shard's handoff queue is full
                except OSError:
                    # Faster than waiting for the health loop: a shard
                    # whose end of the pair is closed is dead right now.
                    self._mark_dead(link, reason="handoff")
                    continue
                if shard_id != owner:
                    if kind == "resume":
                        self._failover_counter.inc()
                        record_event("fleet_failover", shard=shard_id,
                                     owner=owner, clip=clip)
                    else:
                        self._spillover_counter.inc()
                        record_event("fleet_spillover", shard=shard_id,
                                     owner=owner, clip=clip)
                self._routed_counters[shard_id].inc()
                return
        # No routable shard: shed retriably, exactly like a saturated
        # single server — clients back off and try again.
        self._unroutable_counter.inc()
        record_event("fleet_unroutable", request=kind, clip=clip)
        await self._answer(sock, encode_busy(
            retry_after_s=self.busy_retry_after_s,
            active_sessions=self.healthz()["active_sessions"],
            seq=0,
        ))
