"""Deterministic fault injection: a lossy TCP relay between client and server.

Robustness of the transport (retry, CRC recovery, truncation handling)
must be testable without a flaky network.  :class:`LossyTransport` listens
on its own port, forwards every connection to an upstream
:class:`~repro.net.server.AnnotationStreamServer`, and injects faults at
*record* boundaries in the server→client direction:

* **delay**    — sleep before forwarding a record (store-and-forward
  serialization time, parameterized from a
  :class:`~repro.streaming.network.Link`);
* **drop**     — swallow a whole record (the client sees a seq/frame gap);
* **corrupt**  — flip one body byte (the client sees a CRC mismatch);
* **truncate** — forward a partial record and close the connection;
* **kill**     — abort the connection at a record boundary (the client
  sees a reset mid-stream and must reconnect — the scenario session
  resume exists for).  ``kill_after_records`` kills deterministically
  after exactly N forwarded records; ``kill_rate`` kills randomly;
* **stall**    — stop forwarding for ``stall_s`` before a record (the
  client's read timeout fires on a connection that is still "open").

Faults draw from a seeded :class:`random.Random` and honor a
``max_faults`` budget, after which the relay becomes transparent — so a
retrying client *always* converges, and a test run is reproducible from
its seed.  Client→server records are forwarded untouched (the hello
fits one record; faulting it only exercises the same retry path twice);
one that does not parse, or exceeds the server's record cap, ends the
uplink with an EOF.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..streaming.network import Link
from ..telemetry import registry as telemetry_registry
from .codec import (
    MAX_OPENING_RECORD_BYTES,
    WIRE_HEADER_BYTES,
    RecordProtocol,
    WireFormatError,
    open_records,
)


@dataclass(frozen=True)
class FaultSpec:
    """Per-record fault probabilities and delays for a lossy hop.

    Rates are independent probabilities evaluated per forwarded record
    (kill, then stall, then drop, then corrupt, then truncate).
    ``delay_s`` is a fixed store-and-forward latency per record and
    ``delay_per_byte_s`` scales with record size — :meth:`from_link`
    derives both from a link model.  ``kill_after_records`` aborts each
    connection deterministically after exactly N forwarded records (the
    reconnect-with-resume scenario); ``stall_s`` is how long a stall
    fault freezes the relay.  ``max_faults`` bounds the total number of
    injected faults (delays not counted); ``None`` means unbounded.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    kill_rate: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 0.0
    kill_after_records: Optional[int] = None
    delay_s: float = 0.0
    delay_per_byte_s: float = 0.0
    max_faults: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("drop_rate", "corrupt_rate", "truncate_rate",
                     "kill_rate", "stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0 or self.delay_per_byte_s < 0:
            raise ValueError("delays must be non-negative")
        if self.stall_s < 0:
            raise ValueError("stall_s must be non-negative")
        if self.kill_after_records is not None and self.kill_after_records < 0:
            raise ValueError("kill_after_records must be non-negative")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")

    @classmethod
    def from_link(
        cls,
        link: Link,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        truncate_rate: float = 0.0,
        max_faults: Optional[int] = None,
        seed: int = 0,
        time_scale: float = 1.0,
    ) -> "FaultSpec":
        """Derive delays from a link model's latency and bandwidth.

        ``time_scale`` compresses simulated time so that an 802.11b hop
        does not make a test take wall-clock minutes (0.01 charges 1% of
        the modeled serialization delay).
        """
        if time_scale < 0:
            raise ValueError("time_scale must be non-negative")
        return cls(
            drop_rate=drop_rate,
            corrupt_rate=corrupt_rate,
            truncate_rate=truncate_rate,
            delay_s=link.latency_s * time_scale,
            delay_per_byte_s=8.0 / link.bandwidth_bps * time_scale,
            max_faults=max_faults,
            seed=seed,
        )


class LossyTransport:
    """A fault-injecting TCP relay in front of an upstream server.

    Usage::

        async with LossyTransport(host, port, spec) as lossy:
            packets = await client.fetch(*lossy.address, "clip", 0.1)

    The relay parses the server→client byte stream into wire records so
    faults land on record boundaries (a dropped record, not a dropped TCP
    segment), keeping every failure mode the codec can actually name.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        spec: FaultSpec = FaultSpec(),
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.spec = spec
        self.host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._rng = random.Random(spec.seed)
        # Live relay handlers; close() cancels and awaits them.
        self._tasks: Set["asyncio.Task"] = set()
        self._faults_injected = 0
        self._faults_counter = telemetry_registry().counter(
            "repro_net_faults_injected_total",
            help="Faults injected by LossyTransport relays.",
        )

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        if self._server is None:
            raise RuntimeError("transport is not started")
        return self.host, self._port

    @property
    def faults_injected(self) -> int:
        """Total faults injected so far (drops + corruptions + truncations)."""
        return self._faults_injected

    async def start(self) -> Tuple[str, int]:
        """Bind the relay socket; returns the client-facing address."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: RecordProtocol(MAX_OPENING_RECORD_BYTES,
                                   on_open=self._accepted),
            host=self.host, port=self._port,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def close(self) -> None:
        """Stop accepting and tear the relay down, live relays included."""
        if self._server is not None:
            self._server.close()
            tasks = list(self._tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "LossyTransport":
        """Start the relay on ``async with`` entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        """Close the relay on ``async with`` exit."""
        await self.close()

    # ------------------------------------------------------------------
    def _take_fault(self, rate: float) -> bool:
        """Decide one fault, honoring the ``max_faults`` budget."""
        budget = self.spec.max_faults
        if budget is not None and self._faults_injected >= budget:
            return False
        if self._rng.random() >= rate:
            return False
        self._faults_injected += 1
        self._faults_counter.inc()
        return True

    async def _delay(self, nbytes: int) -> None:
        delay = self.spec.delay_s + self.spec.delay_per_byte_s * nbytes
        if delay > 0:
            await asyncio.sleep(delay)

    async def _pump_client_to_server(self, client, upstream) -> None:
        """Forward client records upstream verbatim."""
        try:
            while (record := await client.read_raw()) is not None:
                head, body = record
                upstream.write(head.raw)
                upstream.write(body)
                await upstream.drain()
        except (WireFormatError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                upstream.write_eof()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _pump_server_to_client(self, upstream, client) -> bool:
        """Forward server records with faults; returns False when the
        relay cut the connection (truncation or kill)."""
        forwarded = 0
        while True:
            record = await upstream.read_raw()
            if record is None:
                return True
            head, body = record
            header = head.raw
            size = WIRE_HEADER_BYTES + head.body_len
            await self._delay(size)
            if (
                self.spec.kill_after_records is not None
                and forwarded >= self.spec.kill_after_records
                and self._take_fault(1.0)
            ):
                client.abort()
                return False
            if self._take_fault(self.spec.kill_rate):
                client.abort()
                return False
            if self._take_fault(self.spec.stall_rate):
                await asyncio.sleep(self.spec.stall_s)
            if self._take_fault(self.spec.drop_rate):
                continue
            if self._take_fault(self.spec.corrupt_rate):
                pos = self._rng.randrange(WIRE_HEADER_BYTES, size) \
                    if head.body_len else self._rng.randrange(size)
                if pos < WIRE_HEADER_BYTES:
                    mutable = bytearray(header)
                    mutable[pos] ^= 0xFF
                    header = bytes(mutable)
                else:
                    body[pos - WIRE_HEADER_BYTES] ^= 0xFF
            if self._take_fault(self.spec.truncate_rate):
                cut = self._rng.randrange(1, size)
                client.write(header[:cut])
                client.write(body[:max(0, cut - WIRE_HEADER_BYTES)])
                await client.drain()
                return False
            client.write(header)
            client.write(body)
            await client.drain()
            forwarded += 1

    def _accepted(self, client: RecordProtocol) -> None:
        # From connection_made; the done-callback drops the client even
        # if close() cancelled the task before it started.
        task = asyncio.ensure_future(self._relay(client))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(lambda _: client.abort())

    async def _relay(self, client: RecordProtocol) -> None:
        try:
            upstream = await open_records(self.upstream_host, self.upstream_port)
        except OSError:
            await client.close()
            return
        uplink = asyncio.ensure_future(
            self._pump_client_to_server(client, upstream)
        )
        try:
            await self._pump_server_to_client(upstream, client)
        except (ConnectionError, OSError, ValueError):
            pass  # upstream vanished or emitted garbage; drop the session
        finally:
            uplink.cancel()
            try:
                await uplink
            except (asyncio.CancelledError, Exception):
                pass
            await upstream.close()
            await client.close()
