"""Fleet coordinator: spawn shard processes, front them with a router.

:class:`FleetCoordinator` owns the whole topology:

1. fork N worker processes (:mod:`repro.fleet.worker`), each building
   its own :class:`~repro.streaming.server.MediaServer` from the shared
   picklable catalog factory and binding its own port (``port=0`` —
   each worker reports the *actually bound* port back over its
   lifecycle pipe);
2. start a :class:`~repro.fleet.router.FleetRouter` over the reported
   addresses and each worker's handoff socket pair — the single address
   clients connect to;
3. on shutdown, close the router, ask every live worker to drain, and
   reap the processes.

Chaos testing (and the soak benchmark) uses :meth:`kill_shard`, which
SIGKILLs a worker with no warning — exactly what a crashed shard looks
like.  In-flight clients on that shard see a dead socket, reconnect to
the router with their portable resume tokens, and get re-routed to a
replica shard that replays the remainder byte-identically.

Worker processes are started with the ``fork`` start method when the
platform offers it (cheap, inherits the imported library) and ``spawn``
otherwise; either way the :class:`~repro.fleet.worker.WorkerSpec` must
pickle, which is why the catalog travels as a factory function.  The
socket handoff (AF_UNIX ``SOCK_SEQPACKET``, SCM_RIGHTS) needs a POSIX
host such as Linux.
"""

from __future__ import annotations

import multiprocessing
import socket
from typing import Callable, Dict, List, Optional, Tuple

from ..net.config import ServeConfig
from ..streaming.server import MediaServer
from ..telemetry import record_event
from .router import FleetRouter
from .worker import WorkerSpec, worker_main

__all__ = ["FleetCoordinator", "FleetError"]


class FleetError(RuntimeError):
    """A fleet worker failed to start or report its bound port."""


def _mp_context():
    """The cheapest available multiprocessing start method."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class _Worker:
    """One spawned shard process, its lifecycle pipe and handoff pair."""

    def __init__(self, spec: WorkerSpec, ctx):
        self.spec = spec
        self.conn, child_conn = ctx.Pipe()
        #: The router's end of the handoff pair; non-blocking, so a full
        #: pair sends the connection on to the next candidate shard.
        self.channel, child_channel = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        self.channel.setblocking(False)
        self.process = ctx.Process(
            target=worker_main,
            args=(spec, child_conn, child_channel),
            name=f"repro-fleet-{spec.shard_id}",
            daemon=True,
        )
        self.process.start()
        # Only the child may hold these ends, so a SIGKILLed shard's close.
        child_conn.close()
        child_channel.close()
        self.port: Optional[int] = None

    def await_ready(self, timeout_s: float) -> int:
        """Block until the worker reports its bound port."""
        if not self.conn.poll(timeout_s):
            raise FleetError(
                f"shard {self.spec.shard_id!r} did not come up "
                f"within {timeout_s}s"
            )
        kind, value = self.conn.recv()
        if kind != "ready":
            raise FleetError(
                f"shard {self.spec.shard_id!r} failed to start: {value}"
            )
        self.port = int(value)
        return self.port

    def request_stop(self) -> None:
        """Ask the worker to drain and exit (best effort)."""
        try:
            self.conn.send("stop")
        except (OSError, BrokenPipeError):
            pass

    def reap(self, timeout_s: float) -> None:
        """Join the process; SIGKILL it if it overstays."""
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout_s)
        self.conn.close()
        self.channel.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class FleetCoordinator:
    """Run N shard servers behind one router address.

    Parameters
    ----------
    catalog_factory:
        Zero-argument picklable callable building one shard's
        :class:`~repro.streaming.server.MediaServer`.  Each worker calls
        it in its own process; every call must produce the same
        deterministic catalog (that equivalence is what makes failover
        byte-identical).
    shards:
        How many worker processes to run.  Must be >= 1.
    config:
        :class:`~repro.net.config.ServeConfig` applied to every shard.
        ``None`` uses defaults.
    host:
        Interface for the router and every shard.
    port:
        Router port; 0 picks a free one.  Shards always pick their own
        free ports (reported in :meth:`status`).
    vnodes / health_interval_s / probe_timeout_s / busy_retry_after_s:
        Forwarded to the :class:`~repro.fleet.router.FleetRouter`.
    startup_timeout_s:
        How long to wait for each worker to report its bound port.

    Raises
    ------
    ValueError
        If ``shards`` < 1.
    FleetError
        From :meth:`start`, when a worker fails to come up.
    """

    def __init__(
        self,
        catalog_factory: Callable[[], MediaServer],
        shards: int = 2,
        config: Optional[ServeConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 64,
        health_interval_s: float = 1.0,
        probe_timeout_s: float = 2.0,
        busy_retry_after_s: float = 0.25,
        startup_timeout_s: float = 60.0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.catalog_factory = catalog_factory
        self.shard_count = shards
        self.config = config if config is not None else ServeConfig()
        self.host = host
        self._port = port
        self.vnodes = vnodes
        self.health_interval_s = health_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.busy_retry_after_s = busy_retry_after_s
        self.startup_timeout_s = startup_timeout_s
        self.router: Optional[FleetRouter] = None
        self._workers: Dict[str, _Worker] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` of the router front door."""
        if self.router is None:
            raise RuntimeError("fleet is not started")
        return self.router.address

    def shard_ids(self) -> List[str]:
        """The shard names, ``shard-0`` .. ``shard-N-1``."""
        return [f"shard-{i}" for i in range(self.shard_count)]

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Spawn the workers, wait for their ports, start the router.

        Returns the router's bound address.  On any worker failure the
        already-spawned processes are torn down before raising.
        """
        if self.router is not None:
            raise RuntimeError("fleet is already started")
        ctx = _mp_context()
        try:
            for shard_id in self.shard_ids():
                spec = WorkerSpec(
                    shard_id=shard_id,
                    catalog_factory=self.catalog_factory,
                    host=self.host,
                    port=0,
                    config=self.config,
                )
                self._workers[shard_id] = _Worker(spec, ctx)
            for shard_id, worker in self._workers.items():
                worker.await_ready(self.startup_timeout_s)
                record_event("fleet_shard_ready", shard=shard_id,
                             port=worker.port, pid=worker.process.pid)
        except Exception:
            self._teardown_workers()
            raise
        self.router = FleetRouter(
            [(s, self.host, w.port, w.channel)
             for s, w in self._workers.items()],
            host=self.host,
            port=self._port,
            vnodes=self.vnodes,
            health_interval_s=self.health_interval_s,
            probe_timeout_s=self.probe_timeout_s,
            busy_retry_after_s=self.busy_retry_after_s,
        )
        try:
            await self.router.start()
        except Exception:
            self.router = None
            self._teardown_workers()
            raise
        return self.router.address

    async def stop(self) -> None:
        """Graceful shutdown: close the router, drain and reap workers."""
        if self.router is not None:
            await self.router.close()
            self.router = None
        self._teardown_workers()

    def _teardown_workers(self) -> None:
        for worker in self._workers.values():
            if worker.alive:
                worker.request_stop()
        for worker in self._workers.values():
            worker.reap(self.config.drain_timeout_s + 5.0)
        self._workers.clear()

    async def __aenter__(self) -> "FleetCoordinator":
        """Start on ``async with`` entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        """Stop on ``async with`` exit."""
        await self.stop()

    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: str) -> int:
        """SIGKILL one worker (chaos path); returns its pid.

        No drain, no goodbye: in-flight sessions on the shard die with
        it.  The router notices on its next handoff or health probe and
        re-routes resumes to replicas.
        """
        worker = self._workers.get(shard_id)
        if worker is None:
            raise KeyError(f"unknown shard {shard_id!r}")
        pid = worker.process.pid
        worker.process.kill()
        worker.process.join(5.0)
        record_event("fleet_shard_killed", shard=shard_id, pid=pid)
        return pid

    def status(self) -> dict:
        """Topology snapshot: router address plus per-shard process state.

        Includes each shard's *bound* port, pid and process liveness —
        the coordinator-side complement of the router's
        :meth:`~repro.fleet.router.FleetRouter.fleet_snapshot`.
        """
        return {
            "router": {
                "host": self.host,
                "port": self.router.port if self.router else None,
            },
            "shards": [
                {
                    "shard": shard_id,
                    "port": worker.port,
                    "pid": worker.process.pid,
                    "process_alive": worker.alive,
                }
                for shard_id, worker in self._workers.items()
            ],
        }
