"""Fleet worker: one :class:`AnnotationStreamServer` in a child process.

A shard is an ordinary wire server over its own copy of the catalog.
Because the catalog is a deterministic function of the clips — and the
clips themselves are deterministic (synthetic generators, archives) —
every shard built from the same :class:`WorkerSpec` serves byte-
identical streams, which is what makes failover trivial: a shard keeps
no session state (its resume tokens carry the whole session, see
:mod:`repro.net.messages`), so there is nothing to replicate and any
shard honors any shard's tokens.

The spec crosses the process boundary by pickling, so the catalog
travels as a zero-argument *factory* (a module-level function or
``functools.partial``), not as live clip objects: the child calls it
once to build its :class:`~repro.streaming.server.MediaServer`.

Lifecycle runs over a :class:`multiprocessing.Pipe`: the child reports
``("ready", bound_port)`` once listening (``port=0`` in the spec means
each shard picks its own free port — the parent learns the real one
here), then blocks until the parent sends ``"stop"`` (graceful: drain,
then close) or dies (pipe EOF, same path).  Chaos tests and real crashes
skip the protocol entirely: the coordinator SIGKILLs the process and the
router notices on its next handoff or health probe.

Sessions arrive on the shard's end of the router's handoff pair: each
message is one client socket (SCM_RIGHTS) plus the opening record the
router already read, which the server adopts
(:meth:`~repro.net.server.AnnotationStreamServer.adopt`).
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from typing import Callable, Optional

from ..net.codec import MAX_OPENING_RECORD_BYTES
from ..net.config import ServeConfig
from ..net.server import AnnotationStreamServer
from ..streaming.server import MediaServer

__all__ = ["WorkerSpec"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard process needs, in picklable form.

    Parameters
    ----------
    shard_id:
        Stable name of this shard (the id placed on the router's hash
        ring and stamped on its telemetry labels).
    catalog_factory:
        Zero-argument picklable callable returning the shard's
        :class:`~repro.streaming.server.MediaServer`.  Called once,
        inside the child process.  Every shard of a fleet must be given
        a factory producing the *same* deterministic catalog — that
        equivalence is what failover relies on.
    host:
        Interface the shard binds.
    port:
        Requested port; 0 (default) lets the shard pick a free one and
        report it back through the lifecycle pipe.
    config:
        The shard's :class:`~repro.net.config.ServeConfig`.  ``None``
        uses the defaults.
    """

    shard_id: str
    catalog_factory: Callable[[], MediaServer]
    host: str = "127.0.0.1"
    port: int = 0
    config: Optional[ServeConfig] = None


def worker_main(spec: WorkerSpec, conn, channel: socket.socket) -> None:
    """Child-process entry point: serve ``spec`` until told to stop.

    ``conn`` is the child end of a :class:`multiprocessing.Pipe`,
    ``channel`` the shard's end of the handoff pair (both described in
    the module docstring).  Never raises — a failure to build or bind
    is reported as ``("error", message)`` and the process exits.
    """
    try:
        asyncio.run(_serve(spec, conn, channel))
    except Exception as exc:  # noqa: BLE001 - report, don't traceback-spam
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
    finally:
        conn.close()
        channel.close()


def _take_handoff(server: AnnotationStreamServer, channel: socket.socket) -> None:
    """Adopt the client socket of one handoff message, if one is ready."""
    try:
        record, fds, _, _ = socket.recv_fds(channel, MAX_OPENING_RECORD_BYTES, 1)
    except BlockingIOError:
        return
    except OSError:
        record, fds = b"", []
    if fds:
        server.adopt(socket.socket(fileno=fds[0]), record)
    elif not record:  # the router's end is gone: nothing more will arrive
        asyncio.get_running_loop().remove_reader(channel.fileno())


async def _serve(spec: WorkerSpec, conn, channel: socket.socket) -> None:
    media = spec.catalog_factory()
    server = AnnotationStreamServer(
        media, host=spec.host, port=spec.port, config=spec.config
    )
    await server.start()
    loop = asyncio.get_running_loop()
    channel.setblocking(False)
    loop.add_reader(channel.fileno(), _take_handoff, server, channel)
    conn.send(("ready", server.port))
    try:
        while True:
            try:
                command = await loop.run_in_executor(None, conn.recv)
            except (EOFError, OSError):
                command = "stop"  # parent died; shut down with it
            if command == "stop":
                break
    finally:
        # Further handoffs now fail at the router, which routes elsewhere.
        loop.remove_reader(channel.fileno())
        channel.close()
        await server.drain()
        await server.close()
    try:
        conn.send(("stopped", spec.shard_id))
    except (OSError, BrokenPipeError):
        pass
