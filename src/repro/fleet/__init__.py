"""Sharded multi-process serving fleet with failover.

One :class:`~repro.net.server.AnnotationStreamServer` is bounded by a
single Python process (the GIL caps its compute concurrency no matter
how many sessions it admits).  ``repro.fleet`` scales past that by
running N of them as worker processes over the same deterministic
catalog, behind a single-address asyncio router:

* :mod:`repro.fleet.ring` — consistent-hash ring: clip → shard with
  stable placement (cache warmth) and ~1/N movement on resize.
* :mod:`repro.fleet.worker` — the shard process: a picklable
  :class:`~repro.fleet.worker.WorkerSpec` plus the child entry point.
* :mod:`repro.fleet.router` — the L7 front door: routes hellos by clip,
  re-routes resumes on shard death (failover), spills over on
  admission pressure, answers aggregate ``health``/``stats`` probes,
  and hands each routed client socket to its shard (it never carries
  session bytes).
* :mod:`repro.fleet.coordinator` — process lifecycle: spawn workers,
  collect their bound ports, run the router, drain and reap; plus the
  chaos hook :meth:`~repro.fleet.coordinator.FleetCoordinator.kill_shard`.

Failover needs no replication protocol: annotated streams are
deterministic functions of (clip, quality, device, switch plan), so the
resume token every server issues (:mod:`repro.net.messages`) is all the
state a replica needs to continue a dead shard's session
byte-identically.

Entry points: ``repro serve --shards N`` runs a fleet from the CLI,
``repro fleet status`` prints a running fleet's topology, and
:class:`FleetCoordinator` is the programmatic API.
"""

from .coordinator import FleetCoordinator, FleetError
from .ring import HashRing
from .router import FleetRouter, ShardLink
from .worker import WorkerSpec

__all__ = [
    "FleetCoordinator",
    "FleetError",
    "FleetRouter",
    "HashRing",
    "ShardLink",
    "WorkerSpec",
]
