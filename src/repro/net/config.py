"""Config objects for the wire layer: :class:`ServeConfig` and
:class:`FetchOptions`.

The serve and fetch entry points each grew a long tail of keyword
arguments (admission control, resume, drain, batching, compute slots on
the serve side; timeouts, retry policy, resume, circuit breaking on the
fetch side).  Threading a dozen loose kwargs through the facade, the
CLI and every fleet worker invites drift — a flag added to one path and
forgotten on another.  These two frozen dataclasses are the single
source of truth:

* :class:`ServeConfig` — everything an
  :class:`~repro.net.server.AnnotationStreamServer` needs beyond its
  catalog and bind address.  The facade
  (:meth:`repro.api.StreamingService.serve`), ``repro serve`` and every
  :mod:`repro.fleet` worker all build (or accept) one of these, so a
  fleet shard is guaranteed to run the exact policy the foreground
  server would.
* :class:`FetchOptions` — everything an
  :class:`~repro.net.client.AsyncMobileClient` needs beyond the device:
  the one definition behind ``fetch`` / ``fetch_sync`` /
  ``fetch_stream`` / ``fetch_stream_sync``.

Both are frozen: validated once in ``__post_init__``, then shared
freely across threads, event loops and (for :class:`ServeConfig`)
pickled into worker processes.  Derive variants with :meth:`replace`.

The old per-call keyword spellings finished their deprecation cycle:
the call sites accept only these objects.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..display.devices import DeviceProfile
    from .client import AsyncMobileClient, CircuitBreaker

__all__ = ["ServeConfig", "FetchOptions"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy for one :class:`~repro.net.server.AnnotationStreamServer`.

    Groups the knobs that used to sprawl across
    ``AnnotationStreamServer.__init__`` /
    :meth:`repro.api.StreamingService.serve` keyword lists.  Frozen and
    picklable, so one instance can parameterize the facade, the CLI and
    every :mod:`repro.fleet` worker process identically.

    Parameters
    ----------
    queue_depth:
        Accepted and ignored; it has no effect.  A session's stream runs
        at most one compensation step ahead of its socket writes, and
        its writes at most the progress window past what a reporting
        client holds (:data:`~repro.net.messages.PROGRESS_WINDOW`), so
        there is no send queue to bound.  The field goes once no caller
        passes it any more.
    hello_timeout_s:
        How long a fresh connection may take to present its opening
        control message before the server hangs up.
    max_sessions:
        Admission-control cap on concurrently served sessions.  ``None``
        (default) means uncapped.  Must be >= 1 when set.
    accept_queue:
        Over-cap connections allowed to wait for a slot before the
        server sheds load with ``busy`` messages.
    accept_timeout_s:
        How long a queued connection waits for a slot before being shed.
    busy_retry_after_s:
        The retry-after hint carried by ``busy`` messages.
    portable_tokens:
        Accepted and ignored; it has no effect.  Every resume token is
        portable (:func:`~repro.net.messages.encode_portable_token`).
        The field goes once no caller passes it any more.
    drain_timeout_s:
        Default deadline for the server's graceful
        :meth:`~repro.net.server.AnnotationStreamServer.drain`.
    batch_records / batch_bytes:
        Flush thresholds for a session's coalesced wire batches
        (records / buffered bytes).  Both must be >= 1.
    compute_slots:
        How many sessions may run a compensation step at once: the
        size of the server's compute executor.  ``None`` defaults to
        the host's core count at server construction.  Must be >= 1
        when set.
    ambient:
        Optional serve-time ambient spec: a preset name
        (``"office"``), numeric illuminance, or a simulated
        light-sensor trace (``"0:dark-room,30:office"``).  Every
        session's scenes are then bound under the trace's condition at
        the scene's start time (see
        :func:`repro.display.bind_with_ambient_trace`).  ``None``
        (default) keeps the classic dark-room binding.

    Raises
    ------
    ValueError
        If any numeric parameter is out of range.
    """

    queue_depth: int = 32
    hello_timeout_s: float = 10.0
    max_sessions: Optional[int] = None
    accept_queue: int = 0
    accept_timeout_s: float = 5.0
    busy_retry_after_s: float = 0.25
    portable_tokens: bool = True
    drain_timeout_s: float = 10.0
    batch_records: int = 32
    batch_bytes: int = 1 << 20
    compute_slots: Optional[int] = None
    ambient: Optional[str] = None

    def __post_init__(self):
        if self.ambient is not None:
            # Validate eagerly: a bad spec should fail at config build,
            # not on the first session.  Imported lazily to keep this
            # module import-light for worker pickling.
            from ..display.ambient import as_ambient_trace

            as_ambient_trace(self.ambient)
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        if self.batch_bytes < 1:
            raise ValueError("batch_bytes must be >= 1")
        if self.compute_slots is not None and self.compute_slots < 1:
            raise ValueError("compute_slots must be >= 1 when set")
        if self.hello_timeout_s <= 0:
            raise ValueError("hello_timeout_s must be positive")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 when set")
        if self.accept_queue < 0:
            raise ValueError("accept_queue must be non-negative")
        if self.accept_timeout_s <= 0:
            raise ValueError("accept_timeout_s must be positive")
        if self.busy_retry_after_s < 0:
            raise ValueError("busy_retry_after_s must be non-negative")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolved_compute_slots(self) -> int:
        """``compute_slots`` with the host-core-count default applied."""
        if self.compute_slots is not None:
            return self.compute_slots
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class FetchOptions:
    """Client-side fetch policy for one or more wire fetches.

    The single definition behind the facade's fetch family
    (:func:`repro.api.fetch_stream`, :func:`repro.api.fetch_stream_sync`,
    :meth:`repro.api.StreamingService.fetch`,
    :meth:`repro.api.StreamingService.fetch_sync`): each of those is a
    thin wrapper that builds an
    :class:`~repro.net.client.AsyncMobileClient` from one of these via
    :meth:`client`.

    Parameters
    ----------
    connect_timeout_s / read_timeout_s:
        Deadline for establishing a connection / for each record read.
    max_retries:
        How many times a failed fetch is re-attempted (0 = single shot).
    backoff_base_s / backoff_max_s / jitter_s:
        Exponential backoff: the ``k``-th consecutive attempt that
        could not resume (0-based) is followed by a sleep of
        ``min(base * 2**k, max) + uniform(0, jitter)``.  An attempt that
        delivered data and can resume is followed by an immediate
        reconnect; one that would refetch from scratch (``resume`` off,
        or no token) backs off like an empty one.
    rng:
        Jitter source; pass a seeded :class:`random.Random` for
        deterministic schedules in tests.  ``None`` uses a fresh
        unseeded generator per client.
    resume:
        When True (default), a mid-stream drop reconnects with the
        server-issued resume token instead of refetching from scratch.
    circuit_breaker:
        Optional :class:`~repro.net.client.CircuitBreaker` shared across
        fetches; ``None`` disables fail-fast behavior.
    battery_trace:
        Optional battery load spec (``"t:watts,..."`` or a bare wattage,
        a :class:`repro.power.LoadTrace` spec).  Enables the
        battery-aware client (:class:`~repro.net.client.BatteryClient`):
        as the modeled state of charge crosses its thresholds the client
        issues mid-stream ``requality`` steps down the quality ladder.
    ambient_trace:
        Optional simulated light-sensor spec
        (``"0:dark-room,30:office"`` or a bare ambient).  The battery
        client requests an ambient re-bind whenever the trace's
        condition changes during playback.

    Raises
    ------
    ValueError
        If any timeout/backoff parameter is out of range.
    """

    connect_timeout_s: float = 5.0
    read_timeout_s: float = 30.0
    max_retries: int = 4
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter_s: float = 0.05
    rng: Optional[random.Random] = None
    resume: bool = True
    circuit_breaker: Optional["CircuitBreaker"] = None
    battery_trace: Optional[str] = None
    ambient_trace: Optional[str] = None

    def __post_init__(self):
        if self.connect_timeout_s <= 0 or self.read_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if (self.backoff_base_s < 0 or self.backoff_max_s < 0
                or self.jitter_s < 0):
            raise ValueError("backoff parameters must be non-negative")
        if self.battery_trace is not None:
            from ..power.battery import LoadTrace

            LoadTrace.parse(self.battery_trace)
        if self.ambient_trace is not None:
            from ..display.ambient import as_ambient_trace

            as_ambient_trace(self.ambient_trace)

    def replace(self, **changes) -> "FetchOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def client(self, device: "DeviceProfile") -> "AsyncMobileClient":
        """Build an :class:`~repro.net.client.AsyncMobileClient` for
        ``device`` configured with these options.

        With ``battery_trace`` and/or ``ambient_trace`` set, the client
        is a :class:`~repro.net.client.BatteryClient` that issues
        mid-stream ``requality`` requests as its modeled battery drains
        and its simulated light sensor changes.
        """
        from .client import AsyncMobileClient, BatteryClient

        kwargs = dict(
            connect_timeout_s=self.connect_timeout_s,
            read_timeout_s=self.read_timeout_s,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            backoff_max_s=self.backoff_max_s,
            jitter_s=self.jitter_s,
            rng=self.rng,
            resume=self.resume,
            circuit_breaker=self.circuit_breaker,
        )
        if self.battery_trace is not None or self.ambient_trace is not None:
            return BatteryClient(
                device,
                battery_trace=self.battery_trace,
                ambient_trace=self.ambient_trace,
                **kwargs,
            )
        return AsyncMobileClient(device, **kwargs)
