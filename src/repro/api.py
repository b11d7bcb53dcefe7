"""`repro.api`: the unified service facade — the supported entry surface.

Historically the library grew several scattered entry points: build an
:class:`~repro.core.pipeline.AnnotationPipeline` by hand, construct a
:class:`~repro.streaming.server.MediaServer` ad hoc, call
:func:`~repro.core.pipeline.sweep_quality_levels`, wire archives and
engines yourself.  The building blocks remain importable from their
home modules, but the pre-facade top-level aliases (and the one-shot
``run_pipeline`` helper) are gone after a full deprecation cycle; the
**supported** way in is this module plus the names re-exported in
``repro.__all__``:

* :class:`AnnotationService` — the offline side: profile a clip, produce
  annotation tracks, build playable annotated streams, sweep quality
  levels.
* :class:`StreamingService` — the serving side: a catalog fronted by one
  object, streamable in-process (sync) or over asyncio TCP via
  :meth:`StreamingService.serve` / :meth:`StreamingService.fetch`.
* :func:`configure_engine` — a process-wide default execution engine
  picked up by every service (and the CLI) when no explicit ``engine=``
  is given.

The CLI routes every subcommand through this facade, so ``repro serve``
and ``python -c "from repro.api import StreamingService"`` exercise the
same code path.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List, Optional, Sequence, Tuple

from .core.annotation import AnnotationTrack, DeviceAnnotationTrack
from .core.dvfs_annotation import DvfsAnnotator
from .core.engine import EngineConfig, EngineSpec, resolve_engine
from .core.pipeline import (
    AnnotatedStream,
    AnnotationPipeline,
    ProfileResult,
    sweep_quality_levels,
)
from .core.policies import PolicySpec
from .core.policy import QUALITY_LEVELS, SchemeParameters
from .core.profile_cache import ProfileCache
from .display.devices import DeviceProfile, get_device
from .net.config import FetchOptions, ServeConfig
from .player.playback import PlaybackResult
from .streaming.client import MobileClient
from .streaming.network import NetworkPath
from .streaming.packets import MediaPacket
from .streaming.server import MediaServer
from .streaming.session import SessionDescription
from .video.clip import ClipBase

__all__ = [
    "AnnotationService",
    "FetchOptions",
    "ServeConfig",
    "StreamingService",
    "configure_engine",
    "default_engine",
    "fetch_stream",
    "fetch_stream_sync",
    "server_status",
    "server_status_sync",
    "server_stats",
    "server_stats_sync",
]

#: Process-wide default engine, set by :func:`configure_engine`.
_default_engine: EngineSpec = None
_default_engine_lock = threading.Lock()


def configure_engine(
    engine: EngineSpec = None,
    chunk_size: Optional[int] = None,
) -> EngineSpec:
    """Set the process-wide default execution engine; returns the previous.

    ``engine`` is a kind name (``"perframe"``, ``"chunked"``), an
    :class:`~repro.core.engine.EngineConfig`, or ``None`` to reset to the
    library default.  ``chunk_size`` refines a kind name into a full
    config.  Every facade service (and the CLI) resolves ``engine=None``
    against this default.
    """
    global _default_engine
    if engine is not None and chunk_size is not None:
        engine = EngineConfig(kind=resolve_engine(engine).kind, chunk_size=chunk_size)
    elif engine is not None:
        resolve_engine(engine)  # validate eagerly
    with _default_engine_lock:
        previous = _default_engine
        _default_engine = engine
    return previous


def default_engine() -> EngineSpec:
    """The engine used when a facade call passes ``engine=None``."""
    return _default_engine


def _effective_engine(engine: EngineSpec) -> EngineSpec:
    return engine if engine is not None else _default_engine


def _resolve_device(device) -> DeviceProfile:
    """Accept a device profile object or a registry name."""
    if isinstance(device, DeviceProfile):
        return device
    return get_device(device)


class AnnotationService:
    """Offline annotation workflows behind one object.

    Wraps :class:`~repro.core.pipeline.AnnotationPipeline` with the
    engine default from :func:`configure_engine` and device-name
    resolution, so callers hold clips and strings, not pipeline plumbing.

    Parameters
    ----------
    params:
        Scheme parameters (quality level, scene thresholds).
    engine:
        Execution engine override; ``None`` uses the
        :func:`configure_engine` default.
    profile_cache:
        Optional content-keyed profile cache shared across calls.
    policy:
        Backlight policy used for annotation (``None``, a registered
        name such as ``"hebs"``, or a
        :class:`~repro.core.policies.BacklightPolicy` instance).
    """

    def __init__(
        self,
        params: SchemeParameters = SchemeParameters(),
        engine: EngineSpec = None,
        profile_cache: Optional[ProfileCache] = None,
        policy: PolicySpec = None,
    ):
        self.params = params
        self.engine = _effective_engine(engine)
        self.profile_cache = profile_cache
        self.policy = policy

    def _pipeline(self, params: Optional[SchemeParameters] = None) -> AnnotationPipeline:
        return AnnotationPipeline(
            params if params is not None else self.params,
            engine=self.engine,
            profile_cache=self.profile_cache,
            policy=self.policy,
        )

    def profile(self, clip: ClipBase) -> ProfileResult:
        """Run the analysis + scene-detection stages for one clip."""
        return self._pipeline().profile(clip)

    def annotate(
        self, clip: ClipBase, quality: Optional[float] = None
    ) -> AnnotationTrack:
        """Produce the device-independent annotation track for ``clip``.

        ``quality`` overrides the service's clipped-pixel budget for
        this call; ``None`` keeps ``self.params.quality``.  Returns an
        :class:`~repro.core.annotation.AnnotationTrack`.
        """
        params = self.params if quality is None else self.params.with_quality(quality)
        return self._pipeline(params).annotate(clip)

    def annotate_for_device(
        self, clip: ClipBase, device, quality: Optional[float] = None
    ) -> DeviceAnnotationTrack:
        """Annotate ``clip`` and bind the track to ``device``.

        ``device`` is a :class:`~repro.display.devices.DeviceProfile`
        or a registry name; ``quality`` optionally overrides the
        clipped-pixel budget.  Returns a
        :class:`~repro.core.annotation.DeviceAnnotationTrack`.
        """
        return self.annotate(clip, quality=quality).bind(_resolve_device(device))

    def build_stream(self, clip: ClipBase, device) -> AnnotatedStream:
        """Annotate ``clip``, bind it to ``device`` (object or registry
        name) and wrap both as a playable
        :class:`~repro.core.pipeline.AnnotatedStream`."""
        return self._pipeline().build_stream(clip, _resolve_device(device))

    def sweep(
        self,
        clip: ClipBase,
        device,
        qualities: Sequence[float] = QUALITY_LEVELS,
    ) -> List[AnnotatedStream]:
        """Annotate ``clip`` for ``device`` at each quality level in
        ``qualities`` (default: the paper's 0/5/10/15/20 % ladder),
        profiling the pixels only once.  Returns one
        :class:`~repro.core.pipeline.AnnotatedStream` per level.
        """
        return sweep_quality_levels(
            clip,
            _resolve_device(device),
            qualities,
            params=self.params,
            engine=self.engine,
            profile_cache=self.profile_cache,
            policy=self.policy,
        )


class StreamingService:
    """The serving side of Figure 1 behind one object.

    Owns a :class:`~repro.streaming.server.MediaServer` (catalog,
    annotation caches, packet emission) and layers the two delivery
    modes on top:

    * **in-process** — :meth:`stream` / :meth:`play` yield the packet
      sequence directly (the pre-wire behavior);
    * **wire** — :meth:`serve` hosts the catalog on asyncio TCP and
      :meth:`fetch` / :meth:`fetch_sync` pull a stream back through a
      retrying :class:`~repro.net.client.AsyncMobileClient`.

    Parameters
    ----------
    params:
        Scheme parameters (quality level, scene thresholds) used when
        annotating catalog content.
    qualities:
        The quality ladder offered during session negotiation.
    dvfs_annotator:
        Optional :class:`~repro.core.dvfs_annotation.DvfsAnnotator`; when
        set, sessions also carry DVFS annotation packets.
    codec:
        Optional :class:`~repro.video.codec.CodecModel` providing
        compressed wire sizes for frame packets.
    engine:
        Execution engine override; ``None`` uses the
        :func:`configure_engine` default.
    profile_cache:
        Optional content-keyed profile cache shared across sessions.
    policy:
        Backlight policy used when annotating catalog content (``None``,
        a registered name, or an instance).
    ambient:
        Optional serve-time ambient spec: a preset name, numeric
        illuminance, or a simulated light-sensor trace
        (``"0:dark-room,30:office"``).  Sessions are then bound under
        the trace's condition at each scene's start time instead of the
        classic dark-room binding.
    """

    def __init__(
        self,
        params: SchemeParameters = SchemeParameters(),
        qualities: Tuple[float, ...] = QUALITY_LEVELS,
        dvfs_annotator: Optional[DvfsAnnotator] = None,
        codec=None,
        engine: EngineSpec = None,
        profile_cache: Optional[ProfileCache] = None,
        policy: PolicySpec = None,
        ambient=None,
    ):
        self.server = MediaServer(
            params=params,
            qualities=qualities,
            dvfs_annotator=dvfs_annotator,
            codec=codec,
            engine=_effective_engine(engine),
            profile_cache=profile_cache,
            policy=policy,
            ambient=ambient,
        )

    # -- catalog -------------------------------------------------------
    def add_clip(self, clip: ClipBase) -> "StreamingService":
        """Register a clip; returns self for chaining."""
        self.server.add_clip(clip)
        return self

    def add_archive(self, path) -> str:
        """Load an annotated archive from ``path``; returns the clip name."""
        return self.server.add_archive(path)

    def export_archive(self, clip_name: str, path) -> None:
        """Write the clip named ``clip_name`` plus all prepared
        annotation variants to ``path`` as an archive."""
        self.server.export_archive(clip_name, path)

    def catalog(self) -> Tuple[str, ...]:
        """Names of all registered clips, sorted."""
        return self.server.catalog()

    # -- in-process serving --------------------------------------------
    def open_session(self, clip_name: str, device, quality: float) -> SessionDescription:
        """Negotiate a session: ``clip_name`` from the catalog, a
        ``device`` (object or registry name) and a ``quality`` budget.
        Returns the :class:`~repro.streaming.session.SessionDescription`.
        """
        client = MobileClient(_resolve_device(device))
        return self.server.open_session(client.request(clip_name, quality))

    def stream(self, session: SessionDescription) -> "list[MediaPacket]":
        """Materialize a session's packet sequence (annotation + frames)."""
        return list(self.server.stream(session))

    def play(
        self,
        clip_name: str,
        device,
        quality: float,
        network: Optional[NetworkPath] = None,
        **playback_kwargs,
    ) -> PlaybackResult:
        """End-to-end in-process run: negotiate ``clip_name`` at
        ``quality`` for ``device``, stream the packets, deliver them over
        the optional ``network`` path model, and play them back
        (``playback_kwargs`` forward to the playback engine).  Returns
        the :class:`~repro.player.playback.PlaybackResult`.
        """
        profile = _resolve_device(device)
        client = MobileClient(profile)
        session = self.server.open_session(client.request(clip_name, quality))
        packets = list(self.server.stream(session))
        delivery = network.deliver(packets) if network is not None else None
        return client.play_stream(
            session, packets, delivery=delivery, **playback_kwargs
        )

    # -- wire serving --------------------------------------------------
    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
    ):
        """Build an (unstarted) asyncio TCP server for this catalog.

        Use as ``async with service.serve() as srv:`` or call
        ``await srv.start()`` / ``await srv.serve_forever()``.

        Parameters
        ----------
        host / port:
            Bind address; ``port=0`` picks a free port (read the bound
            one from ``srv.address`` after start).
        config:
            The serving policy, a :class:`ServeConfig` (admission,
            resume, drain, batching, compute slots).  ``None`` uses the
            defaults.

        Returns
        -------
        :class:`~repro.net.server.AnnotationStreamServer`
            The unstarted server bound to this catalog.
        """
        from .net.server import AnnotationStreamServer

        return AnnotationStreamServer(
            self.server, host=host, port=port, config=config
        )

    async def fetch(
        self, host: str, port: int, clip_name: str, quality: float, device,
        options: Optional[FetchOptions] = None,
    ):
        """Fetch ``clip_name`` at ``quality`` for ``device`` from the wire
        server at ``host``:``port`` (async, with retries); ``options``
        is the :class:`FetchOptions` policy."""
        return await fetch_stream(
            host, port, clip_name, quality, device,
            options=options,
        )

    def fetch_sync(
        self, host: str, port: int, clip_name: str, quality: float, device,
        options: Optional[FetchOptions] = None,
    ):
        """Blocking wrapper over :meth:`fetch` for sync callers: same
        ``host`` / ``port`` / ``clip_name`` / ``quality`` / ``device`` /
        ``options`` arguments and return value."""
        return fetch_stream_sync(
            host, port, clip_name, quality, device,
            options=options,
        )


async def fetch_stream(
    host: str, port: int, clip_name: str, quality: float, device,
    options: Optional[FetchOptions] = None,
):
    """Fetch one annotated stream from any wire server (async, retries).

    The single implementation behind the whole facade fetch family —
    :func:`fetch_stream_sync`, :meth:`StreamingService.fetch` and
    :meth:`StreamingService.fetch_sync` are thin wrappers over this.
    Requests ``clip_name`` at the ``quality`` clipping budget from the
    server at ``host``:``port``.  ``device`` is a profile object or
    registry name; ``options`` is a :class:`FetchOptions` (timeouts,
    retry policy, resume, circuit breaker; ``None`` uses the defaults).
    Returns a :class:`~repro.net.client.FetchResult`.
    """
    opts = options if options is not None else FetchOptions()
    client = opts.client(_resolve_device(device))
    return await client.fetch(host, port, clip_name, quality)


def fetch_stream_sync(
    host: str, port: int, clip_name: str, quality: float, device,
    options: Optional[FetchOptions] = None,
):
    """Blocking wrapper over :func:`fetch_stream` for sync callers.

    Takes the same arguments as :func:`fetch_stream` — ``host``,
    ``port``, ``clip_name``, ``quality``, ``device`` and ``options`` —
    and returns the same
    :class:`~repro.net.client.FetchResult`; raises whatever the
    underlying fetch raises.
    """
    return asyncio.run(
        fetch_stream(
            host, port, clip_name, quality, device,
            options=options,
        )
    )


async def server_status(host: str, port: int, timeout_s: float = 5.0):
    """Probe a wire server's health/readiness (async).

    ``host`` / ``port`` locate the server; ``timeout_s`` bounds connect
    and read.  Returns a :class:`~repro.net.messages.StatusInfo` with
    the server's state, accepting flag and session counts.  Health
    probes bypass admission control, so this works against a saturated
    or draining server.  Raises ``OSError`` / ``asyncio.TimeoutError``
    when the server is unreachable.
    """
    from .net.client import fetch_status

    return await fetch_status(host, port, timeout_s=timeout_s)


def server_status_sync(host: str, port: int, timeout_s: float = 5.0):
    """Blocking wrapper over :func:`server_status` for sync callers.

    Same ``host`` / ``port`` / ``timeout_s`` arguments and
    :class:`~repro.net.messages.StatusInfo` return value as
    :func:`server_status`.
    """
    return asyncio.run(server_status(host, port, timeout_s=timeout_s))


async def server_stats(
    host: str,
    port: int,
    timeout_s: float = 5.0,
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
):
    """Scrape a wire server's live observability snapshot (async).

    ``host`` / ``port`` locate the server; ``timeout_s`` bounds connect
    and read.  ``format`` selects the metrics rendering (``json``
    embeds the full snapshot dict under ``metrics``; ``prometheus``
    embeds exposition text under ``prometheus``).  ``include_events``
    attaches the server's flight-recorder tail, ``include_spans`` its
    collected trace spans, and ``limit`` caps how many of each come
    back.  Like :func:`server_status`, the probe bypasses admission
    control, so it answers from a saturated or draining server.
    Returns the statsdump payload dict (always includes the server's
    ``health`` snapshot).  Raises ``OSError`` /
    ``asyncio.TimeoutError`` when the server is unreachable.
    """
    from .net.client import fetch_stats

    return await fetch_stats(
        host, port, timeout_s=timeout_s, format=format,
        include_events=include_events, include_spans=include_spans,
        limit=limit,
    )


def server_stats_sync(
    host: str,
    port: int,
    timeout_s: float = 5.0,
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
):
    """Blocking wrapper over :func:`server_stats` for sync callers.

    Same ``host`` / ``port`` / ``timeout_s`` / ``format`` /
    ``include_events`` / ``include_spans`` / ``limit`` arguments and
    statsdump payload dict return value as :func:`server_stats`.
    """
    return asyncio.run(server_stats(
        host, port, timeout_s=timeout_s, format=format,
        include_events=include_events, include_spans=include_spans,
        limit=limit,
    ))
