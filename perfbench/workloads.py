"""Workload inputs and the server-side process tree.

Everything the program sees is generated here from the workload seed:
the catalogs (including the ``cold_ingest`` content variants), the
(clip, quality, device) session schedules, the battery and ambient
traces and the connection-kill points.  The server side runs in a
child interpreter of its own (:func:`host_process`), so its CPU is
measured apart from the load generator's; on ``adapt_resume`` that
process runs the fleet router and forks the two shards.

The traced run swaps :class:`~repro.streaming.MediaServer` for
:class:`TracedMediaServer`, which brackets the public entry points the
wire server calls with benchmark spans.  The spans land in the shard's
own telemetry registry and are read back through the ``server_stats``
probe, so nothing inside ``src/`` changes for the trace.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
from dataclasses import dataclass
from time import perf_counter
from multiprocessing.connection import Connection
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core import QUALITY_LEVELS, ProfileCache, SchemeParameters
from repro.fleet import FleetCoordinator
from repro.net import AnnotationStreamServer, ServeConfig
from repro.streaming import MediaServer, PacketType
from repro.telemetry import emit_span, registry, trace
from repro.video import (
    PAPER_CLIP_NAMES,
    ArrayClip,
    Frame,
    LazyClip,
    SceneSpec,
    ScriptedClipFactory,
    make_clip,
)

WORKLOADS = ("warm_qvga", "cold_ingest", "adapt_resume")
DEVICES = ("ipaq5555", "ipaq3650", "zaurus_sl5600")

# warm_qvga: a dark, a night-time and a bright title at a PDA's 320x240.
WARM_TITLES = ("themovie", "catwoman", "ice_age")
WARM_RESOLUTION = (320, 240)
WARM_DURATION_SCALE = 0.25
WARM_QUALITIES = (0.05, 0.15)
WARM_DEVICES = ("ipaq5555", "zaurus_sl5600")

# cold_ingest: seeded re-graded variants of the library titles.
COLD_RESOLUTION = (64, 48)
COLD_DURATION_SCALE = 0.3
COLD_WARMUP_CLIPS = 10
#: Catalog headroom: distinct never-profiled clips per timed second.
COLD_CLIPS_PER_SECOND = 100

# adapt_resume: scene-rich clips split 2/2 across a 2-shard hash ring.
ADAPT_TITLES = ("adapt-0", "adapt-2", "adapt-3", "adapt-4")
ADAPT_RESOLUTION = (64, 48)
ADAPT_FPS = 24.0
ADAPT_SCENES = 16
ADAPT_SCENE_FRAMES = 15
ADAPT_SHARDS = 2
ADAPT_PARAMS = SchemeParameters(min_scene_interval_frames=8)
#: Live switches only land while production is still in flight, so the
#: shards pace the producer record by record against the client's reads.
PACED = ServeConfig(
    portable_tokens=True, queue_depth=1, batch_records=1, batch_bytes=1
)


@dataclass(frozen=True)
class Session:
    """One scheduled fetch: what the load generator asks for."""

    clip: str
    quality: float
    device: str
    #: adapt_resume only: records the relay forwards before its one kill.
    kill_after: Optional[int] = None
    #: adapt_resume only: constant load draining the modeled battery.
    battery_w: Optional[float] = None
    #: adapt_resume only: when the light sensor moves to office light.
    office_at_s: Optional[float] = None


@dataclass(frozen=True)
class HostSpec:
    """What the server-side process builds (picklable)."""

    workload: str
    seed: int
    seconds: int
    traced: bool = False


# ----------------------------------------------------------------------
# Catalogs
# ----------------------------------------------------------------------
def cold_clip_names(seconds: int) -> Tuple[List[str], List[str]]:
    """``(warm-up clips, timed clips)`` of the cold_ingest catalog."""
    warm = [f"ingest-w{k}" for k in range(COLD_WARMUP_CLIPS)]
    timed = [f"ingest-{k:05d}" for k in range(COLD_CLIPS_PER_SECOND * seconds)]
    return warm, timed


class _Regraded:
    """Frame factory of one ingest clip: a re-graded library title.

    A seeded tone curve (gamma plus black/white points) and a rotated
    frame order turn one rendered base title into a content variant
    whose pixels, histograms and annotations differ from every other
    variant's, at the cost of one table lookup per frame read.
    """

    def __init__(self, base: np.ndarray, lut: np.ndarray, offset: int):
        self._base = base
        self._lut = lut
        self._offset = offset

    def __call__(self, index: int) -> Frame:
        src = (index + self._offset) % self._base.shape[0]
        return Frame(np.take(self._lut, self._base[src]), index=index)


def _cold_variant(bases, seed: int, name: str) -> LazyClip:
    rng = random.Random(f"cold:{seed}:{name}")
    base = bases[rng.choice(PAPER_CLIP_NAMES)]
    gamma = rng.uniform(0.6, 1.6)
    black = rng.uniform(0.0, 0.08)
    white = rng.uniform(0.85, 1.0)
    codes = np.arange(256) / 255.0
    curve = black + (white - black) * codes ** gamma
    lut = np.round(np.clip(curve, 0.0, 1.0) * 255).astype(np.uint8)
    offset = rng.randrange(base.shape[0])
    return LazyClip(_Regraded(base, lut, offset), frame_count=base.shape[0],
                    fps=30.0, name=name, resolution=COLD_RESOLUTION)


def _adapt_clip(seed: int, name: str) -> ArrayClip:
    """Dark / action / bright scenes: every switch has a boundary soon."""
    rng = random.Random(f"adapt:{seed}:{name}")
    scenes = []
    for i in range(ADAPT_SCENES):
        kind = ("dark", "action", "dark", "bright")[i % 4]
        if kind == "dark":
            params = {"background": rng.uniform(0.06, 0.2),
                      "highlight": rng.uniform(0.6, 0.9), "glow_level": 0.25}
        elif kind == "bright":
            params = {"background": rng.uniform(0.7, 0.85), "variation": 0.1}
        else:
            params = {}
        scenes.append(SceneSpec(kind, ADAPT_SCENE_FRAMES, params))
    factory = ScriptedClipFactory(scenes, resolution=ADAPT_RESOLUTION,
                                  seed=rng.randrange(1 << 16))
    lazy = LazyClip(factory, frame_count=factory.frame_count, fps=ADAPT_FPS,
                    name=name, resolution=ADAPT_RESOLUTION)
    return ArrayClip.from_clip(lazy)


def catalog(spec: HostSpec, names: Optional[List[str]] = None) -> list:
    """The workload's clips (all of them, or just ``names``)."""
    if spec.workload == "warm_qvga":
        wanted = WARM_TITLES if names is None else names
        return [ArrayClip.from_clip(make_clip(
            title, resolution=WARM_RESOLUTION,
            duration_scale=WARM_DURATION_SCALE,
        )) for title in wanted]
    if spec.workload == "cold_ingest":
        bases = {
            title: ArrayClip.from_clip(make_clip(
                title, resolution=COLD_RESOLUTION,
                duration_scale=COLD_DURATION_SCALE,
            )).pixels
            for title in PAPER_CLIP_NAMES
        }
        if names is None:
            warm, timed = cold_clip_names(spec.seconds)
            names = warm + timed
        return [_cold_variant(bases, spec.seed, name) for name in names]
    if spec.workload == "adapt_resume":
        wanted = ADAPT_TITLES if names is None else names
        return [_adapt_clip(spec.seed, name) for name in wanted]
    raise ValueError(f"unknown workload {spec.workload!r}")


def build_media(spec: HostSpec, names: Optional[List[str]] = None) -> MediaServer:
    """The server's catalog: a traced or plain :class:`MediaServer`."""
    cls = TracedMediaServer if spec.traced else MediaServer
    params = ADAPT_PARAMS if spec.workload == "adapt_resume" else SchemeParameters()
    media = cls(params=params, engine="chunked",
                profile_cache=ProfileCache(max_entries=8))
    for clip in catalog(spec, names):
        media.add_clip(clip)
    return media


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def _shuffled(rng: random.Random, items: list) -> Iterator:
    """Endless seeded permutations of ``items``: every item equally often,
    so the mix (and what it costs) barely moves between seeds."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def schedule(spec: HostSpec, phase: str) -> Iterator[Session]:
    """The seeded session sequence of one phase (``warmup`` or ``timed``).

    Finite for ``cold_ingest`` (each timed session is the first request
    for its clip, so the catalog bounds it) and for every warm-up;
    endless otherwise.
    """
    rng = random.Random(f"{spec.workload}:{spec.seed}:{phase}")
    if spec.workload == "warm_qvga":
        combos = [(t, q, d) for t in WARM_TITLES for q in WARM_QUALITIES
                  for d in WARM_DEVICES]
        mix = _shuffled(rng, combos)
        # The warm-up requests every variant once: tracks and LUTs warm.
        for _ in combos if phase == "warmup" else itertools.count():
            yield Session(*next(mix))
    elif spec.workload == "cold_ingest":
        warm, timed = cold_clip_names(spec.seconds)
        mix = _shuffled(rng, [(q, d) for q in QUALITY_LEVELS for d in DEVICES])
        for name in warm if phase == "warmup" else timed:
            yield Session(name, *next(mix))
    elif spec.workload == "adapt_resume":
        frames = ADAPT_SCENES * ADAPT_SCENE_FRAMES
        openings = [(t, q) for t in ADAPT_TITLES for q in (0.0, 0.05)]
        if phase == "warmup":  # every title at every opening quality
            mix = iter([(t, q, DEVICES[k % len(DEVICES)])
                        for k, (t, q) in enumerate(openings)])
        else:
            mix = _shuffled(rng, [(t, q, d) for t, q in openings
                                  for d in DEVICES])
        for combo in mix:
            yield Session(
                *combo,
                kill_after=rng.randrange(frames // 8, frames * 7 // 8),
                battery_w=rng.uniform(8.0, 12.0),
                office_at_s=rng.uniform(0.5, 6.0),
            )
    else:
        raise ValueError(f"unknown workload {spec.workload!r}")


# ----------------------------------------------------------------------
# Traced catalog: benchmark spans around the layers' public calls
# ----------------------------------------------------------------------
FRAMES_COMPENSATED = "perfbench_frames_compensated_total"
PROFILE_MISSES = "perfbench_profile_cache_misses"


class _TimedStream:
    """An :class:`~repro.core.AnnotatedStream` whose chunk iterator is timed.

    Advancing ``iter_chunks`` is where compensation runs; the busy time
    of one iterator is emitted as one ``perfbench.core.compensate`` span.
    Everything else is delegated untouched.
    """

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def iter_chunks(self, *args, **kwargs):
        chunks = self._stream.iter_chunks(*args, **kwargs)
        busy = 0.0
        frames = 0
        try:
            while True:
                t0 = perf_counter()
                try:
                    chunk = next(chunks)
                except StopIteration:
                    break
                busy += perf_counter() - t0
                frames += len(chunk)
                yield chunk
        finally:
            chunks.close()
            emit_span("perfbench.core.compensate", busy)
            registry().counter(FRAMES_COMPENSATED).inc(frames)


class TracedMediaServer(MediaServer):
    """A :class:`MediaServer` with benchmark spans on its public calls.

    ``profile`` / ``annotation_track`` / ``build_stream`` run inside
    ``perfbench.core.*`` spans (inclusive: a track build contains its
    profile pass, a bind contains its track lookup), ``profile`` also
    publishes its content-keyed cache's miss count, and each
    ``stream_batches`` generator reports its busy time and the busy time
    before its first frame group as ``perfbench.streaming.*`` spans.
    """

    def profile(self, clip_name):
        with trace("perfbench.core.profile"):
            result = super().profile(clip_name)
        # Absolute, so concurrent calls cannot double-count a miss.
        registry().gauge(PROFILE_MISSES).set(self.profile_cache.misses)
        return result

    def annotation_track(self, clip_name, quality):
        with trace("perfbench.core.track"):
            return super().annotation_track(clip_name, quality)

    def build_stream(self, session, quality=None, ambient=None):
        with trace("perfbench.core.bind"):
            stream = super().build_stream(session, quality=quality,
                                          ambient=ambient)
        return _TimedStream(stream)

    def stream_batches(self, session, *args, **kwargs):
        groups = super().stream_batches(session, *args, **kwargs)
        busy = 0.0
        first = None
        try:
            while True:
                t0 = perf_counter()
                try:
                    group = next(groups)
                except StopIteration:
                    break
                busy += perf_counter() - t0
                if first is None and any(
                    p.ptype is PacketType.FRAME for p in group
                ):
                    first = busy
                yield group
        finally:
            groups.close()
            emit_span("perfbench.streaming.emit", busy)
            if first is not None:
                emit_span("perfbench.streaming.first_group", first)


# ----------------------------------------------------------------------
# The server-side process
# ----------------------------------------------------------------------
def host_main(spec: HostSpec, conn) -> None:
    """Child entry point: serve ``spec`` until the parent says ``stop``.

    Reports ``("ready", port, [(shard_port, shard_pid), ...])`` once
    listening (no shards outside ``adapt_resume``), or
    ``("error", message)`` when it could not start.
    """
    try:
        asyncio.run(_host(spec, conn))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


def host_process(argv: List[str]) -> None:
    """Child interpreter entry: ``fd workload seed seconds traced``.

    ``fd`` is this process's end of the parent's control socket pair.
    """
    fd, workload, seed, seconds, traced = argv
    spec = HostSpec(workload, int(seed), int(seconds), traced == "1")
    host_main(spec, Connection(int(fd)))


async def _host(spec: HostSpec, conn) -> None:
    fleet = spec.workload == "adapt_resume"
    if fleet:
        server = FleetCoordinator(functools.partial(build_media, spec),
                                  shards=ADAPT_SHARDS, config=PACED)
        await server.start()
        port = server.address[1]
        shards = [(s["port"], s["pid"]) for s in server.status()["shards"]]
    else:
        server = AnnotationStreamServer(build_media(spec), config=ServeConfig())
        await server.start()
        port = server.port
        shards = []
    loop = asyncio.get_running_loop()
    try:
        conn.send(("ready", port, shards))
        command = None
        while command != "stop":
            try:
                command = await loop.run_in_executor(None, conn.recv)
            except (EOFError, OSError):
                break  # parent died: shut down with it
    finally:
        if fleet:
            await server.stop()
        else:
            await server.drain()
            await server.close()
