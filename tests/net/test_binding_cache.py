"""The media server's device-binding store (``MediaServer.bindings``).

Binding a track to a device is the same work for every session that
asks for the same (clip registration, quality, policy, device, ambient),
so the server keeps each bound track.
These tests count the binds that actually run, check that a replaced
clip never serves its old binding, and that client-chosen ambient specs
cannot grow the store past its bound.
"""

import asyncio
import random
import threading

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.core.annotation import AnnotationTrack
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    FaultSpec,
    LossyTransport,
)
from repro.streaming import ClientCapabilities, MediaServer, SessionRequest
from repro.streaming import server as media_server_module
from repro.video import ArrayClip

PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05
DEVICE = "ipaq5555"
CLIP = "bindclip"


def _clip(level=0.3, frames=30, name=CLIP):
    """Dark and bright halves around ``level``, so the track has scenes."""
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 40, size=(frames, 24, 32, 3)).astype(np.float64)
    pixels[: frames // 2] += 255 * level
    pixels[frames // 2:] += 255 * min(level + 0.5, 0.8)
    return ArrayClip(np.clip(pixels, 0, 255).astype(np.uint8), fps=24.0,
                     name=name)


def _media(*clips):
    media = MediaServer(params=PARAMS, profile_cache=ProfileCache(max_entries=4))
    for clip in clips:
        media.add_clip(clip)
    return media


def _session(media, quality=QUALITY, name=CLIP):
    return media.open_session(
        SessionRequest(name, quality, ClientCapabilities(DEVICE))
    )


@pytest.fixture
def binds(monkeypatch):
    """Counts of the dark-room and ambient binds that actually run."""
    counts = {"plain": 0, "ambient": 0}
    plain = AnnotationTrack.bind
    ambient = media_server_module.bind_with_ambient_trace

    def counting_bind(self, device):
        counts["plain"] += 1
        return plain(self, device)

    def counting_ambient(*args, **kwargs):
        counts["ambient"] += 1
        return ambient(*args, **kwargs)

    monkeypatch.setattr(AnnotationTrack, "bind", counting_bind)
    monkeypatch.setattr(media_server_module, "bind_with_ambient_trace",
                        counting_ambient)
    return counts


def test_repeated_binding_is_a_hit(binds):
    media = _media(_clip())
    session = _session(media)
    first = media.build_stream(session)
    again = media.build_stream(_session(media))
    assert binds["plain"] == 1
    assert again.track is first.track
    media.build_stream(session, ambient="office")
    media.build_stream(session, ambient="office")
    assert binds["ambient"] == 1
    media.build_stream(session, quality=0.2)
    assert binds["plain"] == 2
    stats = media.bindings.stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (2, 3, 3)


def test_cached_record_matches_an_uncached_bind():
    media = _media(_clip())
    fresh = _media(_clip())
    for quality, ambient in [(QUALITY, None), (0.2, "office"), (QUALITY, "250")]:
        session = _session(media)
        media.build_stream(session, quality=quality, ambient=ambient)
        cached = media.build_stream(session, quality=quality, ambient=ambient)
        uncached = fresh.build_stream(_session(fresh), quality=quality,
                                      ambient=ambient)
        fresh.bindings.clear()
        assert cached.track.to_bytes() == uncached.track.to_bytes()


def test_reregistered_clip_never_serves_its_old_binding(binds):
    media = _media(_clip(level=0.05))
    old = media.build_stream(_session(media)).track.to_bytes()
    replacement = _clip(level=0.6)
    media.add_clip(replacement)
    new = media.build_stream(_session(media)).track.to_bytes()
    assert binds["plain"] == 2
    # The same pixels under a new object are a new registration too.
    media.add_clip(_clip(level=0.6))
    media.build_stream(_session(media))
    assert binds["plain"] == 3
    reference = _media(replacement)
    assert new != old
    assert new == reference.build_stream(_session(reference)).track.to_bytes()


def test_hostile_ambient_specs_never_grow_the_store_past_its_bound(
        monkeypatch, binds):
    monkeypatch.setattr(media_server_module, "BINDING_ENTRIES", 8)
    media = _media(_clip())
    session = _session(media)
    for lux in range(200):
        media.build_stream(session, ambient=f"{lux}.5")
        assert len(media.bindings) <= 8
    assert binds["ambient"] == 200
    assert media.bindings.evictions == 192


def test_default_bound_holds_under_distinct_ambient_specs():
    media = _media(_clip(frames=12))
    session = _session(media)
    bound = media_server_module.BINDING_ENTRIES
    for lux in range(bound + 40):
        media.build_stream(session, ambient=str(lux))
    assert len(media.bindings) == bound


def test_threads_share_one_binding():
    """Compute threads that bind the same way at once all get the same
    binding, and the store keeps one entry."""
    media = _media(_clip())
    session = _session(media)
    tracks = []
    barrier = threading.Barrier(6)

    def bind():
        barrier.wait()
        for _ in range(20):
            tracks.append(media.build_stream(session, ambient="office").track)

    threads = [threading.Thread(target=bind) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(tracks) == 120
    assert len({track.to_bytes() for track in tracks}) == 1
    assert len(media.bindings) == 1


def test_resumed_session_binds_nothing_again(device, binds):
    """A fetch killed mid-stream and resumed binds its track once."""
    media = _media(_clip(frames=40))

    async def run():
        async with AnnotationStreamServer(media) as server:
            spec = FaultSpec(kill_after_records=6, max_faults=1, seed=3)
            async with LossyTransport(*server.address, spec) as lossy:
                client = AsyncMobileClient(device, max_retries=2, jitter_s=0.0,
                                           rng=random.Random(0))
                return await client.fetch(*lossy.address, CLIP, QUALITY)

    fetched = asyncio.run(run())
    assert fetched.resumes == 1
    assert binds["plain"] == 1
    assert media.bindings.hits >= 1
