"""Content-keyed profile caching across the streaming layer.

The acceptance contract: a MediaServer profiles each clip's pixels exactly
once, no matter how many quality variants, device bindings, sessions, or
cache-sharing servers consume it — asserted with a counting spy on
``StreamAnalyzer.analyze``.
"""

import os
import subprocess
import sys
import textwrap
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ProfileCache,
    SchemeParameters,
    StreamAnalyzer,
    clip_fingerprint,
    profile_params_key,
    sweep_quality_levels,
)
from repro.core.policy import QUALITY_LEVELS
from repro.display import ipaq_5555
from repro.streaming import ClientCapabilities, MediaServer, SessionRequest
from repro.video import ArrayClip, Frame, VideoClip


@pytest.fixture
def analyze_calls(monkeypatch):
    """Counting spy on the profiling entry point."""
    calls = []
    original = StreamAnalyzer.analyze

    def spy(self, clip):
        calls.append(clip.name)
        return original(self, clip)

    monkeypatch.setattr(StreamAnalyzer, "analyze", spy)
    return calls


def random_clip(seed=0, frames=12, name="clip"):
    rng = np.random.default_rng(seed)
    return ArrayClip(
        rng.integers(0, 256, (frames, 8, 8, 3), dtype=np.uint8), name=name
    )


class TestClipFingerprint:
    def test_same_content_same_fingerprint(self):
        a = random_clip(seed=1)
        b = random_clip(seed=1)
        assert a is not b
        assert clip_fingerprint(a) == clip_fingerprint(b)

    def test_different_content_differs(self):
        assert clip_fingerprint(random_clip(seed=1)) != clip_fingerprint(
            random_clip(seed=2)
        )

    def test_eager_clips_hash_all_pixels(self):
        a = random_clip(seed=3)
        pixels = a.pixels.copy()
        pixels[5, 3, 3, 1] ^= 1  # flip one bit anywhere
        b = ArrayClip(pixels, name=a.name)
        assert clip_fingerprint(a) != clip_fingerprint(b)
        assert clip_fingerprint(a).startswith("full:")

    def test_lazy_clips_are_sampled(self, tiny_clip):
        assert clip_fingerprint(tiny_clip).startswith("sampled:")
        assert clip_fingerprint(tiny_clip) == clip_fingerprint(tiny_clip)

    def test_lazy_fingerprint_leaves_numpy_ma_unimported(self):
        """Fingerprinting a lazy clip runs on serving threads, so it must
        not be what first imports ``numpy.ma`` (``np.unique`` is), and
        its key must equal the ``np.unique`` formula's."""
        script = textwrap.dedent("""
            import hashlib, sys
            import numpy as np
            from repro.core.profile_cache import (
                FINGERPRINT_SAMPLE_FRAMES, clip_fingerprint)
            from repro.video import Frame, LazyClip

            def make(i):
                return Frame(np.full((4, 6, 3), i % 256, dtype=np.uint8), index=i)

            clips = [LazyClip(make, frame_count=n, fps=24.0, name=f"c{n}")
                     for n in (1, 5, 16, 17, 100, 1001)]
            keys = [clip_fingerprint(clip) for clip in clips]
            assert "numpy.ma" not in sys.modules

            def reference(clip):
                digest = hashlib.blake2b(digest_size=16)
                digest.update(type(clip).__name__.encode())
                digest.update(repr((clip.name, clip.frame_count,
                                    float(clip.fps))).encode())
                count = min(FINGERPRINT_SAMPLE_FRAMES, clip.frame_count)
                for i in np.unique(np.linspace(
                        0, clip.frame_count - 1, count).astype(np.int64)):
                    pixels = clip.frame(int(i)).pixels
                    digest.update(np.int64(i).tobytes())
                    digest.update(repr(pixels.shape).encode())
                    digest.update(np.ascontiguousarray(pixels).tobytes())
                return "sampled:" + digest.hexdigest()

            assert keys == [reference(clip) for clip in clips]
            assert "numpy.ma" in sys.modules  # np.unique did import it
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_videoclip_matches_itself_not_name(self):
        batch = random_clip(seed=4).pixels
        a = VideoClip([Frame(p) for p in batch], name="x")
        b = VideoClip([Frame(p) for p in batch], name="y")
        assert clip_fingerprint(a) != clip_fingerprint(b)  # name is metadata


class TestProfileCacheUnit:
    def test_lru_eviction(self):
        cache = ProfileCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)
        assert cache.get("b") is None  # b was least recently used
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_never_holds_more_than_its_bound(self):
        """A new key evicts before it goes in, so a reader that counts the
        store without the lock never sees ``max_entries + 1``."""
        seen = []

        class RecordingEntries(OrderedDict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                seen.append(len(self))

        cache = ProfileCache(max_entries=3)
        cache._entries = RecordingEntries()
        for i in range(10):
            cache.put(i, i)
        cache.put(9, "again")  # a present key replaces in place
        assert max(seen) == cache.max_entries
        assert len(cache) == 3 and cache.evictions == 7
        assert cache.get(9) == "again" and cache.get(6) is None
        assert cache._entries_gauge.value == 3
        assert "entries=3/3" in repr(cache)
        cache.clear()
        assert len(cache) == 0 and cache._entries_gauge.value == 0

    def test_zero_entries_disables(self):
        cache = ProfileCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_get_or_compute(self):
        cache = ProfileCache()
        clip = random_clip(seed=5)
        params = SchemeParameters()
        calls = []
        value = cache.get_or_compute(clip, params, lambda: calls.append(1) or "p")
        again = cache.get_or_compute(clip, params, lambda: calls.append(1) or "p2")
        assert value == "p" and again == "p"
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1

    def test_lookups_register_series_only_after_a_reset(self, monkeypatch):
        from repro import telemetry

        cache = ProfileCache()
        cache.put("a", 1)
        reg = telemetry.registry()
        calls = []
        real = reg.register
        monkeypatch.setattr(reg, "register",
                            lambda metric: calls.append(metric) or real(metric))
        for _ in range(50):
            assert cache.get("a") == 1
            assert cache.get("b") is None
        assert calls == []
        telemetry.reset_registry()
        cache.get("a")
        cache.get("a")
        assert len(calls) == 4  # the four series, once
        assert reg.get("repro_cache_hits_total",
                       cache._hit_counter.labels_dict()) is not None

    def test_params_key_ignores_quality(self):
        base = SchemeParameters(quality=0.0)
        assert profile_params_key(base) == profile_params_key(base.with_quality(0.2))
        changed = SchemeParameters(scene_change_threshold=0.5)
        assert profile_params_key(base) != profile_params_key(changed)


class TestServerProfilesOnce:
    def test_one_analyze_across_five_qualities_and_devices(self, analyze_calls):
        server = MediaServer(profile_cache=ProfileCache())
        clip = random_clip(seed=6, frames=20, name="movie")
        server.add_clip(clip)
        assert tuple(server.qualities) == tuple(sorted(QUALITY_LEVELS))
        for quality in server.qualities:
            server.annotation_track("movie", quality)
        for device in ("ipaq5555", "ipaq3650"):
            request = SessionRequest("movie", 0.05, ClientCapabilities(device))
            session = server.open_session(request)
            list(server.stream(session))
        assert analyze_calls == ["movie"]

    def test_cache_shared_across_servers(self, analyze_calls):
        shared = ProfileCache()
        clip = random_clip(seed=7, name="shared")
        first = MediaServer(profile_cache=shared)
        second = MediaServer(profile_cache=shared)
        first.add_clip(clip)
        second.add_clip(random_clip(seed=7, name="shared"))  # equal content
        first.profile("shared")
        second.profile("shared")
        assert analyze_calls == ["shared"]

    def test_replaced_content_reprofiles(self, analyze_calls):
        server = MediaServer(profile_cache=ProfileCache())
        server.add_clip(random_clip(seed=8, name="movie"))
        server.profile("movie")
        old_track = server.annotation_track("movie", server.qualities[0])
        server.add_clip(random_clip(seed=9, name="movie"))  # same name, new pixels
        assert analyze_calls == ["movie"]
        server.profile("movie")
        assert analyze_calls == ["movie", "movie"]
        new_track = server.annotation_track("movie", server.qualities[0])
        assert new_track is not old_track

    def test_same_object_readd_keeps_caches(self, analyze_calls):
        server = MediaServer(profile_cache=ProfileCache())
        clip = random_clip(seed=10, name="movie")
        server.add_clip(clip)
        server.profile("movie")
        server.add_clip(clip)  # idempotent re-add of the same object
        server.profile("movie")
        assert analyze_calls == ["movie"]

    def test_sweep_reuses_server_cache(self, analyze_calls):
        cache = ProfileCache()
        clip = random_clip(seed=11, name="movie")
        server = MediaServer(profile_cache=cache)
        server.add_clip(clip)
        server.profile("movie")
        streams = sweep_quality_levels(
            clip, ipaq_5555(), [0.0, 0.1], profile_cache=cache
        )
        assert len(streams) == 2
        assert analyze_calls == ["movie"]


class TestPolicyIdentityInCacheKeys:
    """Regression: two policies over one clip must never collide.

    Profiling is statistics-only and identical across today's shipped
    policies, but the key must carry the policy identity so a future
    policy with its own profiling pass (e.g. one that needs spatial
    stats) cannot silently read another policy's entry.
    """

    def test_key_for_differs_by_policy(self):
        clip = random_clip(seed=20)
        params = SchemeParameters()
        default_key = ProfileCache.key_for(clip, params)
        assert default_key == ProfileCache.key_for(clip, params, policy=None)
        assert default_key == ProfileCache.key_for(
            clip, params, policy="clip-quality"
        )
        assert default_key != ProfileCache.key_for(clip, params, policy="hebs")
        assert ProfileCache.key_for(clip, params, policy="hebs") != (
            ProfileCache.key_for(clip, params, policy="spatial")
        )

    def test_same_policy_different_config_shares_profiles(self):
        from repro.core import HebsPolicy

        clip = random_clip(seed=21)
        params = SchemeParameters()
        assert ProfileCache.key_for(
            clip, params, policy=HebsPolicy(dim_factor=2.0)
        ) == ProfileCache.key_for(clip, params, policy=HebsPolicy(dim_factor=9.0))

    def test_get_or_compute_partitions_by_policy(self):
        cache = ProfileCache()
        clip = random_clip(seed=22)
        params = SchemeParameters()
        computes = []

        def compute(tag):
            return lambda: computes.append(tag) or tag

        assert cache.get_or_compute(clip, params, compute("default")) == "default"
        assert cache.get_or_compute(
            clip, params, compute("hebs"), policy="hebs"
        ) == "hebs"
        # Both entries now live side by side.
        assert cache.get_or_compute(
            clip, params, compute("again"), policy=None
        ) == "default"
        assert cache.get_or_compute(
            clip, params, compute("again"), policy="hebs"
        ) == "hebs"
        assert computes == ["default", "hebs"]

    def test_pipelines_with_different_policies_share_one_cache(self, analyze_calls):
        from repro.core.pipeline import AnnotationPipeline

        cache = ProfileCache()
        clip = random_clip(seed=23, name="movie")
        params = SchemeParameters()
        for policy in (None, "hebs", "spatial"):
            AnnotationPipeline(
                params, profile_cache=cache, policy=policy
            ).annotate(clip)
        # Each policy name gets its own entry (defensive partitioning) …
        assert analyze_calls == ["movie", "movie", "movie"]
        # … but re-running any of them is a pure cache hit.
        AnnotationPipeline(params, profile_cache=cache, policy="hebs").annotate(clip)
        assert analyze_calls == ["movie", "movie", "movie"]
