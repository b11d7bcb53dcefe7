"""Content-keyed caching of profiling results.

Profiling (per-frame histograms + scene detection) is by far the most
expensive stage of the pipeline, and its output depends only on the
clip's *pixels* and the scene-relevant scheme parameters — not on the
quality level, the device, or which server object happens to hold the
clip.  The :class:`ProfileCache` therefore keys entries by a fingerprint
of the clip content plus those parameters, so the five quality variants
of a clip (and every device binding, and every server sharing the cache)
reuse one profiling pass.

Keying by content rather than by clip name also fixes a latent staleness
bug: re-registering a name with different pixels can never serve the old
profile, because the fingerprint changes with the pixels.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..telemetry import registry as telemetry_registry
from ..video.clip import ArrayClip, ClipBase, VideoClip
from .policy import SchemeParameters

_CACHE_SEQ = itertools.count(1)

#: Frames hashed when fingerprinting a lazily synthesized clip.
FINGERPRINT_SAMPLE_FRAMES = 16

#: Default number of cached profiles (a profile holds two 256-bin float64
#: histograms per frame, ~1.5 MB for a 360-frame clip).
DEFAULT_PROFILE_CACHE_ENTRIES = 32


def clip_fingerprint(clip: ClipBase) -> str:
    """A content fingerprint for a clip, stable across object identity.

    Eager clips (:class:`~repro.video.clip.ArrayClip`,
    :class:`~repro.video.clip.VideoClip`) hash every pixel, so any content
    change is guaranteed to change the key.  Lazy clips hash
    :data:`FINGERPRINT_SAMPLE_FRAMES` evenly spaced frames plus the clip
    metadata — synthesizing every frame just to fingerprint would cost as
    much as profiling.  The prefix records which flavour was used.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(type(clip).__name__.encode())
    digest.update(repr((clip.name, clip.frame_count, float(clip.fps))).encode())

    if isinstance(clip, ArrayClip):
        pixels = clip.pixels
        digest.update(repr(pixels.shape).encode())
        digest.update(np.ascontiguousarray(pixels).tobytes())
        mode = "full"
    elif isinstance(clip, VideoClip):
        for i in range(clip.frame_count):
            pixels = clip.frame(i).pixels
            digest.update(repr(pixels.shape).encode())
            digest.update(np.ascontiguousarray(pixels).tobytes())
        mode = "full"
    else:
        count = min(FINGERPRINT_SAMPLE_FRAMES, clip.frame_count)
        # linspace ascends, so dropping repeats in order is np.unique.
        # np.unique itself would do the first import of numpy.ma on a
        # serving thread, which once failed there under CPython 3.11
        # (SystemError from ast.parse) while other threads ran.
        samples = np.linspace(0, clip.frame_count - 1, count).astype(np.int64)
        indices = dict.fromkeys(samples.tolist())
        for i in indices:
            pixels = clip.frame(i).pixels
            digest.update(np.int64(i).tobytes())
            digest.update(repr(pixels.shape).encode())
            digest.update(np.ascontiguousarray(pixels).tobytes())
        mode = "sampled"
    return f"{mode}:{digest.hexdigest()}"


def profile_params_key(params: SchemeParameters) -> Tuple:
    """The scheme parameters a profile depends on.

    Quality is deliberately excluded: stats and scene boundaries are
    identical across quality levels (that is what makes the cache shared
    across a server's quality variants).
    """
    return (
        params.scene_change_threshold,
        params.min_scene_interval_frames,
        params.per_frame,
        params.color_safe,
    )


class ProfileCache:
    """Thread-safe LRU cache of profiling results, keyed by content.

    Parameters
    ----------
    max_entries:
        Profiles retained; least-recently-used entries are evicted first.
        ``0`` disables caching entirely (every lookup misses).
    kind:
        Prefix of the instance's ``cache`` telemetry label
        (``profile-N``); other users of the class name their own.
    """

    def __init__(self, max_entries: int = DEFAULT_PROFILE_CACHE_ENTRIES,
                 kind: str = "profile"):
        if max_entries < 0:
            raise ValueError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-instance telemetry series: a unique cache label keeps fresh
        # instances at zero while the shared registry aggregates them all.
        reg = telemetry_registry()
        self._registered = reg.generation
        labels = {"cache": f"{kind}-{next(_CACHE_SEQ)}"}
        self._hit_counter = reg.counter(
            "repro_cache_hits_total", help="Cache lookups served from the cache.",
            labels=labels,
        )
        self._miss_counter = reg.counter(
            "repro_cache_misses_total", help="Cache lookups that missed.",
            labels=labels,
        )
        self._eviction_counter = reg.counter(
            "repro_cache_evictions_total", help="Entries evicted to respect the bound.",
            labels=labels,
        )
        self._entries_gauge = reg.gauge(
            "repro_cache_entries", help="Entries currently retained.", labels=labels,
        )

    def _ensure_registered(self) -> None:
        """Re-attach this cache's series after a registry reset.

        Long-lived caches (the process-wide shared instance) outlive
        test-isolation resets; re-registering keeps their series visible
        in snapshots.  Runs only once per reset: a lookup otherwise
        costs one integer compare here, not four registry locks.
        """
        reg = telemetry_registry()
        generation = reg.generation
        if self._registered == generation:
            return
        for metric in (self._hit_counter, self._miss_counter,
                       self._eviction_counter, self._entries_gauge):
            reg.register(metric)
        self._registered = generation

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from the cache (reads the telemetry counter)."""
        return self._hit_counter.value

    @property
    def misses(self) -> int:
        """Lookups that missed (reads the telemetry counter)."""
        return self._miss_counter.value

    @property
    def evictions(self) -> int:
        """Entries evicted to respect ``max_entries``."""
        return self._eviction_counter.value

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """One-call summary of the cache's telemetry series."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
        }

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(clip: ClipBase, params: SchemeParameters, policy=None) -> Tuple:
        """Cache key for a (clip content, parameters, policy) triple.

        ``policy`` takes anything
        :func:`~repro.core.policies.policy_profile_key` accepts: ``None``
        (the default scheme), a name, an instance, or a precomputed key
        tuple.  Policies whose profiling identity matches share entries;
        distinct policies on the same clip can never collide.
        """
        from .policies import policy_profile_key  # local: policies use core

        return (
            clip_fingerprint(clip),
            profile_params_key(params),
            policy_profile_key(policy),
        )

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached profile for ``key``, or ``None``."""
        self._ensure_registered()
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._miss_counter.inc()
                return None
            self._entries.move_to_end(key)
            self._hit_counter.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Retain a profile, evicting the least-recently-used to fit.

        A new key makes room before it goes in, so the store never holds
        more than ``max_entries``, even to a reader that counts it
        without the lock.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                while len(self._entries) >= self.max_entries:
                    self._entries.popitem(last=False)
                    self._eviction_counter.inc()
            self._entries[key] = value
            self._entries_gauge.set(len(self._entries))

    def get_or_compute(
        self,
        clip: ClipBase,
        params: SchemeParameters,
        compute: Callable[[], Any],
        policy=None,
    ) -> Any:
        """Return the cached profile for the clip, computing it on a miss.

        ``compute`` runs outside the lock (profiling is slow; concurrent
        misses on the same key simply race to fill it, last write wins —
        both results are identical by construction).
        """
        key = self.key_for(clip, params, policy=policy)
        cached = self.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every cached profile (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._entries_gauge.set(0)

    def __repr__(self) -> str:
        return (
            f"ProfileCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_SHARED_CACHE: Optional[ProfileCache] = None
_SHARED_LOCK = threading.Lock()


def shared_profile_cache() -> ProfileCache:
    """The process-wide profile cache (lazily created singleton).

    Used by default by :class:`~repro.streaming.server.MediaServer` and
    :func:`~repro.core.pipeline.sweep_quality_levels`, so that any number
    of servers and sweeps profile a given clip's content exactly once.
    """
    global _SHARED_CACHE
    with _SHARED_LOCK:
        if _SHARED_CACHE is None:
            _SHARED_CACHE = ProfileCache()
        return _SHARED_CACHE
