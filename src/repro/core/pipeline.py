"""The end-to-end annotation pipeline (server/proxy side).

Ties the stages of Section 4 together:

1. profile the clip (:class:`~repro.core.analyzer.StreamAnalyzer`),
2. group frames into scenes (:class:`~repro.core.scene.SceneDetector`),
3. let the active :class:`~repro.core.policies.BacklightPolicy` annotate
   each scene (the default, :class:`~repro.core.policies.ClipQualityPolicy`,
   is the paper's clipping heuristic),
4. emit the device-independent :class:`~repro.core.annotation.AnnotationTrack`,
5. optionally bind it to a device (backlight levels + gains) and
   compensate frames for streaming with the policy's pixel transform.

:class:`AnnotatedStream` is the shippable artifact: the clip plus its
device track, iterable as (compensated frame, backlight level) pairs — the
exact thing the client plays back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..display.devices import DeviceProfile
from ..power.measurement import simulated_backlight_savings
from ..telemetry import registry, trace
from ..video.chunks import (
    DEFAULT_CHUNK_SIZE,
    HeterogeneousFrameError,
    autotune_chunk_size,
    chunk_spans,
)
from ..video.clip import ClipBase
from ..video.frame import Frame
from .analyzer import FrameStats, StreamAnalyzer
from .annotation import (
    CLIP_QUALITY_POLICY,
    AnnotationTrack,
    DeviceAnnotationTrack,
    SceneAnnotation,
)
from .compensation import (
    CompensationResult,
    contrast_enhancement,
    contrast_enhancement_frames,
    gain_lut,
)
from .engine import EngineSpec, resolve_engine
from .policies import BacklightPolicy, ClipQualityPolicy, PolicySpec, get_policy, resolve_policy
from .policy import SchemeParameters
from .profile_cache import ProfileCache, shared_profile_cache
from .scene import Scene, SceneDetector


@dataclass(frozen=True)
class ProfileResult:
    """Intermediate products of the profiling stages (for Figure 6)."""

    stats: List[FrameStats]
    scenes: List[Scene]

    def max_luminance_series(self) -> np.ndarray:
        """Per-frame maximum luminance (Figure 6's first curve)."""
        return StreamAnalyzer.max_luminance_series(self.stats)

    def scene_max_series(self) -> np.ndarray:
        """Per-frame scene maximum (Figure 6's step function)."""
        return SceneDetector.scene_max_series(self.scenes, len(self.stats))

    @cached_property
    def peak_tails(self) -> Optional[np.ndarray]:
        """Per-frame peak-channel tail counts, ``(frames, 257)``.

        ``tails[i, c]`` is the number of pixels of frame ``i`` whose peak
        channel byte is ``>= c`` (column 256 is zero).  Computed once per
        profile, and only from exact counts: ``None`` unless every
        frame's histogram holds whole pixels and the same total of them
        (the plain analyzer's; weighted histograms never qualify).
        """
        if not self.stats:
            return None
        counts = np.stack([s.channel_histogram.counts for s in self.stats])
        tails = np.zeros((counts.shape[0], counts.shape[1] + 1))
        tails[:, :-1] = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
        totals = tails[:, 0]
        if np.any(counts != np.rint(counts)) or np.any(totals != totals[0]):
            return None
        return tails


class AnnotationPipeline:
    """Turns raw clips into annotated streams.

    Parameters
    ----------
    params:
        Scheme parameters (quality level, scene thresholds).
    per_scene_clipping:
        Use the pooled-histogram clipping variant instead of the default
        per-frame budget.
    importance:
        Optional region-of-interest weighting (user-supervised
        annotation, Section 3).  When given, the quality level bounds the
        clipped *importance mass* instead of the raw pixel count.
    engine:
        Execution engine (``None``, a kind name, or an
        :class:`~repro.core.engine.EngineConfig`).  Forwarded to
        :class:`~repro.core.analyzer.StreamAnalyzer` for the profiling
        pass (ignored for importance-weighted analysis); streams built
        under ``"perframe"`` also compensate frame by frame.
    profile_cache:
        Optional content-keyed :class:`~repro.core.profile_cache.ProfileCache`
        consulted by :meth:`profile`.  Only plain (unweighted) analysis is
        cached — importance maps are not part of the cache key.
    policy:
        The :class:`~repro.core.policies.BacklightPolicy` deciding how
        scenes become annotations (``None``, a registered name, or an
        instance).  ``None`` and ``"clip-quality"`` select the paper's
        default scheme, honoring ``per_scene_clipping``.
    """

    def __init__(self, params: SchemeParameters = SchemeParameters(),
                 per_scene_clipping: bool = False, importance=None,
                 engine: EngineSpec = None,
                 profile_cache: Optional[ProfileCache] = None,
                 policy: PolicySpec = None):
        self.params = params
        self.engine = engine
        if importance is None:
            self.analyzer = StreamAnalyzer(engine=engine)
        else:
            from .roi import RoiStreamAnalyzer

            self.analyzer = RoiStreamAnalyzer(importance)
        self.detector = SceneDetector(params)
        if policy is None or policy == CLIP_QUALITY_POLICY:
            self.policy: BacklightPolicy = ClipQualityPolicy(
                per_scene_clipping=per_scene_clipping
            )
        else:
            self.policy = resolve_policy(policy)
        self.profile_cache = profile_cache

    # ------------------------------------------------------------------
    def profile(self, clip: ClipBase) -> ProfileResult:
        """Run the analysis + scene-detection stages only.

        When a profile cache is attached (and the analyzer is the plain
        :class:`StreamAnalyzer`), the result is shared by content: every
        quality variant, device binding, and cache-sharing server reuses
        one profiling pass per clip.  Treat cached results as read-only.
        """
        if self.profile_cache is not None and type(self.analyzer) is StreamAnalyzer:
            return self.profile_cache.get_or_compute(
                clip,
                self.params,
                lambda: self._profile_uncached(clip),
                policy=self.policy,
            )
        return self._profile_uncached(clip)

    def _profile_uncached(self, clip: ClipBase) -> ProfileResult:
        with trace("pipeline.profile"):
            with trace("pipeline.analyze"):
                stats = self.analyzer.analyze(clip)
            with trace("pipeline.scene_grouping"):
                scenes = self.detector.detect(stats)
                SceneDetector.validate_partition(scenes, len(stats))
        return ProfileResult(stats=stats, scenes=scenes)

    def annotate(self, clip: ClipBase, profile: Optional[ProfileResult] = None) -> AnnotationTrack:
        """Produce the device-independent annotation track for a clip."""
        if profile is None:
            profile = self.profile(clip)
        with trace("pipeline.clip"):
            with trace(f"policy.{self.policy.name}"):
                scenes = self.policy.annotate_scenes(
                    profile.scenes, profile.stats, self.params
                )
        registry().counter(
            "repro_policy_scenes_total",
            "Scenes annotated, by backlight policy",
            labels={"policy": self.policy.name},
        ).inc(len(scenes))
        return AnnotationTrack(
            clip_name=clip.name,
            frame_count=clip.frame_count,
            fps=clip.fps,
            quality=self.params.quality,
            scenes=scenes,
        )

    def annotate_for_device(
        self, clip: ClipBase, device: DeviceProfile,
        profile: Optional[ProfileResult] = None,
    ) -> DeviceAnnotationTrack:
        """Annotate and bind to a device in one step."""
        return self.annotate(clip, profile=profile).bind(device)

    def build_stream(
        self, clip: ClipBase, device: DeviceProfile,
        profile: Optional[ProfileResult] = None,
    ) -> "AnnotatedStream":
        """Full server-side processing: annotate, bind, wrap for shipping.

        ``profile`` reuses an earlier profiling pass of ``clip`` (a
        quality sweep profiles once for every level).
        """
        if profile is None:
            profile = self.profile(clip)
        track = self.annotate_for_device(clip, device, profile=profile)
        # Importance-weighted analysis produces *weighted* histograms, so
        # only the plain analyzer's exact peak-channel counts may seed
        # the stream's precomputed clipped fractions.
        if type(self.analyzer) is not StreamAnalyzer:
            profile = None
        return AnnotatedStream(
            clip=clip, track=track, device=device, profile=profile,
            engine=self.engine,
        )


@dataclass(frozen=True)
class CompensatedChunk:
    """A batch of compensated frames plus their playback annotations.

    Attributes
    ----------
    pixels:
        Compensated ``(N, H, W, 3)`` uint8 batch, or — on the per-frame
        path (mixed resolutions, ``"perframe"`` engine) — the sequence
        of ``N`` compensated ``(H, W, 3)`` frame arrays.
    start:
        Global index of the first frame in the batch.
    levels:
        Per-frame backlight levels, ``(N,)``.
    gains:
        Per-frame compensation gains applied, ``(N,)``.
    clipped_fractions:
        Per-frame fraction of pixels that clipped, ``(N,)``.
    """

    pixels: Union[np.ndarray, Sequence[np.ndarray]]
    start: int
    levels: np.ndarray
    gains: np.ndarray
    clipped_fractions: np.ndarray

    def __len__(self) -> int:
        return len(self.pixels)

    @property
    def stop(self) -> int:
        """Global index one past the last frame in the chunk."""
        return self.start + len(self)

    def frame(self, offset: int) -> Frame:
        """Materialize compensated frame ``offset`` (chunk-local)."""
        if not 0 <= offset < len(self):
            raise IndexError(f"chunk offset {offset} out of range [0, {len(self)})")
        return Frame(self.pixels[offset], index=self.start + offset)

    def frames(self) -> List[Frame]:
        """Materialize every compensated frame in the chunk."""
        return [self.frame(k) for k in range(len(self))]


class AnnotatedStream:
    """A clip bundled with its device annotation track.

    Iterating yields ``(compensated_frame, backlight_level)`` pairs —
    compensation is applied lazily, which is how the server/proxy streams
    ("the compensation of the frames in the video stream is performed at
    either the server or the intermediary proxy node").
    :meth:`iter_chunks` is the one compensated-frame source behind that
    iteration, the server's packet emission and the proxy: it
    compensates whole chunks at a time via
    :func:`~repro.core.compensation.contrast_enhancement_batch` and owns
    the per-frame path too.  Under the ``"perframe"`` ``engine`` it
    compensates through :meth:`compensated_frame` throughout, the
    byte-identity reference for serving.
    """

    def __init__(
        self,
        clip: ClipBase,
        track: DeviceAnnotationTrack,
        device: DeviceProfile,
        profile: Optional[ProfileResult] = None,
        engine: EngineSpec = None,
    ):
        if track.frame_count != clip.frame_count:
            raise ValueError(
                f"track covers {track.frame_count} frames, clip has {clip.frame_count}"
            )
        self.clip = clip
        self.track = track
        self.device = device
        # Per-frame FrameStats from the (plain-analyzer) profiling pass,
        # when the builder had them: their exact peak-channel histograms
        # let clipped fractions be derived without touching pixels.
        if profile is not None and len(profile.stats) != clip.frame_count:
            profile = None
        self._profile = profile
        self._profile_stats = profile.stats if profile is not None else None
        self._levels = track.per_frame_levels()
        self._gains = track.per_frame_gains()
        self.policy = get_policy(track.policy)
        self._transforms = [
            self.policy.transform_for_scene(scene) for scene in track.scenes
        ]
        # Gain-only tracks (the default scheme) keep the historical
        # vectorized path: one batched kernel call per chunk, driven by
        # the per-frame gain vector — bit-identical to the pre-policy
        # stream.  Other transforms apply per scene run.
        self._all_gain = all(t.is_gain for t in self._transforms)
        self._scene_starts = np.array([s.start for s in track.scenes], dtype=np.int64)
        # Per-frame clipped fractions, once the profile's histograms or a
        # complete iter_chunks pass have produced them.
        self._clipped_fractions: Optional[np.ndarray] = None
        self._perframe = resolve_engine(engine).kind == "perframe"

    def _transform_at(self, index: int):
        """The pixel transform covering frame ``index``."""
        scene = int(np.searchsorted(self._scene_starts, index, side="right")) - 1
        return self._transforms[scene]

    def next_scene_start(self, index: int) -> int:
        """Smallest scene start ``>= index`` (``frame_count`` when none).

        The scene partition comes from the profiling pass, so it is
        identical across quality levels and ambient binds of the same
        clip — mid-stream adaptation uses this to pick the switch
        boundary where two bindings agree on scene extents.
        """
        if index <= 0:
            return 0
        pos = int(np.searchsorted(self._scene_starts, index, side="left"))
        if pos >= len(self._scene_starts):
            return self.frame_count
        return int(self._scene_starts[pos])

    def _scene_runs(self, start: int, stop: int) -> Iterator[Tuple[int, int, "object"]]:
        """Split ``[start, stop)`` into per-scene (lo, hi, transform) runs."""
        for scene, transform in zip(self.track.scenes, self._transforms):
            lo = max(scene.start, start)
            hi = min(scene.end, stop)
            if lo < hi:
                yield lo, hi, transform

    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        return self.clip.frame_count

    @property
    def fps(self) -> float:
        return self.clip.fps

    def backlight_levels(self) -> np.ndarray:
        """Per-frame backlight schedule (copy)."""
        return self._levels.copy()

    def compensated_frame(self, index: int) -> CompensationResult:
        """Compensate frame ``index`` for its annotated backlight level."""
        frame = self.clip.frame(index)
        if self._all_gain:
            gain = float(self._gains[index])
            if gain <= 1.0:
                return CompensationResult(frame=frame.copy(), clipped_fraction=0.0)
            return contrast_enhancement(frame, gain)
        return self._transform_at(index).apply_frame(frame)

    def iter_chunks(
        self,
        chunk_size: Optional[int] = None,
        lead: Optional[int] = None,
        start: int = 0,
    ) -> Iterator[CompensatedChunk]:
        """Yield the compensated stream as :class:`CompensatedChunk` batches.

        Bit-identical to calling :meth:`compensated_frame` per frame, but
        the normalize → scale → clip → quantize math runs once per chunk.
        ``chunk_size=None`` (the default) autotunes the span from the
        clip's frame geometry, matching the profiling pass.  A positive
        ``lead`` shrinks only the first chunk so the opening frames are
        ready before the first full-size chunk finishes (streaming's
        time-to-first-frame lever).  A positive ``start`` begins emission
        mid-clip — mid-stream adaptation re-binds a session at a scene
        boundary and continues from there without recompensating the
        prefix.  Every yielded frame owns its buffer, so chunks stay
        valid after the iterator advances.  A pass that runs from frame 0
        to the end keeps its clipped fractions for
        :meth:`mean_clipped_fraction`.

        Total over every clip: when the clip mixes frame resolutions
        (the batch cannot be stacked) the rest of the stream is finished
        over the same spans through :meth:`compensated_frame`, and
        streams built under the ``"perframe"`` engine take that path
        from the start — the byte-identity reference for serving.  Those
        chunks, and those of gain-only tracks, carry a sequence of
        per-frame arrays as ``pixels``.
        """
        if chunk_size is None:
            shape = self.clip.frame_shape()
            chunk_size = (
                autotune_chunk_size(shape[0], shape[1])
                if shape is not None
                else DEFAULT_CHUNK_SIZE
            )
        frames_counter = registry().counter(
            "repro_policy_frames_total",
            "Frames compensated, by backlight policy",
            labels={"policy": self.policy.name},
        )
        produced = start
        parts: List[np.ndarray] = []
        if not self._perframe:
            try:
                for chunk in self.clip.iter_chunks(chunk_size, lead=lead, start=start):
                    gains = self._gains[chunk.start : chunk.stop]
                    with trace("pipeline.compensate"):
                        pixels, fractions = self._compensate_pixels(
                            chunk.pixels, chunk.start, chunk.stop, gains
                        )
                    frames_counter.inc(chunk.stop - chunk.start)
                    produced, lead = chunk.stop, None
                    parts.append(fractions)
                    yield CompensatedChunk(
                        pixels=pixels,
                        start=chunk.start,
                        levels=self._levels[chunk.start : chunk.stop],
                        gains=gains,
                        clipped_fractions=fractions,
                    )
            except HeterogeneousFrameError:
                pass  # finish per frame from the first unstackable chunk
        for lo, hi in chunk_spans(self.frame_count, chunk_size, lead=lead, start=produced):
            with trace("pipeline.compensate"):
                results = [self.compensated_frame(i) for i in range(lo, hi)]
            frames_counter.inc(hi - lo)
            fractions = np.array([r.clipped_fraction for r in results])
            parts.append(fractions)
            yield CompensatedChunk(
                pixels=[r.frame.pixels for r in results],
                start=lo,
                levels=self._levels[lo:hi],
                gains=self._gains[lo:hi],
                clipped_fractions=fractions,
            )
        if start == 0 and parts:
            self._clipped_fractions = np.concatenate(parts)

    def _histogram_fractions(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Clipped fractions of frames ``[start, stop)`` from the profile.

        The analyzer's ``channel_histogram`` counts each frame's peak
        channel bytes exactly, and a pixel clips at gain ``g`` iff its
        peak byte is >= the LUT's clip code — so the clipped fraction is
        a histogram tail count over total pixels, bit-identical to the
        pixel-path reduction (both divide the same integer count by the
        same pixel total in float64).  The tails come from the profile's
        :attr:`~ProfileResult.peak_tails`, built once per profile, so a
        chunk costs one lookup per scene it spans.  Returns ``None``
        when profile stats are unavailable, inexact, or count a
        different frame size, or when the track is not gain-only.
        """
        if not self._all_gain or self._profile_stats is None:
            return None
        tails = self._profile.peak_tails
        shape = self.clip.frame_shape()
        if tails is None or shape is None:
            return None
        npix = int(shape[0]) * int(shape[1])
        if tails[0, 0] != npix:
            return None
        stop = self.frame_count if stop is None else stop
        fractions = np.empty(stop - start)
        for lo, hi, _ in self._scene_runs(start, stop):
            gain = float(self._gains[lo])  # a scene's frames share one gain
            code = gain_lut(gain)[1] if gain > 1.0 else tails.shape[1] - 1
            fractions[lo - start : hi - start] = tails[lo:hi, code] / npix
        return fractions

    def _compensate_pixels(
        self,
        pixels: np.ndarray,
        start: int,
        stop: int,
        gains: np.ndarray,
    ) -> Tuple[Union[np.ndarray, List[np.ndarray]], np.ndarray]:
        """Compensate one raw chunk: vectorized gains or per-scene runs."""
        if self._all_gain:
            return contrast_enhancement_frames(
                pixels, gains, fractions=self._histogram_fractions(start, stop)
            )
        out_parts = []
        fraction_parts = []
        for lo, hi, transform in self._scene_runs(start, stop):
            part, fractions = transform.apply_batch(pixels[lo - start : hi - start])
            out_parts.append(part)
            fraction_parts.append(fractions)
        return np.concatenate(out_parts), np.concatenate(fraction_parts)

    def transform_keys(self, start: int, stop: int) -> List[Hashable]:
        """The :attr:`~repro.core.policies.PixelTransform.key` of each
        frame in ``[start, stop)``: with the clip and the frame index it
        determines the frame's compensated bytes."""
        keys: List[Hashable] = []
        for lo, hi, transform in self._scene_runs(start, stop):
            keys.extend([transform.key] * (hi - lo))
        return keys

    def __iter__(self) -> Iterator[Tuple[Frame, int]]:
        for chunk in self.iter_chunks():
            for k in range(len(chunk)):
                yield chunk.frame(k), int(chunk.levels[k])

    # ------------------------------------------------------------------
    def predicted_backlight_savings(self) -> float:
        """The Figure 9 simulated-savings number for this stream."""
        return simulated_backlight_savings(self._levels, self.device)

    def instantaneous_savings(self) -> np.ndarray:
        """Per-frame backlight power savings — Figure 6's third curve."""
        backlight = self.device.backlight
        return np.asarray(backlight.savings_fraction(self._levels))

    def mean_clipped_fraction(self, sample_every: int = 1) -> float:
        """Average fraction of clipped pixels over every ``sample_every``-th frame.

        Reads one per-frame array: the profile's exact histograms when
        the stream has them (no pixel is read), otherwise the fractions
        of a complete :meth:`iter_chunks` pass.  Only a sampled call
        before either exists compensates just the sampled frames.
        """
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self._clipped_fractions is None:
            self._clipped_fractions = self._histogram_fractions()
        if self._clipped_fractions is None:
            if sample_every > 1:
                return float(np.mean([
                    self.compensated_frame(i).clipped_fraction
                    for i in range(0, self.frame_count, sample_every)
                ]))
            for _chunk in self.iter_chunks():
                pass
        return float(np.mean(self._clipped_fractions[::sample_every]))

    def __repr__(self) -> str:
        return (
            f"AnnotatedStream({self.clip.name!r} on {self.device.name!r}, "
            f"quality={self.track.quality:.0%}, "
            f"savings={self.predicted_backlight_savings():.1%})"
        )


def sweep_quality_levels(
    clip: ClipBase,
    device: DeviceProfile,
    qualities: Sequence[float],
    params: SchemeParameters = SchemeParameters(),
    engine: EngineSpec = None,
    profile_cache: Optional[ProfileCache] = None,
    policy: PolicySpec = None,
) -> List[AnnotatedStream]:
    """Annotate one clip at several quality levels, reusing the profile.

    The profiling pass (the expensive part) runs once; only clipping and
    binding differ per quality level.  This mirrors the server preparing
    its five quality variants of each clip.  By default the profile is
    also shared through the process-wide content-keyed cache, so repeated
    sweeps (or a co-resident :class:`~repro.streaming.server.MediaServer`)
    do not re-profile the same pixels; pass a dedicated
    :class:`~repro.core.profile_cache.ProfileCache` (or one with
    ``max_entries=0``) to isolate.
    """
    if profile_cache is None:
        profile_cache = shared_profile_cache()
    pipeline = AnnotationPipeline(
        params, engine=engine, profile_cache=profile_cache, policy=policy
    )
    profile = pipeline.profile(clip)
    return [
        AnnotationPipeline(
            params.with_quality(q), engine=engine, policy=policy
        ).build_stream(clip, device, profile=profile)
        for q in qualities
    ]
