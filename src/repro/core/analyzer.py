"""Stream analysis: the profiling pass that feeds annotation.

Section 3 defines data annotation as "the process of analyzing a stream of
data and supplementing it with a summary of the information collected".
For the backlight application the summary per frame is its luminance
histogram and the statistics derived from it; everything downstream (scene
detection, clipping, backlight computation) consumes :class:`FrameStats`
and never touches pixels again — which is what makes the client-side work
"negligible".

Two histograms are kept per frame:

* the **luminance** histogram (BT.601 Y) — the paper's quantity, used for
  quality evaluation and the paper-literal analysis mode;
* the **peak-channel** histogram (per-pixel max of R, G, B) — the quantity
  that actually saturates first under multiplicative compensation.  The
  default *color-safe* analysis mode budgets clipping on this histogram,
  so the "percent of pixels clipped" guarantee holds even for saturated
  colors (the paper notes that otherwise "colors change").

Execution engines
-----------------
Profiling is the pipeline's hot loop, so :class:`StreamAnalyzer` runs it
under a selectable engine (see :mod:`repro.core.engine`).  The default
*chunked* engine pulls ``(N, H, W, 3)`` uint8 batches from the clip and
histograms each chunk with a single offset ``np.bincount`` per plane kind
(frame ``i``'s codes are shifted by ``i * 256``, so one flat bincount
yields all per-frame histograms at once).  The result is bit-identical to
the per-frame reference path — :func:`chunk_frame_stats` uses the same
elementwise float operations in the same order — just several times
faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..quality.histogram import LuminanceHistogram, NUM_BINS
from ..video.chunks import FrameChunk, HeterogeneousFrameError
from ..video.clip import ClipBase
from ..video.frame import Frame
from .engine import EngineSpec, map_chunks, resolve_engine


@dataclass(frozen=True)
class FrameStats:
    """Luminance/value summary of one frame.

    Attributes
    ----------
    index:
        Frame position in the clip.
    histogram:
        256-bin luminance histogram (BT.601 Y).
    channel_histogram:
        256-bin histogram of per-pixel peak channel values.
    max_luminance:
        Brightest occupied luminance, normalized to [0, 1].
    max_channel_value:
        Largest occupied peak-channel value, normalized to [0, 1].
    mean_luminance:
        Average luminance, normalized to [0, 1].
    """

    index: int
    histogram: LuminanceHistogram
    channel_histogram: LuminanceHistogram
    max_luminance: float
    max_channel_value: float
    mean_luminance: float

    @classmethod
    def from_histograms(
        cls,
        index: int,
        histogram: LuminanceHistogram,
        channel_histogram: LuminanceHistogram,
    ) -> "FrameStats":
        """Derive the scalar summary fields from the two histograms."""
        occupied = np.nonzero(histogram.counts)[0]
        chan_occupied = np.nonzero(channel_histogram.counts)[0]
        return cls(
            index=index,
            histogram=histogram,
            channel_histogram=channel_histogram,
            max_luminance=float(occupied[-1]) / (NUM_BINS - 1),
            max_channel_value=float(chan_occupied[-1]) / (NUM_BINS - 1),
            mean_luminance=histogram.average_point / (NUM_BINS - 1),
        )

    @classmethod
    def of(cls, frame: Frame) -> "FrameStats":
        """Per-frame reference path: histogram one frame's planes."""
        return cls.from_histograms(
            index=frame.index,
            histogram=LuminanceHistogram.of(frame),
            channel_histogram=LuminanceHistogram.of(frame.peak_channel),
        )

    # ------------------------------------------------------------------
    def max_value(self, color_safe: bool = True) -> float:
        """The frame maximum that drives scene detection and backlight.

        Color-safe mode uses the peak channel value; paper-literal mode
        uses the luminance.
        """
        return self.max_channel_value if color_safe else self.max_luminance

    def effective_max(self, clip_fraction: float, color_safe: bool = True) -> float:
        """Max value after allowing ``clip_fraction`` of pixels to clip.

        The fixed-percent heuristic of Section 4.3, evaluated on the
        appropriate histogram; normalized to [0, 1].
        """
        hist = self.channel_histogram if color_safe else self.histogram
        return hist.clip_point(clip_fraction) / (NUM_BINS - 1)

    def effective_max_luminance(self, clip_fraction: float) -> float:
        """Paper-literal (luminance) form of :meth:`effective_max`."""
        return self.effective_max(clip_fraction, color_safe=False)


def chunk_frame_stats(
    chunk: FrameChunk, indices: Optional[Sequence[int]] = None
) -> List[FrameStats]:
    """Batched :class:`FrameStats` for every frame of a chunk.

    Bit-identical to mapping :meth:`FrameStats.of` over the frames: the
    luminance codes come from the chunk's table-driven kernel (same float
    math as ``rgb_to_luminance`` + histogram quantization), and both
    histogram families are produced by one offset ``np.bincount`` each —
    frame ``i``'s codes are shifted by ``i * NUM_BINS`` so a single flat
    count covers the whole batch.

    ``indices`` overrides the global frame indices (used when profiling a
    frame stream whose indices do not start at ``chunk.start``).
    """
    n = len(chunk)
    offsets = (np.arange(n, dtype=np.int32) * NUM_BINS)[:, None, None]

    lum_codes = chunk.luminance_codes()
    lum_codes += offsets  # freshly owned array: offset in place
    lum_counts = (
        np.bincount(lum_codes.ravel(), minlength=n * NUM_BINS)
        .reshape(n, NUM_BINS)
        .astype(np.float64)
    )
    # uint8 + int32 broadcasts straight to int32 — no explicit cast pass.
    peak_counts = (
        np.bincount((chunk.peak_channel_u8 + offsets).ravel(), minlength=n * NUM_BINS)
        .reshape(n, NUM_BINS)
        .astype(np.float64)
    )

    # Last occupied bin per frame, vectorized: argmax of the reversed
    # occupancy mask finds the first non-empty bin from the top.
    lum_max = (NUM_BINS - 1) - np.argmax(lum_counts[:, ::-1] > 0, axis=1)
    peak_max = (NUM_BINS - 1) - np.argmax(peak_counts[:, ::-1] > 0, axis=1)

    if indices is None:
        indices = chunk.indices
    stats: List[FrameStats] = []
    for k in range(n):
        hist = LuminanceHistogram._trusted(lum_counts[k])
        chan_hist = LuminanceHistogram._trusted(peak_counts[k])
        stats.append(
            FrameStats(
                index=indices[k],
                histogram=hist,
                channel_histogram=chan_hist,
                max_luminance=float(lum_max[k]) / (NUM_BINS - 1),
                max_channel_value=float(peak_max[k]) / (NUM_BINS - 1),
                mean_luminance=hist.average_point / (NUM_BINS - 1),
            )
        )
    return stats


class StreamAnalyzer:
    """Single-pass analyzer producing per-frame statistics for a clip.

    This is the server/proxy profiling step ("the video clips available for
    streaming at the servers are first profiled, processed and annotated").
    For proxy-style on-the-fly operation, :meth:`analyze_frames` accepts an
    incremental frame iterator instead of a whole clip.

    Parameters
    ----------
    engine:
        Execution engine: ``None`` (default, chunked), an engine kind name
        (``"perframe"``, ``"chunked"``) or a full
        :class:`~repro.core.engine.EngineConfig`.  Both engines produce
        bit-identical statistics; clips that mix frame resolutions fall
        back to the per-frame path automatically.
    """

    def __init__(self, engine: EngineSpec = None):
        self.engine = resolve_engine(engine)

    def analyze(self, clip: ClipBase) -> List[FrameStats]:
        """Profile every frame of a clip."""
        if self.engine.kind == "perframe":
            return self.analyze_perframe(clip)
        try:
            chunked = map_chunks(
                self.engine,
                chunk_frame_stats,
                clip.iter_chunks(self.engine.resolved_chunk_size(clip.frame_shape())),
            )
        except HeterogeneousFrameError:
            return self.analyze_perframe(clip)
        stats = [s for chunk_stats in chunked for s in chunk_stats]
        if not stats:
            raise ValueError("stream produced no frames to analyze")
        return stats

    def analyze_frames(self, frames: Iterable[Frame]) -> List[FrameStats]:
        """Profile an arbitrary frame stream."""
        if self.engine.kind == "perframe":
            return self.analyze_perframe(frames)
        stats: List[FrameStats] = []
        buffer: List[Frame] = []
        target = 0
        for frame in frames:
            buffer.append(frame)
            if target == 0:
                shape = frame.pixels.shape
                target = self.engine.resolved_chunk_size((shape[0], shape[1]))
            if len(buffer) >= target:
                stats.extend(self._buffered_stats(buffer))
                buffer = []
        if buffer:
            stats.extend(self._buffered_stats(buffer))
        if not stats:
            raise ValueError("stream produced no frames to analyze")
        return stats

    def analyze_perframe(self, frames: Iterable[Frame]) -> List[FrameStats]:
        """Reference implementation: one :class:`Frame` at a time."""
        stats = [FrameStats.of(frame) for frame in frames]
        if not stats:
            raise ValueError("stream produced no frames to analyze")
        return stats

    def _buffered_stats(self, buffer: List[Frame]) -> List[FrameStats]:
        # A buffer mixing resolutions cannot be batched; profile it with
        # the reference path instead (same results, just slower).
        try:
            chunk = FrameChunk.from_frames(buffer)
        except HeterogeneousFrameError:
            return [FrameStats.of(frame) for frame in buffer]
        return chunk_frame_stats(chunk, indices=[frame.index for frame in buffer])

    @staticmethod
    def max_luminance_series(stats: Sequence[FrameStats]) -> np.ndarray:
        """Per-frame max luminance — the Figure 6 'Max. Luminance' curve."""
        return np.array([s.max_luminance for s in stats])

    @staticmethod
    def max_value_series(stats: Sequence[FrameStats], color_safe: bool = True) -> np.ndarray:
        """Per-frame max value in the selected analysis mode."""
        return np.array([s.max_value(color_safe) for s in stats])

    @staticmethod
    def effective_max_series(
        stats: Sequence[FrameStats], clip_fraction: float, color_safe: bool = True
    ) -> np.ndarray:
        """Per-frame clipped max value for a quality level."""
        return np.array([s.effective_max(clip_fraction, color_safe) for s in stats])
