"""Frame-plane chunks: the batched substrate of the execution engine.

The per-frame API (:class:`~repro.video.frame.Frame`) is convenient but
slow at scale: every consumer that walks a clip frame by frame pays numpy
dispatch overhead per frame and materializes a fresh float64 luminance
plane per frame.  A :class:`FrameChunk` instead carries ``(N, H, W, 3)``
uint8 batches through the pipeline, so the luminance and peak-channel
math runs once per *chunk* with vectorized operations.

Bit-exactness contract
----------------------
Every derived quantity on a chunk is computed with the *same elementwise
floating-point operations, in the same order*, as the per-frame path in
:mod:`repro.video.frame` — numpy ufuncs are elementwise, so reshaping the
work from ``(H, W)`` to ``(N, H, W)`` cannot change a single bit.  The
luminance tables below encode ``coeff * (code / MAX_CHANNEL)`` per 8-bit
code, which is exactly what ``rgb_to_luminance`` computes per pixel.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from .frame import Frame, LUMA_COEFFS, MAX_CHANNEL

#: Default number of frames per chunk.  At QVGA-class resolutions a chunk
#: of 64 frames keeps the float64 working set a few megabytes — large
#: enough to amortize numpy dispatch, small enough to stay cache-friendly.
DEFAULT_CHUNK_SIZE = 64

#: Byte budget the chunk-size autotuner aims a chunk's float64 working set
#: at.  The dominant transient is the luminance pass of profiling
#: (:meth:`FrameChunk.luminance`: a float64 plane, a float64 partial sum
#: and ``np.take``'s intp indices, 24 bytes per pixel); 24 MiB keeps it
#: comfortably inside a desktop L3 / small-container RSS while still
#: amortizing numpy dispatch over hundreds of frames at QVGA sizes.
DEFAULT_CHUNK_TARGET_BYTES = 24 << 20

#: Bounds for the autotuned chunk span.  Below 8 frames per chunk the
#: per-chunk numpy dispatch overhead dominates again; above 256 the
#: working set stops fitting caches without buying more amortization.
MIN_AUTOTUNE_CHUNK = 8
MAX_AUTOTUNE_CHUNK = 256


class HeterogeneousFrameError(ValueError):
    """Raised when a chunk would mix frames of different resolutions.

    The batched engine requires a uniform ``(H, W)`` within a chunk;
    callers catch this to fall back to the per-frame path.
    """


# ---------------------------------------------------------------------------
# Luminance lookup tables
# ---------------------------------------------------------------------------
# _LUM_TABLES[c][code] == LUMA_COEFFS[c] * (code / MAX_CHANNEL), computed
# with the exact operations of rgb_to_luminance, so gathering through the
# tables is bit-identical to the per-frame float math.
_CODES = np.arange(MAX_CHANNEL + 1, dtype=np.float64) / MAX_CHANNEL
_LUM_TABLES: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
    LUMA_COEFFS[0] * _CODES,
    LUMA_COEFFS[1] * _CODES,
    LUMA_COEFFS[2] * _CODES,
)

# The largest luminance any uint8 pixel can reach.  Proves that skipping
# the defensive np.clip before quantization cannot change a code: codes
# only diverge once the sum exceeds ~1.002 (rounding to 256), far above
# any float error on a <= 1.0 sum.
_MAX_LUM_SUM = float(_LUM_TABLES[0][-1] + _LUM_TABLES[1][-1] + _LUM_TABLES[2][-1])
assert _MAX_LUM_SUM < 1.0 + 1e-9, _MAX_LUM_SUM


def autotune_chunk_size(
    height: int, width: int, target_bytes: int = DEFAULT_CHUNK_TARGET_BYTES
) -> int:
    """Pick a chunk span from frame geometry instead of a fixed constant.

    Sizes the chunk so the batched float64 working set (24 bytes per
    pixel: the profiling luminance pass, the largest transient on the hot
    path) stays near ``target_bytes``.  Small frames get long chunks
    (more amortization), large frames get short ones (bounded memory);
    the result is clamped to ``[MIN_AUTOTUNE_CHUNK, MAX_AUTOTUNE_CHUNK]``.
    """
    if height < 1 or width < 1:
        raise ValueError(f"frame geometry must be positive, got {height}x{width}")
    if target_bytes < 1:
        raise ValueError(f"target_bytes must be positive, got {target_bytes}")
    per_frame = height * width * 3 * 8  # 24 bytes per pixel, see above
    n = max(1, target_bytes // per_frame)
    return int(min(MAX_AUTOTUNE_CHUNK, max(MIN_AUTOTUNE_CHUNK, n)))


def chunk_spans(
    frame_count: int, chunk_size: int, lead: Optional[int] = None,
    start: int = 0,
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` index spans covering ``[start, frame_count)``.

    The last span carries the remainder; ``chunk_size > frame_count``
    degenerates to a single span.  A positive ``lead`` shrinks only the
    *first* span to ``min(lead, remaining)`` frames — streaming callers
    use this to get the opening frames onto the wire before the first
    full-size chunk finishes compensating.  A positive ``start`` begins
    the spans mid-clip (mid-stream adaptation resumes emission at a
    scene boundary without re-walking the prefix).  Compensation is
    elementwise per frame, so re-slicing the span boundaries never
    changes any frame's bytes.
    """
    if frame_count < 0:
        raise ValueError(f"frame_count must be non-negative, got {frame_count}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not 0 <= start <= frame_count:
        raise ValueError(
            f"start must be in [0, {frame_count}], got {start}"
        )
    first = start
    if lead is not None:
        if lead < 1:
            raise ValueError(f"lead must be >= 1, got {lead}")
        first = min(start + int(lead), frame_count)
        if first > start:
            yield start, first
    for begin in range(first, frame_count, chunk_size):
        yield begin, min(begin + chunk_size, frame_count)


class FrameChunk:
    """A batch of ``N`` consecutive frames as one ``(N, H, W, 3)`` array.

    Parameters
    ----------
    pixels:
        ``(N, H, W, 3)`` uint8 batch.  Views are used as-is (no copy), so
        array-backed clips can hand out chunks for free.
    start:
        Global index of the first frame in the batch.
    """

    __slots__ = ("pixels", "start", "_luminance", "_peak_u8")

    def __init__(self, pixels: np.ndarray, start: int = 0):
        arr = np.asarray(pixels)
        if arr.ndim != 4 or arr.shape[3] != 3:
            raise ValueError(f"chunk pixels must be (N, H, W, 3), got {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"chunk pixels must be uint8, got {arr.dtype}")
        if arr.shape[0] == 0:
            raise ValueError("a chunk must contain at least one frame")
        self.pixels = arr
        self.start = int(start)
        self._luminance: Optional[np.ndarray] = None
        self._peak_u8: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_frames(cls, frames: List[Frame], start: int = 0) -> "FrameChunk":
        """Stack per-frame pixel arrays into one chunk.

        Raises :class:`HeterogeneousFrameError` when the frames do not
        share a resolution (the batched engine cannot represent them).
        """
        if not frames:
            raise ValueError("cannot build a chunk from zero frames")
        shape = frames[0].pixels.shape
        if any(f.pixels.shape != shape for f in frames):
            raise HeterogeneousFrameError(
                f"frames mix resolutions within one chunk (first is {shape})"
            )
        return cls(np.stack([f.pixels for f in frames]), start=start)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.pixels.shape[0]

    @property
    def stop(self) -> int:
        """Global index one past the last frame in the chunk."""
        return self.start + len(self)

    @property
    def indices(self) -> range:
        """Global frame indices covered by the chunk."""
        return range(self.start, self.stop)

    @property
    def frame_shape(self) -> Tuple[int, int]:
        """``(height, width)`` of every frame in the chunk."""
        return (self.pixels.shape[1], self.pixels.shape[2])

    # ------------------------------------------------------------------
    # Derived planes (vectorized, bit-identical to the per-frame math)
    # ------------------------------------------------------------------
    def _lum_f64(self) -> np.ndarray:
        # Gather per-channel contributions through the tables; np.take is
        # markedly faster than fancy indexing on the strided channel views.
        lum = np.take(_LUM_TABLES[0], self.pixels[..., 0])
        lum += np.take(_LUM_TABLES[1], self.pixels[..., 1])
        lum += np.take(_LUM_TABLES[2], self.pixels[..., 2])
        return lum

    @property
    def luminance(self) -> np.ndarray:
        """Normalized BT.601 luminance, ``(N, H, W)`` float64 (cached)."""
        if self._luminance is None:
            self._luminance = self._lum_f64()
        return self._luminance

    def luminance_codes(self) -> np.ndarray:
        """Per-pixel 8-bit luma codes, ``(N, H, W)`` int32.

        Identical to quantizing :attr:`luminance` with the histogram
        layer's ``round(clip(y, 0, 1) * 255)`` — the clip is skipped
        because the import-time guard above proves it is a no-op.
        """
        if self._luminance is not None:
            work = self._luminance * float(MAX_CHANNEL)
        else:
            work = self._lum_f64()
            work *= float(MAX_CHANNEL)
        np.rint(work, out=work)
        return work.astype(np.int32)

    @property
    def peak_channel_u8(self) -> np.ndarray:
        """Per-pixel max of R, G, B as raw uint8 codes, ``(N, H, W)``."""
        if self._peak_u8 is None:
            # Chained np.maximum is ~30x faster than max(axis=-1) here.
            self._peak_u8 = np.maximum(
                np.maximum(self.pixels[..., 0], self.pixels[..., 1]),
                self.pixels[..., 2],
            )
        return self._peak_u8

    # ------------------------------------------------------------------
    def frame(self, offset: int) -> Frame:
        """Materialize frame ``offset`` (chunk-local) as a :class:`Frame`.

        Derived planes already computed for the chunk are injected into
        the frame's own cache, so downstream per-frame consumers do not
        recompute them.
        """
        if not 0 <= offset < len(self):
            raise IndexError(f"chunk offset {offset} out of range [0, {len(self)})")
        frame = Frame(self.pixels[offset], index=self.start + offset)
        if self._luminance is not None:
            frame._luminance = self._luminance[offset]
        return frame

    def frames(self) -> List[Frame]:
        """Materialize every frame in the chunk."""
        return [self.frame(k) for k in range(len(self))]

    def __repr__(self) -> str:
        h, w = self.frame_shape
        return f"FrameChunk(frames=[{self.start}:{self.stop}), {w}x{h})"
