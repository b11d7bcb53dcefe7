"""Image compensation: keeping perceived intensity while dimming.

Section 4.1 gives the two compensation operators:

* **Brightness compensation** — ``C' = min(1, C + delta)``: "a constant
  value is added to each pixel's value ... Each RGB value needs to be
  compensated by same amount to maintain original colors."
* **Contrast enhancement** — ``C' = min(1, C * k)``: "all pixels in the
  image are multiplied by a constant amount ... We use this method in our
  work and we select a k value to maintain the same perceived intensity I
  (keep the product of L and Y constant, i.e. k = L/L')."

Both operate on normalized RGB channels; saturation at 1.0 is where the
quality loss (clipping) happens.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..video.frame import Frame, MAX_CHANNEL


@dataclass(frozen=True)
class CompensationResult:
    """A compensated frame plus the damage report."""

    frame: Frame
    clipped_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.clipped_fraction <= 1.0:
            raise ValueError(
                f"clipped fraction out of [0, 1]: {self.clipped_fraction}"
            )


def brightness_compensation(frame: Frame, delta: float) -> CompensationResult:
    """Add ``delta`` (normalized units) to every channel of every pixel.

    Returns the compensated frame and the fraction of pixels that hit the
    ceiling on at least one channel.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    values = frame.normalized() + delta
    clipped = np.any(values > 1.0 + 1e-12, axis=-1)
    result = Frame(np.minimum(values, 1.0), index=frame.index)
    return CompensationResult(frame=result, clipped_fraction=float(clipped.mean()))


def contrast_enhancement(frame: Frame, gain: float) -> CompensationResult:
    """Multiply every channel of every pixel by ``gain`` (k >= 1).

    The workhorse compensation of the paper.  Multiplying all three
    channels by the same gain scales the BT.601 luminance by exactly the
    same gain, so ``k = L / L'`` keeps ``I = rho * L * Y`` constant for
    every pixel that does not saturate.
    """
    if gain < 1.0:
        raise ValueError(
            f"compensation gain must be >= 1 (we brighten while dimming), got {gain}"
        )
    values = frame.normalized() * gain
    clipped = np.any(values > 1.0 + 1e-12, axis=-1)
    result = Frame(np.minimum(values, 1.0), index=frame.index)
    return CompensationResult(frame=result, clipped_fraction=float(clipped.mean()))


#: Byte codes 0..255 as float64, the domain of a compensation LUT.
_LUT_CODES = np.arange(int(MAX_CHANNEL) + 1, dtype=np.float64)

#: ``clip_code`` sentinel for "no byte code clips at this gain".
_NEVER_CLIPS = int(MAX_CHANNEL) + 1

_GAIN_LUT_LOCK = threading.Lock()
_GAIN_LUT_CACHE = None


def gain_lut_cache():
    """The process-wide cache of per-gain compensation LUTs.

    Backed by a :class:`~repro.core.profile_cache.ProfileCache` (lazily
    created, imported lazily to keep this module dependency-light), so
    LUT reuse shows up in the same cache telemetry series as profile
    reuse.  A LUT is 256 bytes; a distinct gain exists per annotated
    scene, so even a large catalog fits comfortably in the bound.
    """
    global _GAIN_LUT_CACHE
    with _GAIN_LUT_LOCK:
        if _GAIN_LUT_CACHE is None:
            from .profile_cache import ProfileCache

            _GAIN_LUT_CACHE = ProfileCache(max_entries=256)
        return _GAIN_LUT_CACHE


def _build_gain_lut(gain: float) -> Tuple[np.ndarray, int]:
    # The exact float operation sequence of the reference kernel, applied
    # to every possible byte code instead of every pixel: normalize,
    # scale, saturate, re-quantize.  Elementwise ops on the same inputs in
    # the same order produce the same bits, so looking pixels up through
    # this table is provably identical to the per-pixel float path.
    values = _LUT_CODES / MAX_CHANNEL
    values *= gain
    clipped = values > 1.0 + 1e-12
    np.minimum(values, 1.0, out=values)
    values *= MAX_CHANNEL
    np.rint(values, out=values)
    lut = values.astype(np.uint8)
    lut.setflags(write=False)
    hits = np.nonzero(clipped)[0]
    clip_code = int(hits[0]) if hits.size else _NEVER_CLIPS
    return lut, clip_code


def gain_lut(gain: float) -> Tuple[np.ndarray, int]:
    """The 256-entry compensation LUT for one gain, plus its clip code.

    Returns ``(lut, clip_code)``: ``lut[x]`` is the compensated byte for
    input byte ``x`` — bit-identical to the float path's
    ``rint(min(x / 255 * gain, 1) * 255)`` — and ``clip_code`` is the
    smallest byte code that saturates (``256`` when none does; the scale
    ``x / 255 * gain`` is monotone in ``x``, so the clipping codes form
    the up-set ``[clip_code, 255]``).  LUTs are cached process-wide via
    :func:`gain_lut_cache`.
    """
    key = ("gain-lut", float(gain))
    cache = gain_lut_cache()
    entry = cache.get(key)
    if entry is None:
        entry = _build_gain_lut(float(gain))
        cache.put(key, entry)
    return entry


def _lut_frames(lut: np.ndarray, pixels: np.ndarray) -> List[np.ndarray]:
    """``lut[pixels]`` for a uint8 batch, as one array per frame.

    ``lut`` is a 256-entry uint8 table and ``pixels`` a uint8 array whose
    leading axis is frames.  Each frame goes through
    ``bytearray.translate``, a C loop over bytes and a 256-byte table:
    the same lookup as ``np.take`` without widening every uint8 index to
    an 8-byte intp first, and one GIL hold per frame rather than per
    chunk.  Each returned frame is a writable view of its own translated
    buffer, so nothing is copied after the lookup.
    """
    table = lut.tobytes()
    frames = []
    for frame in pixels:
        frame = np.ascontiguousarray(frame)
        frames.append(np.frombuffer(
            bytearray(frame).translate(table), dtype=np.uint8
        ).reshape(frame.shape))
    return frames


def _apply_lut(lut: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """:func:`_lut_frames` gathered into one array of ``pixels``' shape."""
    out = np.empty(pixels.shape, dtype=np.uint8)
    for k, frame in enumerate(_lut_frames(lut, pixels)):
        out[k] = frame
    return out


def _check_batch_args(
    pixels: np.ndarray, gains: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared validation for the batched kernels; returns (pixels, (N,) gains)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 4 or pixels.shape[3] != 3:
        raise ValueError(f"batch pixels must be (N, H, W, 3), got {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise ValueError(f"batch pixels must be uint8, got {pixels.dtype}")
    n = pixels.shape[0]
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim == 0:
        g = np.full(n, float(g))
    if g.shape != (n,):
        raise ValueError(f"gains must be scalar or shape ({n},), got {g.shape}")
    if np.any(g <= 0):
        raise ValueError("compensation gains must be positive")
    return pixels, g


def contrast_enhancement_frames(
    pixels: np.ndarray,
    gains: Union[float, np.ndarray],
    fractions: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """:func:`contrast_enhancement_batch` returning one array per frame.

    The same bytes and fractions, but each compensated frame is its own
    ``(H, W, 3)`` array: a view of the LUT lookup's output buffer, or a
    copy of the input at ``gain <= 1``.  The streaming path sends these
    buffers as frame payloads as they are, so no batch array is filled.
    """
    pixels, g = _check_batch_args(pixels, gains)
    n = pixels.shape[0]
    if fractions is not None:
        fractions = np.asarray(fractions, dtype=np.float64)
        if fractions.shape != (n,):
            raise ValueError(
                f"fractions must have shape ({n},), got {fractions.shape}"
            )
        compute_fractions = False
    else:
        fractions = np.zeros(n)
        compute_fractions = True
    frames: List[np.ndarray] = []
    # Gains are per-scene, so equal-gain frames form contiguous runs;
    # each run is one LUT lookup plus one peak-channel reduction.
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and g[hi] == g[lo]:
            hi += 1
        gain = float(g[lo])
        run = pixels[lo:hi]
        if gain <= 1.0:
            frames.extend(frame.copy() for frame in run)
        else:
            lut, clip_code = gain_lut(gain)
            frames.extend(_lut_frames(lut, run))
            if compute_fractions and clip_code <= int(MAX_CHANNEL):
                # Chained np.maximum over the channel views — same idiom
                # (and same speedup) as FrameChunk.peak_channel_u8.
                peak = np.maximum(
                    np.maximum(run[..., 0], run[..., 1]), run[..., 2]
                )
                fractions[lo:hi] = (peak >= clip_code).mean(axis=(1, 2))
        lo = hi
    return frames, fractions


def contrast_enhancement_batch(
    pixels: np.ndarray,
    gains: Union[float, np.ndarray],
    out: Optional[np.ndarray] = None,
    fractions: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched contrast enhancement over an ``(N, H, W, 3)`` uint8 chunk.

    Bit-identical to running :func:`contrast_enhancement` on each frame.
    The hot loop is *fused*: instead of materializing a float64 scratch
    copy of the chunk (24 bytes per pixel) and running the normalize →
    scale → clip → quantize sequence per pixel, each distinct gain's
    mapping is precomputed once into a 256-entry uint8 LUT
    (:func:`gain_lut`) and each frame is looked up through it with
    ``bytearray.translate`` — the float math runs 256 times per gain
    instead of once per channel sample, and the lookup never widens the
    uint8 pixels to intp indices the way ``np.take`` does.
    Clipped fractions come from the peak channel against the LUT's clip
    code, which selects exactly the pixels the float path flags (the
    gain scale is monotone per byte code).
    :func:`contrast_enhancement_batch_reference` keeps the direct float
    implementation as the equivalence oracle, and
    :func:`contrast_enhancement_frames` is the same kernel without the
    gather into one batch array.

    Parameters
    ----------
    pixels:
        ``(N, H, W, 3)`` uint8 batch.
    gains:
        Scalar or per-frame ``(N,)`` gain vector.  Gains must be positive;
        frames with ``gain <= 1`` pass through unchanged with zero
        clipping, mirroring the annotated stream's full-backlight
        short-circuit (a gain of exactly 1 round-trips uint8 pixels).
    out:
        Optional preallocated ``(N, H, W, 3)`` uint8 output; a fresh
        array is allocated when omitted.
    fractions:
        Optional precomputed per-frame clipped fractions, ``(N,)`` float.
        When given, the kernel skips the peak-channel reduction entirely
        and returns this array as-is — the caller asserts the values
        equal what the kernel would compute (e.g. derived from the
        profiling pass's exact peak-channel histograms, as
        :class:`~repro.core.pipeline.AnnotatedStream` does).  This keeps
        the hot loop down to pure per-frame LUT lookups, which matters
        under thread contention: each lookup holds the GIL for one frame
        while the large reduction ufuncs release and reacquire it around
        every op, inviting preemption mid-chunk.

    Returns
    -------
    (compensated, fractions):
        The compensated ``(N, H, W, 3)`` uint8 batch (``out`` when given)
        and the per-frame clipped fraction as an ``(N,)`` float array.
    """
    pixels, _ = _check_batch_args(pixels, gains)
    if out is None:
        out = np.empty_like(pixels)
    elif (
        not isinstance(out, np.ndarray)
        or out.shape != pixels.shape
        or out.dtype != np.uint8
    ):
        raise ValueError(
            f"out must be a uint8 array of shape {pixels.shape}"
        )
    frames, fractions = contrast_enhancement_frames(pixels, gains, fractions)
    for k, frame in enumerate(frames):
        out[k] = frame
    return out, fractions


def contrast_enhancement_batch_reference(
    pixels: np.ndarray, gains: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The direct float implementation of :func:`contrast_enhancement_batch`.

    Applies the normalize → scale → clip → quantize sequence to a float64
    copy of the whole batch — the pre-LUT hot loop, kept as the oracle
    the fused kernel is pinned against (and as the measurement baseline
    for the LUT speedup benchmark).
    """
    pixels, g = _check_batch_args(pixels, gains)
    n = pixels.shape[0]

    fractions = np.zeros(n)
    active = g > 1.0
    if not active.any():
        return pixels.copy(), fractions

    sub = pixels if active.all() else pixels[active]
    values = sub.astype(np.float64)
    values /= MAX_CHANNEL
    values *= g[active][:, None, None, None]
    threshold = 1.0 + 1e-12
    # Chained per-channel comparisons instead of np.any(..., axis=-1):
    # same booleans, far cheaper than a reduction over the strided axis.
    clipped = (
        (values[..., 0] > threshold)
        | (values[..., 1] > threshold)
        | (values[..., 2] > threshold)
    )
    active_fractions = clipped.mean(axis=(1, 2))
    np.minimum(values, 1.0, out=values)
    values *= MAX_CHANNEL
    np.rint(values, out=values)
    compensated_active = values.astype(np.uint8)

    if active.all():
        return compensated_active, active_fractions
    compensated = pixels.copy()
    compensated[active] = compensated_active
    fractions[active] = active_fractions
    return compensated, fractions


def compensate_for_backlight(frame: Frame, backlight_luminance: float) -> CompensationResult:
    """Contrast-enhance a frame for a dimmed backlight.

    ``backlight_luminance`` is the relative output ``L'/L`` of the dimmed
    backlight; the gain is the paper's ``k = L / L'``.
    """
    if not 0.0 < backlight_luminance <= 1.0:
        raise ValueError(
            f"backlight luminance must be in (0, 1], got {backlight_luminance}"
        )
    return contrast_enhancement(frame, 1.0 / backlight_luminance)
