"""Pixel transforms: how a policy's compensation touches frames.

The paper's compensation is one multiplicative gain per scene
(:class:`GainTransform`, wrapping
:func:`~repro.core.compensation.contrast_enhancement_batch` — the
bit-identical batched kernel).  Richer policies swap in other transforms:
a 256-entry tone-curve LUT (:class:`LutTransform`, HEBS) or a resolution
downscale plus gain (:class:`SpatialTransform`).

Every transform offers the same two application surfaces the streaming
stack uses: :meth:`PixelTransform.apply_batch` for the chunked engines
(``(N, H, W, 3)`` uint8 in, uint8 out, per-frame clipped fractions
alongside) and :meth:`PixelTransform.apply_frame` for the per-frame
reference path.  All transforms are elementwise per *frame*, so a batch
may be split at any frame boundary without changing the output — the
property the chunked engine relies on.
"""

from __future__ import annotations

from typing import Hashable, Tuple

import numpy as np

from ...video.frame import Frame, MAX_CHANNEL
from ..compensation import (
    CompensationResult,
    _apply_lut,
    _lut_frames,
    contrast_enhancement,
    contrast_enhancement_batch,
)

#: Saturation threshold shared with :mod:`repro.core.compensation`.
_CLIP_THRESHOLD = 1.0 + 1e-12


def _check_batch(pixels: np.ndarray) -> np.ndarray:
    """Validate an ``(N, H, W, 3)`` uint8 batch (shared by transforms)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 4 or pixels.shape[3] != 3:
        raise ValueError(f"batch pixels must be (N, H, W, 3), got {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise ValueError(f"batch pixels must be uint8, got {pixels.dtype}")
    return pixels


class PixelTransform:
    """Interface: a per-scene compensation applied to pixel data."""

    #: True for plain multiplicative-gain transforms.  The annotated
    #: stream keeps its historical vectorized fast path (one batched
    #: kernel call per chunk with a per-frame gain vector) when every
    #: scene transform is a gain.
    is_gain: bool = False

    @property
    def key(self) -> Hashable:
        """Identity of the pixel mapping: transforms with equal keys turn
        any frame into the same bytes (the server's record-CRC key)."""
        raise NotImplementedError

    def apply_frame(self, frame: Frame) -> CompensationResult:
        """Compensate one frame; returns the frame plus clipped fraction."""
        raise NotImplementedError

    def apply_batch(self, pixels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compensate a uint8 batch; returns (pixels, per-frame fractions)."""
        raise NotImplementedError


class GainTransform(PixelTransform):
    """The paper's contrast enhancement: one multiplicative gain.

    ``gain <= 1`` (full backlight) passes pixels through untouched with
    zero clipping, mirroring the annotated stream's short-circuit.
    """

    is_gain = True

    def __init__(self, gain: float):
        gain = float(gain)
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.gain = gain

    @property
    def key(self) -> float:
        """The gain."""
        return self.gain

    def apply_frame(self, frame: Frame) -> CompensationResult:
        """Scale one frame by the gain (pass-through at full backlight)."""
        if self.gain <= 1.0:
            return CompensationResult(frame=frame.copy(), clipped_fraction=0.0)
        return contrast_enhancement(frame, self.gain)

    def apply_batch(self, pixels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched contrast enhancement (the existing chunked kernel)."""
        return contrast_enhancement_batch(pixels, self.gain)

    def __repr__(self) -> str:
        return f"GainTransform(gain={self.gain:.3f})"


class LutTransform(PixelTransform):
    """A 256-entry tone curve applied per channel (HEBS compensation).

    The LUT already contains the compensation (bulk stretch + equalized
    band), so application is a single table lookup.  A pixel counts as
    clipped when its peak channel code exceeds ``clip_code`` — the codes
    the curve maps to full scale beyond the authorized quality budget.
    """

    is_gain = False

    def __init__(self, lut: np.ndarray, clip_code: int):
        lut = np.asarray(lut, dtype=np.uint8)
        if lut.shape != (256,):
            raise ValueError(f"LUT must have 256 entries, got {lut.shape}")
        if np.any(np.diff(lut.astype(np.int64)) < 0):
            raise ValueError("LUT must be monotone non-decreasing")
        if not 0 <= int(clip_code) <= 255:
            raise ValueError(f"clip_code must be in [0, 255], got {clip_code}")
        self.lut = lut
        self.clip_code = int(clip_code)
        self._key = lut.tobytes()

    @property
    def key(self) -> bytes:
        """The LUT's 256 bytes (the clip code never touches pixels)."""
        return self._key

    def apply_frame(self, frame: Frame) -> CompensationResult:
        """Look one frame up through the tone curve."""
        pixels = frame.pixels
        fraction = float((pixels.max(axis=-1) > self.clip_code).mean())
        looked_up = _lut_frames(self.lut, pixels[None])[0]
        return CompensationResult(
            frame=Frame(looked_up, index=frame.index),
            clipped_fraction=fraction,
        )

    def apply_batch(self, pixels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Look a whole batch up through the tone curve."""
        pixels = _check_batch(pixels)
        return _apply_lut(self.lut, pixels), self.batch_clipped_fractions(pixels)

    def batch_clipped_fractions(self, pixels: np.ndarray) -> np.ndarray:
        """Fractions from peak-channel codes above the clip point."""
        pixels = _check_batch(pixels)
        return (pixels.max(axis=-1) > self.clip_code).mean(axis=(1, 2))

    def __repr__(self) -> str:
        return f"LutTransform(clip_code={self.clip_code})"


class SpatialTransform(PixelTransform):
    """Resolution downscale + gain (spatial-scaling compensation).

    Frames are box-filtered by an integer factor, contrast-enhanced like
    the paper's scheme, and replicated back to the original resolution so
    the wire format is unchanged (the client still receives full-size
    frames; a real deployment would ship the small frames and let the
    display scaler replicate).  Averaging pulls sparse highlights toward
    the block mean, which is what lets the policy pick a deeper backlight
    dim than clipping alone.
    """

    is_gain = False

    def __init__(self, scale: int, gain: float):
        scale = int(scale)
        if not 1 <= scale <= 16:
            raise ValueError(f"scale must be in [1, 16], got {scale}")
        gain = float(gain)
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.scale = scale
        self.gain = gain

    @property
    def key(self) -> Tuple[int, float]:
        """Scale plus gain."""
        return (self.scale, self.gain)

    # ------------------------------------------------------------------
    def _downscaled(self, pixels: np.ndarray) -> np.ndarray:
        """Box-filter a batch by the scale factor (edge-padded), to [0, 1]."""
        s = self.scale
        pad_h = (-pixels.shape[1]) % s
        pad_w = (-pixels.shape[2]) % s
        if pad_h or pad_w:
            pixels = np.pad(
                pixels, ((0, 0), (0, pad_h), (0, pad_w), (0, 0)), mode="edge"
            )
        n, h, w, _ = pixels.shape
        blocks = pixels.reshape(n, h // s, s, w // s, s, 3).astype(np.float64)
        return blocks.mean(axis=(2, 4)) / MAX_CHANNEL

    def _upscaled(self, values: np.ndarray, height: int, width: int) -> np.ndarray:
        """Replicate a downscaled batch back to the original resolution."""
        s = self.scale
        up = np.repeat(np.repeat(values, s, axis=1), s, axis=2)
        return up[:, :height, :width]

    # ------------------------------------------------------------------
    def apply_batch(self, pixels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Downscale, compensate, quantize, replicate back up."""
        pixels = _check_batch(pixels)
        n, h, w, _ = pixels.shape
        values = self._downscaled(pixels)
        values *= self.gain
        clipped = (
            (values[..., 0] > _CLIP_THRESHOLD)
            | (values[..., 1] > _CLIP_THRESHOLD)
            | (values[..., 2] > _CLIP_THRESHOLD)
        )
        np.minimum(values, 1.0, out=values)
        values *= MAX_CHANNEL
        np.rint(values, out=values)
        out = self._upscaled(values.astype(np.uint8), h, w)
        mask = self._upscaled(clipped, h, w)
        return np.ascontiguousarray(out), mask.mean(axis=(1, 2))

    def apply_frame(self, frame: Frame) -> CompensationResult:
        """Per-frame form of :meth:`apply_batch`."""
        out, fractions = self.apply_batch(frame.pixels[None])
        return CompensationResult(
            frame=Frame(out[0], index=frame.index),
            clipped_fraction=float(fractions[0]),
        )

    def __repr__(self) -> str:
        return f"SpatialTransform(scale={self.scale}, gain={self.gain:.3f})"
