"""Decoder timing model.

The paper's client runs "a video player (from Berkeley MPEG tools)" on a
400 MHz XScale.  For power purposes all that matters is how busy the
decoder keeps the CPU; this model estimates per-frame decode time from
frame size and content complexity; the playback loop divides it by the
frame period to get the CPU duty cycle the power model consumes.  It deliberately stops short of bitstream-level detail —
the annotation technique is independent of the codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..video.frame import Frame


@dataclass(frozen=True)
class DecoderModel:
    """A fixed-point software decoder on a given CPU.

    Attributes
    ----------
    cycles_per_pixel:
        Average decode cost per pixel for typical content.
    complexity_cycles_per_pixel:
        Extra per-pixel cost at maximal spatial complexity (busy frames
        take longer to decode: more coefficients, more motion vectors).
    cpu_hz:
        Clock rate of the client CPU.
    reference_pixels:
        Optional pixel count to charge per frame regardless of the
        simulated frame size (see field comment).
    """

    cycles_per_pixel: float = 150.0
    complexity_cycles_per_pixel: float = 120.0
    cpu_hz: float = 400e6  # iPAQ 5555: 400 MHz Intel XScale
    #: When set, decode cost is charged for this many pixels per frame
    #: instead of the frame's actual size.  Simulations shrink frames for
    #: compute efficiency; this models the CPU as if frames were still at
    #: the device's native resolution (e.g. 320*240 for the iPAQ).
    reference_pixels: Optional[int] = None

    def __post_init__(self):
        if self.cycles_per_pixel <= 0:
            raise ValueError("cycles_per_pixel must be positive")
        if self.complexity_cycles_per_pixel < 0:
            raise ValueError("complexity_cycles_per_pixel must be non-negative")
        if self.cpu_hz <= 0:
            raise ValueError("cpu_hz must be positive")
        if self.reference_pixels is not None and self.reference_pixels <= 0:
            raise ValueError("reference_pixels must be positive when set")

    # ------------------------------------------------------------------
    @staticmethod
    def spatial_complexity(frame: Frame) -> float:
        """Cheap 0-1 complexity proxy: mean absolute luminance gradient."""
        lum = frame.luminance
        gx = np.abs(np.diff(lum, axis=1)).mean() if lum.shape[1] > 1 else 0.0
        gy = np.abs(np.diff(lum, axis=0)).mean() if lum.shape[0] > 1 else 0.0
        # 0.25 mean gradient is already extremely busy content.
        return float(min((gx + gy) / 0.25, 1.0))

    def decode_time_s(self, frame: Frame) -> float:
        """Wall time to decode one frame."""
        per_pixel = self.cycles_per_pixel + self.complexity_cycles_per_pixel * (
            self.spatial_complexity(frame)
        )
        pixels = self.reference_pixels if self.reference_pixels else frame.pixel_count
        return pixels * per_pixel / self.cpu_hz
