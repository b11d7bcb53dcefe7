"""Display characterization via camera sweeps (Section 5, Figures 7-8).

"We start by first characterizing the display and backlight of our PDAs.
This is performed by displaying images of different solid gray levels on
the handhelds and capturing snapshots of the screen with a digital camera."

Two sweeps are implemented:

* :func:`measure_backlight_transfer` — full-white pattern, backlight swept
  over its range (Figure 7).  Produces a
  :class:`~repro.display.transfer.TabulatedBacklightTransfer` usable by the
  annotation pipeline, closing the loop the paper describes: "Our scheme
  allows us to tailor the technique to each PDA ... by including the
  display properties in the loop."
* :func:`measure_white_transfer` — backlight fixed, gray level swept
  (Figure 8).

Camera photographs are linearized through the camera's (known) inverse
response before building the tables, mirroring the Debevec-Malik recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..camera.camera import DigitalCamera
from .devices import DeviceProfile
from .rendering import render_solid_gray
from .transfer import MAX_BACKLIGHT_LEVEL, TabulatedBacklightTransfer

#: Default sweep: 16 evenly spaced levels plus the endpoints.
DEFAULT_SWEEP_LEVELS = tuple(range(0, MAX_BACKLIGHT_LEVEL + 1, 17))


@dataclass(frozen=True)
class SweepSample:
    """One calibration measurement point."""

    level: int
    measured_brightness: float


def _photograph_patch(
    device: DeviceProfile,
    camera: DigitalCamera,
    gray_level: int,
    backlight_level: int,
    ambient: float,
) -> float:
    """Photograph a solid patch and return its mean linearized radiance."""
    perceived = render_solid_gray(gray_level, backlight_level, device, ambient=ambient)
    photo = camera.snapshot(perceived)
    return float(camera.estimate_radiance(photo).mean())


def measure_backlight_transfer(
    device: DeviceProfile,
    camera: DigitalCamera,
    levels: Sequence[int] = DEFAULT_SWEEP_LEVELS,
    ambient: float = 0.0,
) -> TabulatedBacklightTransfer:
    """Calibrate luminance-vs-backlight from a white-pattern sweep (Fig 7).

    Returns a tabulated transfer normalized to the brightest sample, ready
    to be plugged into a :class:`~repro.display.transfer.DisplayTransfer`.
    """
    levels = sorted(set(int(l) for l in levels))
    if len(levels) < 2:
        raise ValueError("need at least two sweep levels")
    if levels[-1] != MAX_BACKLIGHT_LEVEL:
        levels.append(MAX_BACKLIGHT_LEVEL)
    samples = [
        _photograph_patch(device, camera, gray_level=255, backlight_level=lv, ambient=ambient)
        for lv in levels
    ]
    # Photographic noise can produce tiny non-monotonicities; a running max
    # keeps the table valid without biasing the curve.
    brightness = np.maximum.accumulate(np.asarray(samples, dtype=np.float64))
    return TabulatedBacklightTransfer(levels, brightness)


def measure_white_transfer(
    device: DeviceProfile,
    camera: DigitalCamera,
    backlight_level: int = MAX_BACKLIGHT_LEVEL,
    gray_levels: Sequence[int] = tuple(range(0, 256, 17)),
    ambient: float = 0.0,
) -> list:
    """Sweep the displayed white level at fixed backlight (Fig 8).

    Returns a list of :class:`SweepSample` (gray level, measured
    brightness).  The samples are what Figure 8 plots for backlight 255 and
    128; fitting a gamma to them is left to the caller (see the
    calibration example).
    """
    samples = []
    for gl in gray_levels:
        measured = _photograph_patch(
            device, camera, gray_level=int(gl), backlight_level=backlight_level,
            ambient=ambient,
        )
        samples.append(SweepSample(level=int(gl), measured_brightness=measured))
    return samples


def fit_white_gamma(samples: Sequence[SweepSample]) -> float:
    """Least-squares gamma fit of a white-level sweep.

    Fits ``brightness = peak * (level/top) ** gamma`` in log space over the
    non-dark samples, where ``top`` is the highest sampled level and
    ``peak`` its brightness, and returns the estimated gamma ("almost
    linear" shows up as a value near 1.0 for the iPAQ 5555).  Both axes
    are normalized at the same sample, so a sweep that stops short of 255
    fits the same gamma as a full one.
    """
    levels = np.array([s.level for s in samples], dtype=np.float64)
    brightness = np.array([s.measured_brightness for s in samples], dtype=np.float64)
    mask = (levels > 0) & (brightness > 0)
    if mask.sum() < 2:
        raise ValueError("not enough usable samples to fit a gamma")
    top = levels.max()
    x = np.log(levels[mask] / top)
    peak = brightness[levels == top]
    y = np.log(brightness[mask] / float(peak[-1]))
    # Slope of y = gamma * x through the origin.
    gamma = float(np.dot(x, y) / np.dot(x, x))
    if gamma <= 0:
        raise ValueError(f"fitted non-physical gamma {gamma}")
    return gamma
