"""The paper's evaluation, one function per figure: the only code that
computes one.

``figure6`` … ``figure10`` and ``backlight_share`` build every table and
series the paper reports.  The paper-shape benchmarks under
``benchmarks/`` call them and write their ``format()`` output to
``benchmarks/results/``, and ``repro report`` and ``repro calibrate``
print them; none of those recomputes a figure.  Run at any scale from
notebooks or scripts:

    from repro import experiments
    fig9 = experiments.figure9(duration_scale=0.5)
    print(fig9.format())

Every result object carries the raw numbers plus a ``format()`` method
producing the paper-style text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .camera import DigitalCamera, SRGBLikeResponse
from .core import (
    QUALITY_LEVELS,
    AnnotationPipeline,
    SchemeParameters,
    quality_label,
    sweep_quality_levels,
)
from .display import (
    DeviceProfile,
    all_devices,
    ipaq_5555,
    measure_backlight_transfer,
)
from .player import DecoderModel, PlaybackEngine, PlaybackResult
from .power import PLAYBACK_ACTIVITY, DevicePowerModel
from .video import PAPER_CLIP_NAMES, paper_library

#: Default workload scale: small enough for interactive runs, large enough
#: for stable statistics.
DEFAULT_RESOLUTION: Tuple[int, int] = (96, 72)
DEFAULT_DURATION_SCALE = 0.25


def _fmt_percent_table(rows: Dict[str, List[float]], qualities: Sequence[float]) -> str:
    lines = [f"{'clip':<22}" + "".join(f"{quality_label(q):>8}" for q in qualities)]
    for name, values in rows.items():
        lines.append(f"{name:<22}" + "".join(f"{v:>8.1%}" for v in values))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 9
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SavingsTable:
    """Per-clip, per-quality savings (Figures 9 and 10)."""

    kind: str
    device_name: str
    qualities: Tuple[float, ...]
    rows: Dict[str, List[float]]

    def best_clip(self) -> Tuple[str, float]:
        """Clip with the largest savings at the highest quality level."""
        name = max(self.rows, key=lambda n: self.rows[n][-1])
        return name, self.rows[name][-1]

    def format(self) -> str:
        """Paper-style text table."""
        return _fmt_percent_table(self.rows, self.qualities)


def figure9(
    device: Optional[DeviceProfile] = None,
    resolution: Tuple[int, int] = DEFAULT_RESOLUTION,
    duration_scale: float = DEFAULT_DURATION_SCALE,
    qualities: Sequence[float] = QUALITY_LEVELS,
    names: Sequence[str] = PAPER_CLIP_NAMES,
    params: SchemeParameters = SchemeParameters(),
) -> SavingsTable:
    """Simulated LCD backlight power savings (the headline table)."""
    device = device if device is not None else ipaq_5555()
    rows: Dict[str, List[float]] = {}
    for clip in paper_library(resolution=resolution, duration_scale=duration_scale,
                              names=names):
        streams = sweep_quality_levels(clip, device, qualities, params=params)
        rows[clip.name] = [s.predicted_backlight_savings() for s in streams]
    return SavingsTable(kind="backlight", device_name=device.name,
                        qualities=tuple(qualities), rows=rows)


def figure10(
    device: Optional[DeviceProfile] = None,
    resolution: Tuple[int, int] = DEFAULT_RESOLUTION,
    duration_scale: float = DEFAULT_DURATION_SCALE,
    qualities: Sequence[float] = QUALITY_LEVELS,
    names: Sequence[str] = PAPER_CLIP_NAMES,
    params: SchemeParameters = SchemeParameters(),
    reference_pixels: int = 320 * 240,
) -> SavingsTable:
    """DAQ-measured whole-device power savings during playback.

    ``reference_pixels`` charges decode cost at the device's native
    resolution even when simulation frames are smaller.
    """
    device = device if device is not None else ipaq_5555()
    engine = PlaybackEngine(
        device, decoder=DecoderModel(reference_pixels=reference_pixels)
    )
    rows: Dict[str, List[float]] = {}
    for clip in paper_library(resolution=resolution, duration_scale=duration_scale,
                              names=names):
        streams = sweep_quality_levels(clip, device, qualities, params=params)
        rows[clip.name] = [
            measured_savings(engine.play(stream), run)
            for run, stream in enumerate(streams)
        ]
    return SavingsTable(kind="total-device", device_name=device.name,
                        qualities=tuple(qualities), rows=rows)


def measured_savings(result: PlaybackResult, run: int) -> float:
    """DAQ-measured whole-device savings of one playback (Figure 10).

    Run ``run`` samples the playback with DAQ seed ``2 * run`` and its
    full-backlight reference with ``2 * run + 1``.  Figure 10 numbers a
    clip's runs by quality index, restarting for each clip, so a clip's
    row does not depend on which clips were measured before it.
    """
    return result.measure(run_id=2 * run).savings_vs(
        result.measure_baseline(run_id=2 * run + 1)
    )


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneTrace:
    """The three Figure 6 series for one clip."""

    clip_name: str
    times_s: np.ndarray
    frame_max_luminance: np.ndarray
    scene_max_luminance: np.ndarray
    instantaneous_savings: np.ndarray
    scene_count: int
    switch_count: int

    def format(self, points: int = 24) -> str:
        """Text table of the trace, decimated to ~``points`` rows."""
        step = max(1, self.times_s.size // points)
        lines = ["time_s  frame_max  scene_max  power_saved"]
        for i in range(0, self.times_s.size, step):
            lines.append(
                f"{self.times_s[i]:>6.2f} {self.frame_max_luminance[i]:>10.3f} "
                f"{self.scene_max_luminance[i]:>10.3f} "
                f"{self.instantaneous_savings[i]:>12.1%}"
            )
        return "\n".join(lines)


def figure6(
    clip_name: str = "themovie",
    device: Optional[DeviceProfile] = None,
    quality: float = 0.10,
    resolution: Tuple[int, int] = DEFAULT_RESOLUTION,
    duration_scale: float = DEFAULT_DURATION_SCALE,
    params: Optional[SchemeParameters] = None,
) -> SceneTrace:
    """Scene grouping trace for one clip."""
    from .video import make_clip

    device = device if device is not None else ipaq_5555()
    if params is None:
        params = SchemeParameters(quality=quality, min_scene_interval_frames=8)
    else:
        params = params.with_quality(quality)
    clip = make_clip(clip_name, resolution=resolution, duration_scale=duration_scale)
    pipeline = AnnotationPipeline(params)
    profile = pipeline.profile(clip)
    stream = pipeline.build_stream(clip, device, profile=profile)
    return SceneTrace(
        clip_name=clip_name,
        times_s=clip.timestamps(),
        frame_max_luminance=profile.max_luminance_series(),
        scene_max_luminance=profile.scene_max_series(),
        instantaneous_savings=stream.instantaneous_savings(),
        scene_count=len(profile.scenes),
        switch_count=stream.track.switch_count(),
    )


# ---------------------------------------------------------------------------
# Figure 7
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferCurves:
    """Measured backlight transfer per device (Figure 7)."""

    levels: Tuple[int, ...]
    curves: Dict[str, List[float]]

    def format(self) -> str:
        """Text table: one row per level, one column per device."""
        names = list(self.curves)
        lines = ["level  " + "  ".join(f"{n:>14}" for n in names)]
        for i, level in enumerate(self.levels):
            lines.append(
                f"{level:>5}  "
                + "  ".join(f"{self.curves[n][i]:>14.3f}" for n in names)
            )
        return "\n".join(lines)


def figure7(
    devices: Optional[Sequence[DeviceProfile]] = None,
    camera: Optional[DigitalCamera] = None,
    levels: Sequence[int] = tuple(range(0, 256, 32)) + (255,),
) -> TransferCurves:
    """Camera-measured brightness-vs-backlight curves."""
    devices = list(devices) if devices is not None else all_devices()
    camera = camera if camera is not None else DigitalCamera(
        response=SRGBLikeResponse(), noise_sigma=0.002, seed=7
    )
    curves: Dict[str, List[float]] = {}
    for dev in devices:
        transfer = measure_backlight_transfer(dev, camera)
        curves[dev.name] = [float(transfer.luminance(lv)) for lv in levels]
    return TransferCurves(levels=tuple(int(l) for l in levels), curves=curves)


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhiteSweep:
    """Measured brightness vs white level at two backlights (Figure 8)."""

    device_name: str
    gray_levels: Tuple[int, ...]
    brightness_at_full: Tuple[float, ...]
    brightness_at_half: Tuple[float, ...]
    fitted_gamma: float

    def format(self) -> str:
        """Text table: one row per white level."""
        lines = ["white  brightness@bl255  brightness@bl128"]
        for level, full, half in zip(self.gray_levels, self.brightness_at_full,
                                     self.brightness_at_half):
            lines.append(f"{level:>5} {full:>17.3f} {half:>17.3f}")
        lines.append("")
        lines.append(f"fitted white gamma (bl=255): {self.fitted_gamma:.3f}  (1.0 = linear)")
        return "\n".join(lines)


def figure8(
    device: Optional[DeviceProfile] = None,
    camera: Optional[DigitalCamera] = None,
    gray_levels: Sequence[int] = tuple(range(0, 256, 32)) + (255,),
) -> WhiteSweep:
    """Camera-measured brightness-vs-white-level curves (Figure 8)."""
    from .display import fit_white_gamma, measure_white_transfer

    device = device if device is not None else ipaq_5555()
    camera = camera if camera is not None else DigitalCamera(
        response=SRGBLikeResponse(), noise_sigma=0.002, seed=8
    )
    full = measure_white_transfer(device, camera, backlight_level=255,
                                  gray_levels=gray_levels)
    half = measure_white_transfer(device, camera, backlight_level=128,
                                  gray_levels=gray_levels)
    return WhiteSweep(
        device_name=device.name,
        gray_levels=tuple(int(g) for g in gray_levels),
        brightness_at_full=tuple(s.measured_brightness for s in full),
        brightness_at_half=tuple(s.measured_brightness for s in half),
        fitted_gamma=fit_white_gamma(full),
    )


# ---------------------------------------------------------------------------
# Section 4: backlight share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerBreakdown:
    """Per-device component power during playback (Section 4's 25-30 %)."""

    rows: Dict[str, Dict[str, float]]

    def share(self, device_name: str) -> float:
        """Backlight fraction of total playback power for one device."""
        row = self.rows[device_name]
        return row["backlight"] / row["total"]

    def format(self) -> str:
        """Text table of the per-component breakdown."""
        parts = ("base", "cpu", "network", "panel", "backlight", "total")
        lines = [f"{'device':<16}" + "".join(f"{p:>10}" for p in parts) + f"{'share':>8}"]
        for name, row in self.rows.items():
            lines.append(
                f"{name:<16}"
                + "".join(f"{row[p]:>10.2f}" for p in parts)
                + f"{self.share(name):>8.1%}"
            )
        return "\n".join(lines)


def backlight_share() -> PowerBreakdown:
    """Component power breakdown for every registered device."""
    rows: Dict[str, Dict[str, float]] = {}
    for dev in all_devices():
        model = DevicePowerModel(dev)
        parts = model.component_power(PLAYBACK_ACTIVITY, 255)
        row = {k: float(np.asarray(v)) for k, v in parts.items()}
        row["total"] = float(model.total_power(PLAYBACK_ACTIVITY, 255))
        rows[dev.name] = row
    return PowerBreakdown(rows=rows)
