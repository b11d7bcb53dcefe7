"""Ambient-aware backlight computation for transflective panels.

Section 4.1 notes that "most recent handhelds use transflective displays,
which perform best both indoors (low light) and outdoors (in sunlight)" —
because ambient light reflected through the panel adds to the transmitted
backlight.  The annotation scheme as evaluated assumes a dark room; this
module extends the binding step to exploit the reflective path: in bright
surroundings part of the target luminance arrives for free, so the same
scene needs a lower backlight level.

Physics: perceived intensity with ambient ``E`` is
``I = (rho*B(l) + r*E) * W(Y)`` (transmitted + reflected, both modulated
by the pixel).  Preserving the full-backlight reference
``(rho + r*E) * W(Y)`` for the scene's effective maximum requires

    rho*B(l) + r*E >= (rho + r*E) * W(Y_eff)

which, since ``W(Y_eff) <= 1``, is always weaker than the dark-room
condition ``B(l) >= W(Y_eff)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

import numpy as np

from .devices import DeviceProfile
from .transfer import MAX_BACKLIGHT_LEVEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports display)
    from ..core.annotation import AnnotationTrack, DeviceAnnotationTrack


@dataclass(frozen=True)
class AmbientCondition:
    """A viewing environment.

    ``illuminance`` is in the same normalized units as relative backlight
    luminance: 1.0 means the panel's reflected full-white is as bright as
    its transmitted full-white at maximum backlight.
    """

    name: str
    illuminance: float

    def __post_init__(self):
        if not 0 <= self.illuminance < float("inf"):
            raise ValueError("illuminance must be finite and non-negative")


DARK_ROOM = AmbientCondition("dark-room", 0.0)
LIVING_ROOM = AmbientCondition("living-room", 0.05)
OFFICE = AmbientCondition("office", 0.2)
OUTDOOR_SHADE = AmbientCondition("outdoor-shade", 0.8)
DIRECT_SUN = AmbientCondition("direct-sun", 3.0)

#: All presets, dimmest first.
AMBIENT_PRESETS = (DARK_ROOM, LIVING_ROOM, OFFICE, OUTDOOR_SHADE, DIRECT_SUN)

#: Preset lookup by name (``parse_ambient`` accepts these or a number).
AMBIENT_BY_NAME = {preset.name: preset for preset in AMBIENT_PRESETS}


def parse_ambient(spec: Union[str, float, "AmbientCondition"]) -> AmbientCondition:
    """Resolve an ambient spec to an :class:`AmbientCondition`.

    Accepts a preset name (``"office"``), a numeric illuminance (string
    or float, in normalized units), or an existing condition (returned
    as-is).  This is the parse behind every CLI/config ambient knob.
    """
    if isinstance(spec, AmbientCondition):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return AmbientCondition(f"ambient-{float(spec):g}", float(spec))
    name = str(spec).strip().lower()
    if name in AMBIENT_BY_NAME:
        return AMBIENT_BY_NAME[name]
    try:
        value = float(name)
    except ValueError:
        known = ", ".join(sorted(AMBIENT_BY_NAME))
        raise ValueError(
            f"unknown ambient {spec!r}: expected one of [{known}] "
            f"or a numeric illuminance"
        ) from None
    return AmbientCondition(f"ambient-{value:g}", value)


@dataclass(frozen=True)
class AmbientTrace:
    """A simulated light-sensor trace: ambient conditions over time.

    ``steps`` is a sorted tuple of ``(time_s, condition)`` pairs; the
    condition at time ``t`` is the last step at or before ``t`` (step
    function, held forever after the final step).  Serve-time per-scene
    ambient binding looks the trace up at each scene's start time.
    """

    steps: Tuple[Tuple[float, AmbientCondition], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("an ambient trace needs at least one step")
        times = [t for t, _ in self.steps]
        if times[0] < 0:
            raise ValueError("trace times must be non-negative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be strictly increasing")

    @classmethod
    def constant(cls, ambient: Union[str, float, AmbientCondition]) -> "AmbientTrace":
        """A trace that holds one condition for the whole session."""
        return cls(steps=((0.0, parse_ambient(ambient)),))

    @classmethod
    def parse(cls, spec: str) -> "AmbientTrace":
        """Parse ``"t:ambient,t:ambient,..."`` (or a bare ambient spec).

        Each ``ambient`` is a preset name or numeric illuminance; times
        are seconds.  ``"office"`` alone means a constant trace.
        """
        text = str(spec).strip()
        if not text:
            raise ValueError("empty ambient trace spec")
        if ":" not in text:
            return cls.constant(text)
        steps = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            time_text, _, ambient_text = part.partition(":")
            try:
                t = float(time_text)
            except ValueError:
                raise ValueError(
                    f"bad trace step {part!r}: time must be numeric"
                ) from None
            steps.append((t, parse_ambient(ambient_text)))
        if not steps:
            raise ValueError(f"no steps in ambient trace spec {spec!r}")
        steps.sort(key=lambda step: step[0])
        if steps[0][0] > 0:
            # Hold the first condition from t=0 so every lookup resolves.
            steps.insert(0, (0.0, steps[0][1]))
            if steps[1][0] == 0.0:
                steps.pop(0)
        return cls(steps=tuple(steps))

    def condition_at(self, time_s: float) -> AmbientCondition:
        """The ambient condition in effect at ``time_s``."""
        if time_s < 0:
            raise ValueError(f"time must be non-negative, got {time_s}")
        current = self.steps[0][1]
        for t, condition in self.steps:
            if t > time_s:
                break
            current = condition
        return current

    def conditions(self) -> Sequence[AmbientCondition]:
        """Every condition in step order (for display/debug)."""
        return tuple(condition for _, condition in self.steps)


def as_ambient_trace(spec) -> "AmbientTrace":
    """Normalize any ambient spec to an :class:`AmbientTrace`.

    Accepts an existing trace (returned as-is), an
    :class:`AmbientCondition` or numeric illuminance (constant trace),
    or a string — either a bare ambient spec or a full
    ``"t:ambient,..."`` trace spec.
    """
    if isinstance(spec, AmbientTrace):
        return spec
    if isinstance(spec, AmbientCondition):
        return AmbientTrace.constant(spec)
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return AmbientTrace.constant(float(spec))
    return AmbientTrace.parse(str(spec))


def ambient_level_for_scene(
    device: DeviceProfile, effective_max: float, ambient: AmbientCondition
) -> int:
    """Smallest backlight level preserving perceived intensity in ambient.

    Reduces exactly to ``DisplayTransfer.level_for_scene`` in a dark room.
    """
    if not 0.0 <= effective_max <= 1.0 + 1e-9:
        raise ValueError(f"effective max must be in [0, 1], got {effective_max}")
    panel = device.panel
    transfer = device.transfer
    w = float(transfer.white.luminance(min(effective_max, 1.0)))
    reflected = panel.reflectance * ambient.illuminance / panel.transmittance
    # rho*B + r*E >= (rho + r*E) * W  =>  B >= W + (r*E/rho)*(W - 1)
    required = w + reflected * (w - 1.0)
    return transfer.backlight.level_for_luminance(max(required, 0.0))


def ambient_compensation_gain(
    device: DeviceProfile, level: int, ambient: AmbientCondition
) -> float:
    """Pixel gain restoring perceived intensity at ``level`` in ambient.

    Solves ``(rho*B(l) + r*E) * W(kY) = (rho + r*E) * W(Y)`` for the
    power-law white transfer.
    """
    if not 0 <= level <= MAX_BACKLIGHT_LEVEL:
        raise ValueError(f"backlight level out of range: {level}")
    panel = device.panel
    transfer = device.transfer
    bl = float(np.asarray(transfer.backlight.luminance(level)))
    reflected = panel.reflectance * ambient.illuminance / panel.transmittance
    available = bl + reflected
    target = 1.0 + reflected
    if available <= 0:
        raise ValueError("no light available at this level and ambient")
    ratio = target / available
    return max(ratio ** (1.0 / transfer.white.gamma), 1.0)


def bind_with_ambient(
    track: "AnnotationTrack", device: DeviceProfile, ambient: AmbientCondition
) -> "DeviceAnnotationTrack":
    """Ambient-aware version of :meth:`AnnotationTrack.bind`.

    With ``DARK_ROOM`` the result equals the standard binding.  Brighter
    environments yield lower levels for the same scenes.
    """
    # Imported here: the core package imports display, so the dependency
    # must stay one-way at import time.
    from ..core.annotation import DeviceAnnotationTrack, DeviceSceneAnnotation

    scenes: List[DeviceSceneAnnotation] = []
    for scene in track.scenes:
        level = ambient_level_for_scene(device, scene.effective_max_luminance, ambient)
        gain = ambient_compensation_gain(device, level, ambient) if (
            level > 0 or ambient.illuminance > 0
        ) else 1.0
        scenes.append(
            DeviceSceneAnnotation(
                start=scene.start,
                end=scene.end,
                backlight_level=level,
                compensation_gain=gain,
            )
        )
    return DeviceAnnotationTrack(
        clip_name=track.clip_name,
        device_name=device.name,
        frame_count=track.frame_count,
        fps=track.fps,
        quality=track.quality,
        scenes=scenes,
    )


def bind_with_ambient_trace(
    track: "AnnotationTrack",
    device: DeviceProfile,
    trace: AmbientTrace,
    fps: float = 0.0,
) -> "DeviceAnnotationTrack":
    """Bind a track with a *per-scene* ambient lookup from a sensor trace.

    This is the serve-time form of :func:`bind_with_ambient`: instead of
    one ambient for the whole clip, each scene is bound under the trace's
    condition at the scene's start time (``scene.start / fps`` seconds).
    A constant trace is bit-identical to :func:`bind_with_ambient` with
    that condition — the per-scene loop runs the exact same level/gain
    computations in the same order (pinned by hypothesis tests).
    """
    from ..core.annotation import DeviceAnnotationTrack, DeviceSceneAnnotation

    rate = float(fps) if fps else float(track.fps)
    if rate <= 0:
        raise ValueError(f"fps must be positive to time the trace, got {rate}")
    scenes: List[DeviceSceneAnnotation] = []
    for scene in track.scenes:
        ambient = trace.condition_at(scene.start / rate)
        level = ambient_level_for_scene(device, scene.effective_max_luminance, ambient)
        gain = ambient_compensation_gain(device, level, ambient) if (
            level > 0 or ambient.illuminance > 0
        ) else 1.0
        scenes.append(
            DeviceSceneAnnotation(
                start=scene.start,
                end=scene.end,
                backlight_level=level,
                compensation_gain=gain,
            )
        )
    return DeviceAnnotationTrack(
        clip_name=track.clip_name,
        device_name=device.name,
        frame_count=track.frame_count,
        fps=track.fps,
        quality=track.quality,
        scenes=scenes,
    )
