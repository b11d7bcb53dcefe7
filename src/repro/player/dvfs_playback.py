"""Playback with annotation-driven CPU frequency scaling.

Combines both annotation consumers of Section 3: the backlight track dims
the display per scene, and the DVFS track slows the CPU to the lowest
operating point that still decodes every frame of the scene on time.  The
result quantifies how much the *same* annotation infrastructure saves
beyond the backlight alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.dvfs_annotation import DvfsTrack
from ..core.pipeline import AnnotatedStream
from ..power.dvfs import DvfsCpuModel
from .decoder import DecoderModel
from .playback import PlaybackResult, _play_frames, _read_stream


@dataclass(frozen=True)
class DvfsPlaybackResult:
    """Power traces of one combined backlight + DVFS playback run.

    Three waveforms are kept so each optimization's contribution can be
    separated:

    * ``power_combined_w`` — annotated backlight + annotated DVFS;
    * ``power_backlight_only_w`` — annotated backlight, CPU pinned at the
      fastest operating point;
    * ``power_reference_w`` — full backlight, fastest operating point (the
      unoptimized player).
    """

    clip_name: str
    fps: float
    applied_levels: np.ndarray
    frequencies_hz: np.ndarray
    power_combined_w: np.ndarray
    power_backlight_only_w: np.ndarray
    power_reference_w: np.ndarray
    late_frames: int

    @property
    def combined_savings(self) -> float:
        """Total savings of backlight + DVFS vs the unoptimized player."""
        return 1.0 - self.power_combined_w.mean() / self.power_reference_w.mean()

    @property
    def backlight_only_savings(self) -> float:
        return 1.0 - self.power_backlight_only_w.mean() / self.power_reference_w.mean()

    @property
    def dvfs_extra_savings(self) -> float:
        """What DVFS adds on top of the backlight optimization."""
        return self.combined_savings - self.backlight_only_savings

    @property
    def mean_frequency_hz(self) -> float:
        return float(self.frequencies_hz.mean())


class DvfsPlaybackEngine:
    """Plays an annotated stream with a DVFS track on a device.

    Parameters
    ----------
    device:
        Client device profile; its power budget calibrates the CPU model
        unless one is supplied.
    cpu:
        DVFS CPU model (operating points + power law).
    decoder:
        Decode-cost model; must match the one the server used to annotate
        (the annotator's headroom absorbs small mismatches).
    network_duty:
        WLAN receive duty cycle while streaming.
    """

    def __init__(
        self,
        device,
        cpu: Optional[DvfsCpuModel] = None,
        decoder: Optional[DecoderModel] = None,
        network_duty: float = 0.8,
    ):
        if not 0.0 <= network_duty <= 1.0:
            raise ValueError("network_duty must be in [0, 1]")
        self.device = device
        self.cpu = cpu if cpu is not None else DvfsCpuModel(
            active_power_at_max_w=device.power.cpu_active_w,
            idle_power_w=device.power.cpu_idle_w,
        )
        self.decoder = decoder if decoder is not None else DecoderModel()
        self.network_duty = network_duty

    # ------------------------------------------------------------------
    def play(self, stream: AnnotatedStream, dvfs_track: DvfsTrack) -> DvfsPlaybackResult:
        """Run the combined playback and account power per frame.

        Two runs of the playback loop over one set of decode times: at
        the annotated operating points (combined, and its full-backlight
        baseline), and pinned at the fastest point (backlight only, and
        the reference).  Both apply the backlight through the controller.
        """
        if dvfs_track.frame_count != stream.frame_count:
            raise ValueError(
                f"DVFS track covers {dvfs_track.frame_count} frames, stream has "
                f"{stream.frame_count}"
            )
        requested, decode_s = _read_stream(stream, self.decoder)
        schedule = dvfs_track.frequency_schedule(self.cpu)

        def run(points) -> PlaybackResult:
            return _play_frames(
                self.device, self.decoder, stream.clip.name, stream.fps, requested,
                decode_s, self.network_duty, dvfs=(self.cpu, points),
            )

        combined = run(schedule)
        pinned = run([self.cpu.max_level] * len(schedule))
        return DvfsPlaybackResult(
            clip_name=stream.clip.name,
            fps=stream.fps,
            applied_levels=combined.applied_levels,
            frequencies_hz=np.array([point.hz for point in schedule]),
            power_combined_w=combined.per_frame_power_w,
            power_backlight_only_w=pinned.per_frame_power_w,
            power_reference_w=pinned.baseline_power_w,
            late_frames=combined.dropped_deadline_count,
        )
