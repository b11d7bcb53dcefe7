"""Playback engine: the client-side loop of the system.

Plays an :class:`~repro.core.pipeline.AnnotatedStream` on a device: each
frame period the engine asks the backlight controller for the annotated
level ("the only extra operation that the device has to perform during
playback is to adjust the backlight level periodically, according to the
annotations in the video stream"), charges the decoder's CPU time, and
accumulates the ground-truth power waveform that the DAQ simulator samples
for the Figure 10 measurements.  That loop, :func:`_play_frames`, is the
one every player runs: this engine, the DVFS engine and the packet client
differ only in where the levels, frames and operating points come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import AnnotatedStream
from ..display.devices import DeviceProfile
from ..display.transfer import MAX_BACKLIGHT_LEVEL
from ..power.daq import DAQSimulator, PowerTrace
from ..power.measurement import simulated_backlight_savings
from ..power.dvfs import DvfsCpuModel, FrequencyLevel
from ..power.model import ActivityState, DevicePowerModel
from .backlight_control import BacklightController
from .decoder import DecoderModel


@dataclass(frozen=True)
class PlaybackResult:
    """Everything observed during one playback run."""

    device_name: str
    clip_name: str
    fps: float
    applied_levels: np.ndarray
    cpu_loads: np.ndarray
    per_frame_power_w: np.ndarray
    baseline_power_w: np.ndarray
    switch_count: int
    dropped_deadline_count: int

    def __post_init__(self):
        n = self.applied_levels.size
        for name in ("cpu_loads", "per_frame_power_w", "baseline_power_w"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} length mismatch")

    @property
    def duration_s(self) -> float:
        return self.applied_levels.size / self.fps

    @property
    def mean_power_w(self) -> float:
        return float(self.per_frame_power_w.mean())

    @property
    def baseline_mean_power_w(self) -> float:
        return float(self.baseline_power_w.mean())

    @property
    def total_savings(self) -> float:
        """Whole-device power savings vs full backlight (ground truth)."""
        return 1.0 - self.mean_power_w / self.baseline_mean_power_w

    def measure(self, daq: Optional[DAQSimulator] = None, run_id: int = 0) -> PowerTrace:
        """Sample this run's power waveform through a DAQ."""
        return self._sample(self.per_frame_power_w, daq, run_id)

    def measure_baseline(self, daq: Optional[DAQSimulator] = None, run_id: int = 1) -> PowerTrace:
        """Sample the full-backlight reference run's waveform."""
        return self._sample(self.baseline_power_w, daq, run_id)

    def _sample(self, power: np.ndarray, daq: Optional[DAQSimulator], run_id: int) -> PowerTrace:
        """Sample a per-frame waveform, held for each frame period, through a DAQ."""
        daq = daq if daq is not None else DAQSimulator(seed=run_id)

        def power_at(t: np.ndarray) -> np.ndarray:
            idx = np.clip((np.asarray(t) * self.fps).astype(np.int64), 0, power.size - 1)
            return power[idx]

        return daq.measure(power_at, self.duration_s)


def _read_stream(stream: AnnotatedStream, decoder: DecoderModel) -> Tuple[np.ndarray, np.ndarray]:
    """Requested levels and per-frame decode times of one compensated pass.

    Reads ``for frame, level in stream`` — the :meth:`AnnotatedStream.iter_chunks`
    path, bit-identical to compensating each frame on its own.
    """
    levels = []
    decode_s = []
    for frame, level in stream:
        levels.append(level)
        decode_s.append(decoder.decode_time_s(frame))
    return np.array(levels, dtype=np.int64), np.array(decode_s)


def _play_frames(
    device: DeviceProfile,
    decoder: DecoderModel,
    clip_name: str,
    fps: float,
    requested: np.ndarray,
    decode_s: np.ndarray,
    network_duty: float,
    min_switch_interval_s: float = 0.0,
    dvfs: Optional[Tuple[DvfsCpuModel, Sequence[FrequencyLevel]]] = None,
) -> PlaybackResult:
    """The per-frame power loop behind every player.

    Each frame period the backlight controller applies the requested
    level (subject to its response-time floor and guard interval), the
    frame's decode time sets the CPU's work, and the device power model
    prices the frame at the applied level and at full backlight.

    Without ``dvfs`` the CPU runs at the decoder's clock and its load is
    ``decode_s / period``.  With ``dvfs = (cpu, points)`` frame ``i``
    retires ``decode_s[i] * decoder.cpu_hz`` cycles at operating point
    ``points[i]``: the CPU draws that point's active-burst + idle energy
    over the period in place of the linear load model, and the
    full-backlight baseline keeps the same CPU power.  A frame whose
    decode overruns its period counts as a deadline miss.
    """
    model = DevicePowerModel(device)
    controller = BacklightController(device.backlight, min_switch_interval_s=min_switch_interval_s)
    period = 1.0 / fps
    n = decode_s.size
    applied = np.empty(n, dtype=np.int64)
    cpu_loads = np.empty(n)
    power = np.empty(n)
    baseline_power = np.empty(n)
    dropped = 0
    # With DVFS the activity runs the CPU at zero load, and its idle draw
    # is swapped for the operating point's energy over the period.
    cpu_idle_w = cpu_w = 0.0
    if dvfs is not None:
        cpu, points = dvfs
        cpu_idle_w = device.power.cpu_idle_w
        activity = ActivityState(cpu_load=0.0, network_duty=network_duty)
    for i in range(n):
        applied[i] = controller.request(i * period, int(requested[i]))
        if dvfs is None:
            cpu_loads[i] = min(decode_s[i] / period, 1.0)
            late = decode_s[i] > period
            activity = ActivityState(cpu_load=float(cpu_loads[i]), network_duty=network_duty)
        else:
            cycles = decode_s[i] * decoder.cpu_hz
            budget = points[i].hz * period
            cpu_loads[i] = min(cycles / budget, 1.0)
            late = cycles > budget + 1e-9
            cpu_w = cpu.energy_per_frame_j(points[i], cycles, period) / period
        if late:
            dropped += 1
        power[i] = float(model.total_power(activity, int(applied[i]))) - cpu_idle_w + cpu_w
        baseline_power[i] = (
            float(model.total_power(activity, MAX_BACKLIGHT_LEVEL)) - cpu_idle_w + cpu_w
        )
    return PlaybackResult(
        device_name=device.name,
        clip_name=clip_name,
        fps=fps,
        applied_levels=applied,
        cpu_loads=cpu_loads,
        per_frame_power_w=power,
        baseline_power_w=baseline_power,
        switch_count=controller.switch_count,
        dropped_deadline_count=dropped,
    )


class PlaybackEngine:
    """Drives annotated playback on one device.

    Parameters
    ----------
    device:
        The client device.
    decoder:
        Decoder timing model (defaults to the XScale MPEG profile).
    network_duty:
        WLAN receive duty cycle while streaming.
    min_switch_interval_s:
        Extra policy floor handed to the backlight controller.
    """

    def __init__(
        self,
        device: DeviceProfile,
        decoder: Optional[DecoderModel] = None,
        network_duty: float = 0.8,
        min_switch_interval_s: float = 0.0,
    ):
        if not 0.0 <= network_duty <= 1.0:
            raise ValueError("network_duty must be in [0, 1]")
        self.device = device
        self.decoder = decoder if decoder is not None else DecoderModel()
        self.network_duty = network_duty
        self.min_switch_interval_s = min_switch_interval_s

    # ------------------------------------------------------------------
    def play(self, stream: AnnotatedStream) -> PlaybackResult:
        """Play an annotated stream to completion."""
        if stream.device.name != self.device.name:
            raise ValueError(
                f"stream was annotated for {stream.device.name!r}, "
                f"engine device is {self.device.name!r}"
            )
        requested, decode_s = _read_stream(stream, self.decoder)
        return _play_frames(
            self.device, self.decoder, stream.clip.name, stream.fps, requested, decode_s,
            self.network_duty, self.min_switch_interval_s,
        )

    def backlight_savings(self, result: PlaybackResult) -> float:
        """Backlight-only savings for a playback run (Figure 9 metric)."""
        return simulated_backlight_savings(result.applied_levels, self.device)
