"""The mobile client.

The paper's point is how little the client does: "The only extra operation
that the device has to perform during playback is to adjust the backlight
level periodically, according to the annotations in the video stream."
The client here does exactly that — it parses annotation packets into a
per-frame backlight schedule, displays the (already compensated) frames,
and lets the backlight controller apply the levels.  Power is accounted
by the player's per-frame loop, the same one in-process playback runs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..core.annotation import DeviceAnnotationTrack
from ..core.dvfs_annotation import DvfsTrack
from ..display.devices import DeviceProfile
from ..player.decoder import DecoderModel
from ..player.playback import PlaybackResult, _play_frames
from ..power.dvfs import DvfsCpuModel
from ..telemetry import registry as telemetry_registry
from .network import DeliverySchedule
from .packets import MediaPacket, PacketType
from .session import ClientCapabilities, SessionDescription, SessionRequest


class StreamProtocolError(ValueError):
    """The packet stream violated the expected layout."""


class MobileClient:
    """A PDA receiving and playing an annotated stream.

    Parameters
    ----------
    device:
        The handheld's profile; advertised during negotiation.
    decoder:
        Decoder timing model.
    min_switch_interval_s:
        Backlight controller guard interval.
    """

    def __init__(
        self,
        device: DeviceProfile,
        decoder: Optional[DecoderModel] = None,
        min_switch_interval_s: float = 0.0,
    ):
        self.device = device
        self.decoder = decoder if decoder is not None else DecoderModel()
        self.min_switch_interval_s = min_switch_interval_s
        reg = telemetry_registry()
        self._packets_counter = reg.counter(
            "repro_client_packets_total", help="Stream packets consumed by clients.",
        )
        self._frames_played_counter = reg.counter(
            "repro_client_frames_played_total",
            help="Frames played back by clients.",
        )

    # ------------------------------------------------------------------
    def capabilities(self) -> ClientCapabilities:
        """What this client advertises during negotiation."""
        return ClientCapabilities(device_name=self.device.name)

    def request(self, clip_name: str, quality: float) -> SessionRequest:
        """Build the session request for a clip at a user-chosen quality."""
        return SessionRequest(
            clip_name=clip_name, quality=quality, capabilities=self.capabilities()
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _stitch(per_frame: List[np.ndarray], frame_count: int, what: str) -> np.ndarray:
        """Concatenate chunk tracks' per-frame arrays into one schedule."""
        values = np.concatenate(per_frame)
        if values.size != frame_count:
            raise StreamProtocolError(
                f"{what} cover {values.size} frames but {frame_count} arrived"
            )
        return values

    def play_stream(
        self,
        session: SessionDescription,
        packets: Iterable[MediaPacket],
        delivery: Optional[DeliverySchedule] = None,
        network_duty: float = 0.8,
        cpu: Optional[DvfsCpuModel] = None,
    ) -> PlaybackResult:
        """Consume a packet stream and play it back.

        Parameters
        ----------
        session:
            The negotiated session (fps, expected frame count).
        packets:
            Annotation packet(s) and frame packets.  Annotation packets
            must precede the frames they cover; frame packets must arrive
            in presentation order.  A backlight annotation arriving
            *after* frames is a mid-stream re-bind (``requality``): a
            full replacement track whose levels apply from the next
            frame onward.  Annotation payloads are dispatched on
            their magic: backlight tracks (``AND1``/``AND2``) are mandatory;
            decode-complexity tracks (``ANC1``) are honored when a DVFS
            CPU model is supplied and ignored otherwise.
        delivery:
            Optional network delivery schedule; when given, the client
            radio duty is derived from actual wireless busy time instead
            of ``network_duty``.
        network_duty:
            Fallback radio duty cycle while streaming.
        cpu:
            Optional DVFS CPU model; with DVFS annotations present, the
            CPU runs at the annotated operating point per scene.
        """
        if session.device_name != self.device.name:
            raise StreamProtocolError(
                f"session bound to {session.device_name!r}, this client is "
                f"{self.device.name!r}"
            )
        tracks: List[DeviceAnnotationTrack] = []
        rebinds: List = []  # (effective_frame, replacement_track)
        dvfs_tracks: List[DvfsTrack] = []
        frames = []
        packet_count = 0
        expected_index = 0
        covered = 0  # frames covered by the stitched tracks so far
        for packet in packets:
            packet_count += 1
            if packet.ptype is PacketType.ANNOTATION:
                magic = packet.payload[:4]
                if magic in (b"AND1", b"AND2"):
                    track = DeviceAnnotationTrack.from_bytes(
                        packet.payload,
                        clip_name=session.clip_name,
                        device_name=session.device_name,
                    )
                    if expected_index and covered > expected_index:
                        # Coverage already runs past the delivered frames,
                        # so this is not the next stitching chunk: it is a
                        # mid-stream re-bind (requality) — a full
                        # replacement track applying from the next frame.
                        rebinds.append((expected_index, track))
                    else:
                        tracks.append(track)
                        covered += track.per_frame_levels().size
                elif magic == b"ANC1":
                    dvfs_tracks.append(
                        DvfsTrack.from_bytes(packet.payload, clip_name=session.clip_name)
                    )
                else:
                    raise StreamProtocolError(
                        f"unknown annotation payload magic {magic!r}"
                    )
            elif packet.ptype is PacketType.FRAME:
                if packet.frame_index != expected_index:
                    raise StreamProtocolError(
                        f"frame {packet.frame_index} arrived, expected {expected_index}"
                    )
                frames.append(packet.frame)
                expected_index += 1
            # CONTROL packets are negotiation traffic; nothing to do here.
        if not tracks:
            raise StreamProtocolError("no annotation packet arrived before playback")
        if not frames:
            raise StreamProtocolError("stream carried no frames")
        # One batched bump per stream, not one per packet — the playback
        # loop stays free of per-frame telemetry calls.
        self._packets_counter.inc(packet_count)
        self._frames_played_counter.inc(len(frames))
        levels = self._stitch(
            [t.per_frame_levels() for t in tracks], len(frames), "annotations"
        )
        for start, track in rebinds:
            replacement = track.per_frame_levels()
            if replacement.size != len(frames):
                raise StreamProtocolError(
                    f"re-bound annotation covers {replacement.size} frames "
                    f"but {len(frames)} arrived"
                )
            levels[start:] = replacement[start:]

        dvfs = None
        if cpu is not None and dvfs_tracks:
            annotated_cycles = self._stitch(
                [t.per_frame_cycles() for t in dvfs_tracks], len(frames), "DVFS annotations"
            )
            period = 1.0 / session.fps
            dvfs = (cpu, [cpu.slowest_level_for(float(c), period) for c in annotated_cycles])

        duty = network_duty
        if delivery is not None:
            duty = delivery.radio_duty(len(frames) / session.fps)
        return _play_frames(
            self.device, self.decoder, session.clip_name, session.fps, levels,
            np.array([self.decoder.decode_time_s(frame) for frame in frames]),
            duty, self.min_switch_interval_s, dvfs=dvfs,
        )
