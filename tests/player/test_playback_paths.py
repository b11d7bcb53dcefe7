"""The three players share one per-frame power loop.

``PlaybackEngine`` (in-process stream), ``MobileClient.play_stream``
(packet stream) and ``DvfsPlaybackEngine`` (stream + DVFS track) differ
only in where their levels, frames and operating points come from, so
the same session must account the same power on each.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AnnotationPipeline, DvfsAnnotator, SchemeParameters
from repro.display import ipaq_3650, ipaq_5555
from repro.player import DecoderModel, DvfsPlaybackEngine, PlaybackEngine
from repro.power import DvfsCpuModel
from repro.streaming import MediaServer, MobileClient
from repro.video import make_clip

SUBRES = 160 * 120


def _assert_same_result(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


class TestPlayerMatchesPacketClient:
    @pytest.mark.parametrize(
        "server_kwargs",
        [{}, {"policy": "hebs"}, {"engine": "perframe"}],
        ids=["default", "hebs", "perframe"],
    )
    @pytest.mark.parametrize("device", [ipaq_5555(), ipaq_3650()], ids=lambda d: d.name)
    def test_same_session_same_result(self, tiny_clip, fast_params, server_kwargs, device):
        server = MediaServer(params=fast_params, **server_kwargs)
        server.add_clip(tiny_clip)
        client = MobileClient(device)
        session = server.open_session(client.request("tiny", 0.10))
        in_process = PlaybackEngine(device).play(server.build_stream(session))
        over_packets = client.play_stream(session, list(server.stream(session)))
        _assert_same_result(in_process, over_packets)

    def test_dvfs_player_matches_dvfs_client(self, tiny_clip, fast_params):
        device = ipaq_5555()
        decoder = DecoderModel(reference_pixels=SUBRES)
        server = MediaServer(params=fast_params, dvfs_annotator=DvfsAnnotator(decoder=decoder))
        server.add_clip(tiny_clip)
        client = MobileClient(device, decoder=decoder)
        session = server.open_session(client.request("tiny", 0.10))
        cpu = DvfsCpuModel(active_power_at_max_w=device.power.cpu_active_w,
                           idle_power_w=device.power.cpu_idle_w)
        over_packets = client.play_stream(session, list(server.stream(session)), cpu=cpu)
        player = DvfsPlaybackEngine(device, cpu=cpu, decoder=decoder).play(
            server.build_stream(session), server.dvfs_track("tiny")
        )
        assert np.array_equal(player.applied_levels, over_packets.applied_levels)
        np.testing.assert_allclose(
            player.power_combined_w, over_packets.per_frame_power_w, rtol=1e-12, atol=0
        )
        assert player.late_frames == over_packets.dropped_deadline_count


class TestDvfsAppliesBacklightController:
    def test_ccfl_per_frame_track_rate_limited(self):
        """A CCFL backlight (40 ms response) cannot follow a per-frame
        track; DVFS playback applies the levels the controller lets
        through, as plain playback does."""
        device = ipaq_3650()
        decoder = DecoderModel(reference_pixels=SUBRES)
        clip = make_clip("i_robot", resolution=(96, 72), duration_scale=0.25)
        pipeline = AnnotationPipeline(SchemeParameters(quality=0.1, per_frame=True))
        stream = pipeline.build_stream(clip, device)
        track = DvfsAnnotator(decoder=decoder).annotate_with_profile(
            clip, pipeline.profile(clip)
        )
        dvfs = DvfsPlaybackEngine(device, decoder=decoder).play(stream, track)
        plain = PlaybackEngine(device, decoder=decoder).play(stream)
        assert not np.array_equal(plain.applied_levels, stream.backlight_levels())
        assert np.array_equal(dvfs.applied_levels, plain.applied_levels)
