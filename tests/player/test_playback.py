"""Unit tests for repro.player.playback."""

import numpy as np
import pytest

from repro.core import AnnotationPipeline, SchemeParameters
from repro.display import MAX_BACKLIGHT_LEVEL, ipaq_5555, ipaq_3650
from repro.player import DecoderModel, PlaybackEngine


@pytest.fixture
def device():
    return ipaq_5555()


@pytest.fixture
def stream(device, tiny_clip, fast_params):
    return AnnotationPipeline(fast_params).build_stream(tiny_clip, device)


@pytest.fixture
def engine(device):
    return PlaybackEngine(device)


class TestPlay:
    def test_result_arrays_sized(self, engine, stream, tiny_clip):
        result = engine.play(stream)
        n = tiny_clip.frame_count
        assert result.applied_levels.shape == (n,)
        assert result.cpu_loads.shape == (n,)
        assert result.per_frame_power_w.shape == (n,)
        assert result.duration_s == pytest.approx(n / 30.0)

    def test_cpu_loads_bounded(self, engine, stream):
        loads = engine.play(stream).cpu_loads
        assert np.all((loads > 0.0) & (loads <= 1.0))

    def test_cpu_loads_saturate_on_a_hopeless_cpu(self, device, stream):
        result = PlaybackEngine(device, decoder=DecoderModel(cpu_hz=1e6)).play(stream)
        assert np.all(result.cpu_loads == 1.0)

    def test_levels_follow_annotations(self, engine, stream):
        result = engine.play(stream)
        assert np.array_equal(result.applied_levels, stream.backlight_levels())

    def test_total_savings_positive(self, engine, stream):
        result = engine.play(stream)
        assert 0.0 < result.total_savings < 1.0

    def test_baseline_power_higher(self, engine, stream):
        result = engine.play(stream)
        assert np.all(result.baseline_power_w >= result.per_frame_power_w)

    def test_device_mismatch_rejected(self, stream):
        other = PlaybackEngine(ipaq_3650())
        with pytest.raises(ValueError, match="annotated for"):
            other.play(stream)

    def test_no_dropped_deadlines_on_tiny_frames(self, engine, stream):
        assert engine.play(stream).dropped_deadline_count == 0

    def test_backlight_savings_matches_stream(self, engine, stream):
        result = engine.play(stream)
        assert engine.backlight_savings(result) == pytest.approx(
            stream.predicted_backlight_savings()
        )

    def test_switch_count_matches_track(self, engine, stream):
        result = engine.play(stream)
        assert result.switch_count >= stream.track.switch_count() - 1
        # +1 possible: initial switch away from the power-on level
        assert result.switch_count <= stream.track.switch_count() + 1

    def test_full_backlight_baseline_run(self, device, tiny_clip):
        params = SchemeParameters(quality=0.0, min_scene_interval_frames=5)
        pipeline = AnnotationPipeline(params)
        track = pipeline.annotate(tiny_clip)
        # force full backlight by replacing effective max with 1.0
        from repro.core import SceneAnnotation, AnnotationTrack
        full = AnnotationTrack(
            track.clip_name, track.frame_count, track.fps, 0.0,
            [SceneAnnotation(0, track.frame_count, 1.0)],
        )
        from repro.core.pipeline import AnnotatedStream
        stream = AnnotatedStream(tiny_clip, full.bind(device), device)
        result = PlaybackEngine(device).play(stream)
        assert result.total_savings == pytest.approx(0.0)
        assert np.all(result.applied_levels == MAX_BACKLIGHT_LEVEL)


class TestMeasurement:
    def test_daq_measurement_close_to_truth(self, engine, stream):
        result = engine.play(stream)
        trace = result.measure()
        assert trace.mean_power_w == pytest.approx(result.mean_power_w, rel=0.03)

    def test_measured_savings_close_to_truth(self, engine, stream):
        result = engine.play(stream)
        measured = result.measure().savings_vs(result.measure_baseline())
        assert measured == pytest.approx(result.total_savings, abs=0.02)


class TestEngineConfig:
    def test_invalid_network_duty(self, device):
        with pytest.raises(ValueError):
            PlaybackEngine(device, network_duty=1.5)

    def test_network_duty_affects_power(self, device, stream):
        quiet = PlaybackEngine(device, network_duty=0.0).play(stream)
        busy = PlaybackEngine(device, network_duty=1.0).play(stream)
        assert busy.mean_power_w > quiet.mean_power_w

    def test_controller_interval_limits_switches(self, device, tiny_clip):
        params = SchemeParameters(quality=0.10, per_frame=True)
        stream = AnnotationPipeline(params).build_stream(tiny_clip, device)
        free = PlaybackEngine(device, min_switch_interval_s=0.0).play(stream)
        guarded = PlaybackEngine(device, min_switch_interval_s=0.5).play(stream)
        assert guarded.switch_count < free.switch_count
