"""Unit tests for repro.player.decoder."""

import pytest

from repro.player import DecoderModel
from repro.video import Frame


class TestSpatialComplexity:
    def test_flat_frame_zero(self):
        assert DecoderModel.spatial_complexity(Frame.solid_gray(8, 8, 128)) == 0.0

    def test_busy_frame_higher(self, dark_frame):
        flat = DecoderModel.spatial_complexity(Frame.solid_gray(36, 48, 100))
        busy = DecoderModel.spatial_complexity(dark_frame)
        assert busy > flat

    def test_capped_at_one(self):
        import numpy as np
        rng = np.random.default_rng(0)
        noise = Frame.from_luminance(rng.random((32, 32)))
        assert DecoderModel.spatial_complexity(noise) <= 1.0

    def test_single_pixel_frame(self):
        assert DecoderModel.spatial_complexity(Frame.solid_gray(1, 1, 0)) == 0.0


class TestTiming:
    def test_decode_time_scales_with_pixels(self):
        decoder = DecoderModel()
        small = decoder.decode_time_s(Frame.solid_gray(10, 10, 0))
        large = decoder.decode_time_s(Frame.solid_gray(20, 20, 0))
        assert large == pytest.approx(4 * small)

    def test_complexity_increases_time(self, dark_frame):
        decoder = DecoderModel()
        flat = decoder.decode_time_s(Frame.solid_gray(36, 48, 100))
        busy = decoder.decode_time_s(dark_frame)
        assert busy > flat

    def test_xscale_sustains_qvga(self):
        """The paper's 400 MHz XScale plays QVGA MPEG in real time."""
        decoder = DecoderModel()
        frame = Frame.solid_gray(320, 240, 128)
        assert decoder.decode_time_s(frame) <= 1 / 30

    def test_weak_cpu_cannot_sustain(self):
        decoder = DecoderModel(cpu_hz=50e6)
        frame = Frame.solid_gray(320, 240, 128)
        assert decoder.decode_time_s(frame) > 1 / 30

    @pytest.mark.parametrize("kwargs", [
        {"cycles_per_pixel": 0}, {"complexity_cycles_per_pixel": -1}, {"cpu_hz": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecoderModel(**kwargs)
