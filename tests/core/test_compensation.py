"""Unit tests for repro.core.compensation."""

import numpy as np
import pytest

from repro.core import (
    brightness_compensation,
    compensate_for_backlight,
    contrast_enhancement,
)
from repro.video import Frame


class TestContrastEnhancement:
    def test_scales_unclipped_pixels(self):
        frame = Frame.from_luminance(np.full((2, 2), 0.25))
        result = contrast_enhancement(frame, 2.0)
        assert result.frame.luminance == pytest.approx(np.full((2, 2), 0.5), abs=1 / 255)
        assert result.clipped_fraction == 0.0

    def test_scales_luminance_by_gain(self, dark_frame):
        """Equal per-channel gains scale the BT.601 luminance exactly."""
        gain = 1.5
        result = contrast_enhancement(dark_frame, gain)
        unclipped = dark_frame.normalized().max(axis=-1) * gain <= 1.0
        expected = dark_frame.luminance[unclipped] * gain
        actual = result.frame.luminance[unclipped]
        assert actual == pytest.approx(expected, abs=2 / 255)

    def test_clipping_counted(self):
        frame = Frame.from_luminance(np.array([[0.4, 0.6]]))
        result = contrast_enhancement(frame, 2.0)
        assert result.clipped_fraction == pytest.approx(0.5)

    def test_clipped_pixels_saturate(self):
        frame = Frame.from_luminance(np.array([[0.9]]))
        result = contrast_enhancement(frame, 2.0)
        assert result.frame.pixels[0, 0, 0] == 255

    def test_unit_gain_identity(self, dark_frame):
        result = contrast_enhancement(dark_frame, 1.0)
        assert result.frame == dark_frame
        assert result.clipped_fraction == 0.0

    def test_gain_below_one_rejected(self, dark_frame):
        with pytest.raises(ValueError, match=">= 1"):
            contrast_enhancement(dark_frame, 0.5)

    def test_preserves_hue_for_unclipped(self):
        """Equal channel gains keep channel ratios (colors maintained)."""
        frame = Frame.solid(2, 2, (40, 80, 120))
        result = contrast_enhancement(frame, 2.0)
        pixel = result.frame.pixels[0, 0].astype(float)
        assert pixel[1] / pixel[0] == pytest.approx(2.0, abs=0.05)
        assert pixel[2] / pixel[0] == pytest.approx(3.0, abs=0.05)

    def test_original_untouched(self, dark_frame):
        before = dark_frame.pixels.copy()
        contrast_enhancement(dark_frame, 3.0)
        assert np.array_equal(dark_frame.pixels, before)

    def test_preserves_index(self):
        frame = Frame.solid_gray(2, 2, 100, index=42)
        assert contrast_enhancement(frame, 1.5).frame.index == 42


class TestBrightnessCompensation:
    def test_adds_constant(self):
        frame = Frame.from_luminance(np.full((2, 2), 0.2))
        result = brightness_compensation(frame, 0.3)
        assert result.frame.luminance == pytest.approx(np.full((2, 2), 0.5), abs=1 / 255)

    def test_clipping_counted(self):
        frame = Frame.from_luminance(np.array([[0.5, 0.9]]))
        result = brightness_compensation(frame, 0.2)
        assert result.clipped_fraction == pytest.approx(0.5)

    def test_zero_delta_identity(self, dark_frame):
        result = brightness_compensation(dark_frame, 0.0)
        assert result.frame == dark_frame

    def test_negative_delta_rejected(self, dark_frame):
        with pytest.raises(ValueError):
            brightness_compensation(dark_frame, -0.1)

    def test_shifts_all_channels_equally(self):
        """'Each RGB value needs to be compensated by same amount to
        maintain original colors.'"""
        frame = Frame.solid(1, 1, (40, 80, 120))
        result = brightness_compensation(frame, 0.2)
        diffs = result.frame.pixels[0, 0].astype(int) - frame.pixels[0, 0].astype(int)
        assert np.all(np.abs(diffs - 51) <= 1)  # 0.2 * 255 = 51


class TestCompensateForBacklight:
    def test_gain_is_inverse_luminance(self):
        frame = Frame.from_luminance(np.full((2, 2), 0.25))
        result = compensate_for_backlight(frame, 0.5)  # k = L/L' = 2
        assert result.frame.luminance == pytest.approx(np.full((2, 2), 0.5), abs=1 / 255)

    def test_full_backlight_identity(self, dark_frame):
        result = compensate_for_backlight(dark_frame, 1.0)
        assert result.frame == dark_frame

    def test_invalid_luminance(self, dark_frame):
        with pytest.raises(ValueError):
            compensate_for_backlight(dark_frame, 0.0)
        with pytest.raises(ValueError):
            compensate_for_backlight(dark_frame, 1.2)


class TestCompensationResult:
    def test_fraction_bounds_checked(self):
        from repro.core import CompensationResult
        with pytest.raises(ValueError):
            CompensationResult(frame=Frame.solid_gray(1, 1, 0), clipped_fraction=1.5)


class TestGainLut:
    """The fused LUT kernel against the float reference, bit for bit."""

    def _batch(self, n=12, h=10, w=8, seed=3):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)

    def test_lut_matches_float_path_for_every_code(self):
        from repro.core import gain_lut
        from repro.video.frame import MAX_CHANNEL

        for gain in (1.0 + 1e-9, 1.1, 1.33333, 2.0, 3.7, 17.0):
            lut, clip_code = gain_lut(gain)
            codes = np.arange(256, dtype=np.float64) / MAX_CHANNEL
            scaled = codes * gain
            expected = np.rint(np.minimum(scaled, 1.0) * MAX_CHANNEL)
            assert np.array_equal(lut, expected.astype(np.uint8)), gain
            clipped = scaled > 1.0 + 1e-12
            expected_code = int(np.argmax(clipped)) if clipped.any() else 256
            assert clip_code == expected_code, gain

    def test_lut_is_cached_and_immutable(self):
        from repro.core import gain_lut

        first, _ = gain_lut(1.44)
        again, _ = gain_lut(1.44)
        assert first is again
        with pytest.raises(ValueError):
            first[0] = 1

    def test_batch_matches_reference_mixed_gains(self):
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
        )

        pixels = self._batch()
        gains = np.array([0.5, 0.5, 1.0, 1.3, 1.3, 1.3, 2.4, 1.3,
                          1.0, 5.0, 5.0, 1.7])
        got_px, got_fr = contrast_enhancement_batch(pixels, gains)
        ref_px, ref_fr = contrast_enhancement_batch_reference(pixels, gains)
        assert np.array_equal(got_px, ref_px)
        assert np.array_equal(got_fr, ref_fr)

    def test_batch_matches_reference_scalar_gain(self):
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
        )

        pixels = self._batch()
        for gain in (0.7, 1.0, 1.9):
            got_px, got_fr = contrast_enhancement_batch(pixels, gain)
            ref_px, ref_fr = contrast_enhancement_batch_reference(pixels, gain)
            assert np.array_equal(got_px, ref_px), gain
            assert np.array_equal(got_fr, ref_fr), gain

    def test_reference_validates_like_the_lut_kernel(self):
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
        )

        pixels = self._batch(n=3)
        for kernel in (contrast_enhancement_batch,
                       contrast_enhancement_batch_reference):
            with pytest.raises(ValueError):
                kernel(pixels, 0.0)
            with pytest.raises(ValueError):
                kernel(pixels, np.ones(2))
            with pytest.raises(ValueError):
                kernel(pixels.astype(np.float64), 1.2)
            with pytest.raises(ValueError):
                kernel(pixels[0], 1.2)

    def test_out_parameter_is_used_and_returned(self):
        from repro.core import contrast_enhancement_batch

        pixels = self._batch(n=4)
        out = np.zeros_like(pixels)
        got, _ = contrast_enhancement_batch(pixels, 1.5, out=out)
        assert got is out

    def test_out_shape_and_dtype_validated(self):
        from repro.core import contrast_enhancement_batch

        pixels = self._batch(n=4)
        with pytest.raises(ValueError):
            contrast_enhancement_batch(pixels, 1.5, out=np.zeros((3, 10, 8, 3),
                                                                 dtype=np.uint8))
        with pytest.raises(ValueError):
            contrast_enhancement_batch(
                pixels, 1.5, out=np.zeros_like(pixels, dtype=np.uint16)
            )

    def test_default_out_is_fresh_memory(self):
        from repro.core import contrast_enhancement_batch

        pixels = self._batch(n=4)
        got, _ = contrast_enhancement_batch(pixels, 1.5)
        before = pixels.copy()
        got[:] = 0
        assert np.array_equal(pixels, before)

    def test_precomputed_fractions_skip_reduction_and_pass_through(self):
        from repro.core import contrast_enhancement_batch

        pixels = self._batch(n=6)
        gains = np.array([1.0, 1.4, 2.0, 1.4, 3.3, 1.0])
        ref_px, ref_fr = contrast_enhancement_batch(pixels, gains)
        got_px, got_fr = contrast_enhancement_batch(
            pixels, gains, fractions=ref_fr
        )
        assert np.array_equal(got_px, ref_px)
        assert got_fr.dtype == np.float64
        assert np.array_equal(got_fr, ref_fr)

    def test_fractions_shape_validated(self):
        from repro.core import contrast_enhancement_batch

        pixels = self._batch(n=4)
        with pytest.raises(ValueError):
            contrast_enhancement_batch(pixels, 1.5, fractions=np.zeros(3))


class TestLutKernelEdgeCases:
    """Layouts and sizes the per-frame LUT lookup must get right."""

    def _batch(self, n=6, h=10, w=8, seed=5):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)

    def _assert_matches_reference(self, pixels, gains, out=None):
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
            contrast_enhancement_frames,
        )

        got_px, got_fr = contrast_enhancement_batch(pixels, gains, out=out)
        ref_px, ref_fr = contrast_enhancement_batch_reference(pixels, gains)
        assert np.array_equal(got_px, ref_px)
        assert np.array_equal(got_fr, ref_fr)
        assert got_px.flags.writeable
        assert not np.shares_memory(got_px, pixels)
        if out is not None:
            assert got_px is out
        # The per-frame form: same bytes, each frame its own buffer.
        frames, frame_fr = contrast_enhancement_frames(pixels, gains)
        assert len(frames) == len(ref_px)
        for frame, ref in zip(frames, ref_px):
            assert np.array_equal(frame, ref)
            assert frame.flags.writeable and frame.flags.c_contiguous
            assert not np.shares_memory(frame, pixels)
        assert np.array_equal(frame_fr, ref_fr)
        return got_px

    def test_non_contiguous_inputs(self):
        pixels = self._batch()
        gains = np.array([1.0, 1.6, 1.6, 0.8, 2.5, 2.5])
        for view in (pixels[:, ::-1], pixels[:, ::2, 1:], pixels[..., ::-1]):
            assert not view.flags.c_contiguous
            self._assert_matches_reference(view, gains)
        # Frame-strided: every frame is contiguous, the batch is not.
        self._assert_matches_reference(pixels[::2], gains[::2])

    def test_out_from_an_arena_larger_than_the_request(self):
        big = np.full((16, 12, 10, 3), 7, dtype=np.uint8)
        pixels = self._batch(n=5)
        gains = np.array([1.3, 1.3, 1.0, 4.0, 0.5])
        out = big.reshape(-1)[:pixels.size].reshape(pixels.shape)
        assert out.base is big and out.size < big.size
        self._assert_matches_reference(pixels, gains, out=out)
        # Bytes past the request are untouched.
        assert np.all(big.reshape(-1)[out.size:] == 7)

    def test_zero_and_one_frame_batches(self):
        pixels = self._batch(n=1)
        for gain in (0.9, 1.0, 2.2):
            self._assert_matches_reference(pixels, gain)
            self._assert_matches_reference(pixels[:0], gain)
        got = self._assert_matches_reference(pixels[:0], np.full(0, 1.5))
        assert got.shape == (0, 10, 8, 3)

    def test_passthrough_runs_between_gained_runs(self):
        pixels = self._batch(n=9)
        gains = np.array([1.0, 0.7, 1.9, 1.9, 1.0, 1.0, 3.1, 0.2, 1.9])
        got = self._assert_matches_reference(pixels, gains)
        for k in np.flatnonzero(gains <= 1.0):
            assert np.array_equal(got[k], pixels[k])
