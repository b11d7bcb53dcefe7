"""Unit tests for repro.display.calibration (Figures 7-8 sweeps)."""

import numpy as np
import pytest

from repro.camera import DigitalCamera, LinearResponse, SRGBLikeResponse
from repro.display import (
    MAX_BACKLIGHT_LEVEL,
    fit_white_gamma,
    ipaq_3650,
    ipaq_5555,
    measure_backlight_transfer,
    measure_white_transfer,
)


@pytest.fixture
def device():
    return ipaq_5555()


@pytest.fixture
def camera():
    return DigitalCamera(response=SRGBLikeResponse(), noise_sigma=0.0)


class TestBacklightSweep:
    def test_recovers_true_transfer(self, device, camera):
        measured = measure_backlight_transfer(device, camera)
        true = device.transfer.backlight
        levels = np.arange(0, 256, 5)
        assert np.asarray(measured.luminance(levels)) == pytest.approx(
            np.asarray(true.luminance(levels)), abs=0.03
        )

    def test_recovery_with_noise(self, device):
        noisy = DigitalCamera(response=SRGBLikeResponse(), noise_sigma=0.005, seed=1)
        measured = measure_backlight_transfer(device, noisy)
        true = device.transfer.backlight
        levels = np.arange(0, 256, 17)
        assert np.asarray(measured.luminance(levels)) == pytest.approx(
            np.asarray(true.luminance(levels)), abs=0.08
        )

    def test_table_monotone(self, device, camera):
        measured = measure_backlight_transfer(device, camera)
        assert np.all(np.diff(measured.table()) >= -1e-12)

    def test_endpoint_always_included(self, device, camera):
        measured = measure_backlight_transfer(device, camera, levels=[0, 100])
        assert float(measured.luminance(MAX_BACKLIGHT_LEVEL)) == pytest.approx(1.0)

    def test_too_few_levels(self, device, camera):
        with pytest.raises(ValueError):
            measure_backlight_transfer(device, camera, levels=[255])

    def test_different_device_different_curve(self, camera):
        a = measure_backlight_transfer(ipaq_5555(), camera)
        b = measure_backlight_transfer(ipaq_3650(), camera)
        assert abs(float(a.luminance(96)) - float(b.luminance(96))) > 0.05


class TestWhiteSweep:
    def test_sample_count(self, device, camera):
        samples = measure_white_transfer(device, camera, gray_levels=range(0, 256, 51))
        assert len(samples) == len(range(0, 256, 51))

    def test_monotone_in_gray_level(self, device, camera):
        samples = measure_white_transfer(device, camera)
        values = [s.measured_brightness for s in samples]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_lower_backlight_darker(self, device, camera):
        full = measure_white_transfer(device, camera, backlight_level=255)
        half = measure_white_transfer(device, camera, backlight_level=128)
        assert half[-1].measured_brightness < full[-1].measured_brightness


class TestFitWhiteGamma:
    def test_ipaq5555_near_linear(self, device, camera):
        """'the measured luminance was almost linear with the luminance of
        the image' — the fitted gamma must come out near 1."""
        samples = measure_white_transfer(device, camera)
        assert fit_white_gamma(samples) == pytest.approx(1.0, abs=0.1)

    def test_recovers_nonunit_gamma(self, camera):
        device = ipaq_3650()  # white gamma 1.1
        samples = measure_white_transfer(device, camera)
        assert fit_white_gamma(samples) == pytest.approx(1.1, abs=0.12)

    @pytest.mark.parametrize("gamma", [0.8, 1.2])
    def test_sweep_short_of_255_fits_exact_power_law(self, gamma):
        """A sweep that stops at 224 is normalized at 224 on both axes,
        so an exact power law fits its own gamma."""
        from repro.display.calibration import SweepSample
        samples = [SweepSample(level, 0.9 * (level / 255) ** gamma)
                   for level in range(0, 256, 32)]
        assert samples[-1].level == 224
        assert fit_white_gamma(samples) == pytest.approx(gamma, abs=1e-9)

    def test_too_few_samples(self):
        from repro.display.calibration import SweepSample
        with pytest.raises(ValueError):
            fit_white_gamma([SweepSample(0, 0.0), SweepSample(255, 1.0)])


class TestClosingTheLoop:
    def test_calibrated_transfer_usable_by_pipeline(self, device, camera):
        """The measured curve can replace the factory curve — 'including
        the display properties in the loop'."""
        from repro.display import DisplayTransfer, WhiteTransfer

        measured = measure_backlight_transfer(device, camera)
        transfer = DisplayTransfer(measured, WhiteTransfer(1.0))
        level = transfer.level_for_scene(0.5)
        factory_level = device.transfer.level_for_scene(0.5)
        assert abs(level - factory_level) <= 12  # within interpolation error
