"""Figure 8: measured brightness vs white level at backlight 255 and 128.

The white-level sweep of :func:`repro.experiments.figure8`.  The paper's
observation for the iPAQ 5555: screen brightness is almost linear in the
displayed white level, and halving the backlight scales the whole curve
down.  Benchmarks the white-level sweep.
"""

import numpy as np

from repro import experiments
from repro.camera import DigitalCamera, SRGBLikeResponse
from repro.display import ipaq_5555, measure_white_transfer


def test_fig8_white_transfer(benchmark, report):
    device = ipaq_5555()
    sweep = experiments.figure8(device, gray_levels=range(0, 256, 32))
    report("fig8_white_transfer", [sweep.format()])

    # Almost linear in white level on this panel.
    assert abs(sweep.fitted_gamma - 1.0) < 0.1

    # Lower backlight scales the curve down by the transfer ratio.
    ratio = sweep.brightness_at_half[-1] / sweep.brightness_at_full[-1]
    expected = float(device.transfer.backlight.luminance(128))
    assert np.isfinite(ratio)
    assert abs(ratio - expected) < 0.05

    camera = DigitalCamera(response=SRGBLikeResponse(), noise_sigma=0.002, seed=8)
    benchmark.pedantic(
        measure_white_transfer, args=(device, camera), rounds=3, iterations=1
    )
