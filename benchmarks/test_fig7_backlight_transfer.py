"""Figure 7: measured brightness vs backlight level (white pattern).

The camera calibration sweep for the three PDAs, from
:func:`repro.experiments.figure7`.  The paper's observations to
reproduce: the response is NOT linear in the backlight register, and each
display technology has its own curve.  Benchmarks one full camera sweep.
"""

from repro import experiments
from repro.camera import DigitalCamera, SRGBLikeResponse
from repro.display import all_devices, measure_backlight_transfer


def test_fig7_backlight_transfer(benchmark, report):
    fig7 = experiments.figure7()
    report("fig7_backlight_transfer", [fig7.format()])

    # Nonlinearity: mid-level luminance is far from level/255 on every
    # device (the paper: "not linear with the backlight level").
    mid = fig7.levels.index(128)
    for name, curve in fig7.curves.items():
        assert abs(curve[mid] - 128 / 255) > 0.05, name

    # Device diversity: the three curves differ pairwise.
    low = fig7.levels.index(96)
    assert len({round(curve[low], 2) for curve in fig7.curves.values()}) == 3

    camera = DigitalCamera(response=SRGBLikeResponse(), noise_sigma=0.002, seed=7)
    benchmark.pedantic(
        measure_backlight_transfer, args=(all_devices()[0], camera), rounds=3, iterations=1
    )
