"""Figure 10: measured total-device power savings.

Ten clips x five quality levels, played back on the simulated iPAQ 5555
with the DAQ measurement chain, against a full-backlight reference run,
from :func:`repro.experiments.figure10` — "The measured results are in
line with the simulation, showing up to 15-20 % power reduction for the
entire device, with the exception of ice_age, which shows almost no
improvement."
"""

import pytest

from repro import experiments
from repro.core import sweep_quality_levels
from repro.player import DecoderModel, PlaybackEngine
from repro.power import simulated_backlight_savings
from repro.video import PAPER_CLIP_NAMES, make_clip


def test_fig10_total_savings(benchmark, report, device):
    fig10 = experiments.figure10(device)
    rows = fig10.rows
    peak = max(row[-1] for row in rows.values())
    report("fig10_total_savings", [
        fig10.format(),
        "",
        f"peak total-device savings at 20% quality: {peak:.1%}",
        f"ice_age at 20% quality: {rows['ice_age'][-1]:.1%}",
    ])

    # Monotone-ish in quality (DAQ noise allows ~1 % wiggle).
    for name, row in rows.items():
        assert all(b >= a - 0.015 for a, b in zip(row, row[1:])), name

    # Peak lands in (or near) the paper's 15-20 % band.
    assert 0.12 <= peak <= 0.25

    # ice_age shows almost no improvement.
    assert rows["ice_age"][-1] < 0.06

    # Measured tracks simulation: total ~= backlight savings x share.
    # Frames are shrunk for simulation speed; decode cost is charged at
    # the iPAQ's native QVGA resolution, as figure10 does.
    engine = PlaybackEngine(device, decoder=DecoderModel(reference_pixels=320 * 240))
    clip = make_clip(PAPER_CLIP_NAMES[0], resolution=experiments.DEFAULT_RESOLUTION,
                     duration_scale=experiments.DEFAULT_DURATION_SCALE)
    stream = sweep_quality_levels(clip, device, [0.10])[0]
    result = engine.play(stream)
    bl = simulated_backlight_savings(result.applied_levels, device)
    share = float(device.backlight.power(255)) / result.baseline_mean_power_w
    assert result.total_savings == pytest.approx(bl * share, abs=0.02)

    # benchmark one playback run (the client-side cost)
    benchmark.pedantic(engine.play, args=(stream,), rounds=3, iterations=1)
