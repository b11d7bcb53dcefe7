"""Section 4 claim: "On a typical PDA the backlight dominates other
components, with about 25-30 % of total power consumption."

The per-device component power breakdown during playback, from
:func:`repro.experiments.backlight_share`.
"""

from repro import experiments
from repro.display import all_devices
from repro.power import PLAYBACK_ACTIVITY, DevicePowerModel


def test_backlight_share(benchmark, report):
    breakdown = experiments.backlight_share()
    report("backlight_share", [breakdown.format()])

    for name in breakdown.rows:
        share = breakdown.share(name)
        assert 0.22 <= share <= 0.40, f"{name}: {share:.1%}"

    model = DevicePowerModel(all_devices()[0])
    benchmark(model.total_power, PLAYBACK_ACTIVITY, 128)
