"""Figure 9 (headline): simulated LCD backlight power savings.

Ten clips x five quality levels on the iPAQ 5555, from
:func:`repro.experiments.figure9`.  Shapes that must hold (the paper's
absolute numbers depend on its exact MPEG content):

* savings grow monotonically with the quality level for every clip;
* dark-scene clips reach ~50-75 % at 20 % quality ("up to 65 % ... or
  even more");
* the bright-background clips (hunter_subres, ice_age) are the two worst
  performers, with ice_age near zero.
"""

from repro import experiments
from repro.core import AnnotationPipeline, SchemeParameters
from repro.video import PAPER_CLIP_NAMES, make_clip


def test_fig9_backlight_savings(benchmark, report, device):
    fig9 = experiments.figure9(device)
    rows = fig9.rows
    best_name, best = fig9.best_clip()
    report("fig9_backlight_savings", [
        fig9.format(),
        "",
        f"best clip at 20% quality: {best_name} ({best:.1%})",
    ])

    for name, row in rows.items():
        # monotone in quality
        assert all(b >= a - 1e-9 for a, b in zip(row, row[1:])), name
        assert all(0.0 <= v < 1.0 for v in row), name

    # headline magnitude: the best clip saves >= 60 % at 20 % quality
    assert best >= 0.60

    # the two bright clips are the two worst at every lossy level
    for qi in range(1, len(fig9.qualities)):
        ranked = sorted(PAPER_CLIP_NAMES, key=lambda n: rows[n][qi])
        assert set(ranked[:2]) == {"hunter_subres", "ice_age"}, ranked[:2]

    # ice_age saves almost nothing even at 20 %
    assert rows["ice_age"][-1] < 0.15

    # benchmark one full annotate-and-bind of a mid-size clip
    clip = make_clip(PAPER_CLIP_NAMES[1], resolution=experiments.DEFAULT_RESOLUTION,
                     duration_scale=experiments.DEFAULT_DURATION_SCALE)
    pipeline = AnnotationPipeline(SchemeParameters(quality=0.10))
    benchmark.pedantic(
        pipeline.annotate_for_device, args=(clip, device), rounds=3, iterations=1
    )
