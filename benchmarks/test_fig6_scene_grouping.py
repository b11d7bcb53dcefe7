"""Figure 6: scene grouping during playback.

The three curves of the figure for a short clip at the 10 % quality
level, from :func:`repro.experiments.figure6`: per-frame max luminance,
the scene max luminance step function, and the instantaneous backlight
power savings.  Benchmarks the profiling pass (analysis + scene
detection), the dominant server cost.
"""

import numpy as np

from repro import experiments
from repro.core import AnnotationPipeline, SchemeParameters
from repro.video import make_clip


def test_fig6_scene_grouping(benchmark, report):
    trace = experiments.figure6("themovie", quality=0.10)
    frame_max = trace.frame_max_luminance
    scene_max = trace.scene_max_luminance
    inst_savings = trace.instantaneous_savings

    report("fig6_scene_grouping", [
        trace.format(),
        "",
        f"scenes: {trace.scene_count}  switches: {trace.switch_count}  "
        f"mean savings: {inst_savings.mean():.1%}",
    ])

    # Shape checks: the scene curve is a step function dominating the
    # frame curve, and savings move inversely with scene luminance.
    assert np.all(scene_max >= frame_max - 1e-9)
    assert len(np.unique(scene_max)) < len(np.unique(frame_max))
    dark_mask = scene_max < np.median(scene_max)
    assert inst_savings[dark_mask].mean() > inst_savings[~dark_mask].mean()

    clip = make_clip("themovie", resolution=experiments.DEFAULT_RESOLUTION,
                     duration_scale=experiments.DEFAULT_DURATION_SCALE)
    pipeline = AnnotationPipeline(SchemeParameters(quality=0.10, min_scene_interval_frames=8))
    benchmark.pedantic(pipeline.profile, args=(clip,), rounds=3, iterations=1)
