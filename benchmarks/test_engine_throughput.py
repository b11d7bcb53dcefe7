"""Execution-engine throughput: per-frame vs chunked.

Times the full profile -> clip -> compensate hot path on a >= 300-frame
synthetic clip, in frames/sec per engine.  The per-frame leg reproduces
the seed behaviour exactly: profile one Frame at a time, compensate each
frame for playback, then compensate every frame *again* for the quality
metric (the double pass the chunked engine eliminates).  The chunked leg
produces bit-identical pixels and metrics — also with short chunks, which
spread over the engine's thread pool on a multi-core host — and the test
asserts that before trusting the speedup.

Acceptance: chunked >= 3x the per-frame path.  Results go to
``results/BENCH_engine.json`` (machine-readable) and
``results/engine_throughput.txt`` (human-readable).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    AnnotationPipeline,
    EngineConfig,
    SchemeParameters,
    StreamAnalyzer,
)
from repro.video import ArrayClip, make_clip

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Benchmark workload: a full-length library title at benchmark resolution,
#: rehosted on an ArrayClip so chunk extraction is zero-copy (and so the
#: per-frame leg cannot accidentally reuse per-Frame plane caches between
#: timing rounds — ArrayClip materializes a fresh Frame per access).
CLIP_NAME = "themovie"
MIN_FRAMES = 300
ROUNDS = 3


@pytest.fixture(scope="module")
def workload():
    clip = ArrayClip.from_clip(make_clip(CLIP_NAME, resolution=(96, 72)))
    assert clip.frame_count >= MIN_FRAMES
    return clip


def perframe_leg(clip, device, params):
    """Seed-equivalent per-frame hot path (profile, play, re-measure)."""
    pipeline = AnnotationPipeline(params, engine="perframe")
    stream = pipeline.build_stream(clip, device)
    playback = [
        stream.compensated_frame(i).frame for i in range(stream.frame_count)
    ]
    quality = float(
        np.mean(
            [
                stream.compensated_frame(i).clipped_fraction
                for i in range(stream.frame_count)
            ]
        )
    )
    return playback, quality


def chunked_leg(clip, device, params, engine=None):
    """Batched hot path: one compensation pass yields frames and metrics."""
    pipeline = AnnotationPipeline(params, engine=engine)
    stream = pipeline.build_stream(clip, device)
    batches, fractions = [], []
    for chunk in stream.iter_chunks():
        batches.append(chunk.pixels)
        fractions.append(chunk.clipped_fractions)
    quality = float(np.mean(np.concatenate(fractions)))
    return batches, quality


def best_time(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def best_times_interleaved(legs, rounds=ROUNDS):
    """Best-of-N per leg, with rounds interleaved across legs.

    Timing each leg's rounds back-to-back lets slow drift (thermal
    throttling, noisy neighbours) systematically penalize whichever leg
    runs last; round-robin spreads the drift evenly.
    """
    times = {name: [] for name in legs}
    for _ in range(rounds):
        for name, fn in legs.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: min(ts) for name, ts in times.items()}


def test_engine_throughput(report, device, workload):
    params = SchemeParameters(quality=0.05)
    clip = workload
    n = clip.frame_count

    # Correctness first: every engine must produce identical output.
    ref_frames, ref_quality = perframe_leg(clip, device, params)
    for engine in (None, EngineConfig(chunk_size=64)):
        batches, quality = chunked_leg(clip, device, params, engine=engine)
        assert quality == ref_quality
        stacked = np.concatenate(batches)
        for i in range(0, n, 37):
            assert np.array_equal(stacked[i], ref_frames[i].pixels)

    legs = {
        "perframe": lambda: perframe_leg(clip, device, params),
        "chunked": lambda: chunked_leg(clip, device, params),
    }
    seconds = best_times_interleaved(legs)
    fps = {name: n / s for name, s in seconds.items()}
    speedup = {name: seconds["perframe"] / s for name, s in seconds.items()}

    analyze_only = {
        "perframe": best_time(lambda: StreamAnalyzer("perframe").analyze(clip)),
        "chunked": best_time(lambda: StreamAnalyzer().analyze(clip)),
    }

    # Compensate-only microbenchmark: the fused 256-entry LUT kernel
    # against the float64 reference it replaced, on one autotuned chunk
    # with per-scene gains.  Bit-identity is asserted before the timing
    # is trusted; the speedup is the "additional compensate speedup"
    # the wire path banks on.
    from repro.core import (
        contrast_enhancement_batch,
        contrast_enhancement_batch_reference,
    )

    chunk = next(iter(clip.iter_chunks(128)))
    gains = np.repeat([1.4, 2.1, 1.0, 1.7], 32)[: len(chunk)]
    lut_px, lut_fr = contrast_enhancement_batch(chunk.pixels, gains)
    ref_px, ref_fr = contrast_enhancement_batch_reference(chunk.pixels, gains)
    assert np.array_equal(lut_px, ref_px)
    assert np.array_equal(lut_fr, ref_fr)
    compensate_seconds = best_times_interleaved(
        {
            "lut": lambda: contrast_enhancement_batch(chunk.pixels, gains),
            "float": lambda: contrast_enhancement_batch_reference(
                chunk.pixels, gains
            ),
        },
        rounds=5,
    )
    lut_speedup = compensate_seconds["float"] / compensate_seconds["lut"]

    payload = {
        "benchmark": "engine_throughput",
        "clip": clip.name,
        "frames": n,
        "resolution": list(clip.resolution),
        "rounds": ROUNDS,
        "engines": {
            name: {
                "seconds": seconds[name],
                "frames_per_sec": fps[name],
                "speedup_vs_perframe": speedup[name],
            }
            for name in legs
        },
        "analyze_only": {
            "perframe_seconds": analyze_only["perframe"],
            "chunked_seconds": analyze_only["chunked"],
            "speedup": analyze_only["perframe"] / analyze_only["chunked"],
        },
        "compensate_only": {
            "chunk_frames": len(chunk),
            "float_seconds": compensate_seconds["float"],
            "lut_seconds": compensate_seconds["lut"],
            "lut_speedup_vs_float": lut_speedup,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_engine.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)

    lines = [
        f"engine throughput on {clip.name!r} "
        f"({n} frames @ {clip.resolution[0]}x{clip.resolution[1]}, best of {ROUNDS})",
        f"{'engine':<18}{'seconds':>10}{'frames/s':>12}{'speedup':>10}",
    ]
    for name in legs:
        lines.append(
            f"{name:<18}{seconds[name]:>10.3f}{fps[name]:>12.0f}{speedup[name]:>9.2f}x"
        )
    lines.append(
        "analyze only: "
        f"perframe {analyze_only['perframe']:.3f}s, "
        f"chunked {analyze_only['chunked']:.3f}s "
        f"({payload['analyze_only']['speedup']:.2f}x)"
    )
    lines.append(
        "compensate only: "
        f"float {compensate_seconds['float'] * 1e3:.2f} ms, "
        f"LUT {compensate_seconds['lut'] * 1e3:.2f} ms "
        f"({lut_speedup:.2f}x) on {len(chunk)} frames"
    )
    lines.append(f"json -> {json_path}")
    report("engine_throughput", lines)

    # Acceptance: batched engine at least 3x the per-frame hot path.
    assert speedup["chunked"] >= 3.0, speedup
    # The fused LUT compensate must beat the float64 kernel it replaced
    # by a wide margin — it's the wire path's compute headroom.
    assert lut_speedup >= 1.5, compensate_seconds
