"""Telemetry overhead: the instrumented hot path with telemetry on vs off.

The subsystem is designed to be default-on: counters are plain attribute
adds, spans pay two ``perf_counter`` calls, and the chunked engine only
touches the registry once per chunk.  This benchmark runs the full
profile -> clip -> compensate hot path with telemetry enabled and
disabled and asserts the enabled run costs at most
``OVERHEAD_THRESHOLD`` extra wall time.

A second gate prices the **wire path** the same way: one warmed TCP
fetch (codec encode, send queues, socket writes, client decode — now
span-tagged end to end with distributed-trace ids) timed with telemetry
+ tracing enabled vs disabled.  The tracing design keeps hot loops
span-free (per-stage costs accumulate into one ``emit_span`` per
session), so the wire path must clear the same threshold.

Results go to ``results/BENCH_telemetry.json`` (machine-readable; CI
gates regressions on it) and ``results/telemetry_overhead.txt``.
"""

import asyncio
import json
import os
import time

from repro import telemetry
from repro.core import AnnotationPipeline, ProfileCache, SchemeParameters
from repro.net import AnnotationStreamServer, AsyncMobileClient, ServeConfig
from repro.streaming import ClientCapabilities, MediaServer, SessionRequest
from repro.video import ArrayClip, make_clip

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

CLIP_NAME = "themovie"
MIN_FRAMES = 300
ROUNDS = 5

#: Maximum tolerated fractional slowdown with telemetry enabled.
OVERHEAD_THRESHOLD = 0.05


def hot_path(clip, device, params):
    """One full annotation pass: profile, clip, compensate every chunk."""
    # a fresh pipeline per run so the profile cache never hides the work
    pipeline = AnnotationPipeline(params, profile_cache=None)
    stream = pipeline.build_stream(clip, device)
    for chunk in stream.iter_chunks():
        chunk.clipped_fractions
    return stream


def best_time(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


async def _wire_round_times(media, device, rounds):
    """Per-round wall times of one warmed loopback fetch, on vs off.

    Rounds interleave enabled and disabled fetches against the same
    served catalog, so clock drift and allocator state hit both sides
    alike; the caller takes the per-side minimum.
    """
    on_times, off_times = [], []
    async with AnnotationStreamServer(media, config=ServeConfig()) as server:
        host, port = server.address
        client = AsyncMobileClient(device)
        await client.fetch(host, port, CLIP_NAME, 0.05)  # warm both sides
        for _ in range(rounds):
            telemetry.enable()
            start = time.perf_counter()
            await client.fetch(host, port, CLIP_NAME, 0.05)
            on_times.append(time.perf_counter() - start)
            telemetry.disable()
            start = time.perf_counter()
            await client.fetch(host, port, CLIP_NAME, 0.05)
            off_times.append(time.perf_counter() - start)
        telemetry.enable()
    return on_times, off_times


def wire_media(clip):
    """A media server with the benchmark clip annotated and cached."""
    media = MediaServer(
        params=SchemeParameters(quality=0.05),
        engine="chunked",
        profile_cache=ProfileCache(max_entries=4),
    )
    media.add_clip(clip)
    request = SessionRequest(clip.name, 0.05, ClientCapabilities("ipaq5555"))
    for _ in media.stream(media.open_session(request)):
        pass
    return media


def test_telemetry_overhead(report, device):
    clip = ArrayClip.from_clip(make_clip(CLIP_NAME, resolution=(96, 72)))
    assert clip.frame_count >= MIN_FRAMES
    params = SchemeParameters(quality=0.05)

    telemetry.enable()
    telemetry.reset_registry()
    run = lambda: hot_path(clip, device, params)
    try:
        on_seconds = best_time(run)
        telemetry.disable()
        off_seconds = best_time(run)
    finally:
        telemetry.enable()

    overhead = on_seconds / off_seconds - 1.0

    # Wire-path gate: the traced TCP fetch (encode/queue/write spans on
    # the server, connect/decode spans + latency SLO stats on the
    # client) against the same fetch with everything disabled.
    telemetry.reset_registry()
    telemetry.clear_spans()
    wire_on, wire_off = asyncio.run(
        _wire_round_times(wire_media(clip), device, ROUNDS)
    )
    wire_on_seconds, wire_off_seconds = min(wire_on), min(wire_off)
    wire_overhead = wire_on_seconds / wire_off_seconds - 1.0

    payload = {
        "benchmark": "telemetry_overhead",
        "clip": clip.name,
        "frames": clip.frame_count,
        "resolution": list(clip.resolution),
        "rounds": ROUNDS,
        "enabled_seconds": on_seconds,
        "disabled_seconds": off_seconds,
        "overhead_fraction": overhead,
        "threshold": OVERHEAD_THRESHOLD,
        # wire_* leaves stay outside the trend gate's key set: loopback
        # TCP timings are too jittery for a 10% band around a near-zero
        # baseline; the in-test threshold below is the real gate.
        "wire_enabled_seconds": wire_on_seconds,
        "wire_disabled_seconds": wire_off_seconds,
        "wire_overhead_fraction": wire_overhead,
        "wire_threshold": OVERHEAD_THRESHOLD,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_telemetry.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)

    lines = [
        f"telemetry overhead on {clip.name!r} "
        f"({clip.frame_count} frames @ {clip.resolution[0]}x{clip.resolution[1]}, "
        f"best of {ROUNDS})",
        f"enabled  : {on_seconds:.4f}s",
        f"disabled : {off_seconds:.4f}s",
        f"overhead : {overhead:+.2%} (threshold {OVERHEAD_THRESHOLD:.0%})",
        f"wire enabled  : {wire_on_seconds:.4f}s",
        f"wire disabled : {wire_off_seconds:.4f}s",
        f"wire overhead : {wire_overhead:+.2%} "
        f"(threshold {OVERHEAD_THRESHOLD:.0%})",
        f"json -> {json_path}",
    ]
    report("telemetry_overhead", lines)

    assert overhead < OVERHEAD_THRESHOLD, payload
    assert wire_overhead < OVERHEAD_THRESHOLD, payload
