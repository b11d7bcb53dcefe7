"""Mid-stream adaptation soak: battery-driven requality vs a static session.

The closing claim of the adaptation control plane: a client that steps
down the quality ladder as its modeled battery drains (and re-binds when
its light sensor reports a brighter room) spends measurably less modeled
backlight energy than the same session left static — without ever
tearing down the connection.

The soak runs several battery-driven sessions against a paced wire
server, plays each stream back (applying the mid-stream re-bind
overlay), and prices the applied backlight schedule with the device's
affine backlight power model.  Results land in
``results/BENCH_adaptation.json`` (gated by ``trend_check.py``: the
savings must stay within tolerance of the committed baseline AND above
the absolute 10% floor) and the requality flight-recorder tail in
``results/adaptation_flight_tail.jsonl`` (a CI artifact).
"""

import asyncio
import json
import os
import random
import time

import numpy as np

from repro.net import AnnotationStreamServer, AsyncMobileClient, BatteryClient, ServeConfig
from repro.power import Battery
from repro.streaming import MediaServer, MobileClient
from repro.core import SchemeParameters
from repro.telemetry import flight_events, registry
from repro.video import LazyClip, SceneSpec, ScriptedClipFactory

from conftest import RESULTS_DIR

CLIP = "benchclip"
FPS = 24.0
SESSIONS = 5
SAVINGS_FLOOR = 0.10

#: Live switches only land while production is still in flight, so
#: every record is its own write: the stream runs at most one
#: compensation step ahead of the client's reads plus socket buffers.
PACED = ServeConfig(batch_records=1, batch_bytes=1)


def _bench_clip():
    """16 scenes x 15 frames: dark/action/bright mix at 24 fps."""
    scenes = []
    for i in range(16):
        kind = i % 4
        if kind in (0, 2):
            scenes.append(SceneSpec("dark", 15, {
                "background": 0.12 + 0.01 * i, "highlight": 0.7,
                "glow_level": 0.25,
            }))
        elif kind == 1:
            scenes.append(SceneSpec("action", 15, {}))
        else:
            scenes.append(SceneSpec("bright", 15, {
                "background": 0.8, "variation": 0.1,
            }))
    factory = ScriptedClipFactory(scenes, resolution=(64, 48), seed=7)
    return LazyClip(factory, frame_count=factory.frame_count, fps=FPS,
                    name=CLIP, resolution=(64, 48))


def _media():
    server = MediaServer(params=SchemeParameters(min_scene_interval_frames=8))
    server.add_clip(_bench_clip())
    return server


def _battery_client(device):
    """Drains a 4 mWh pack at 20 W: every SOC threshold is crossed
    within the first modeled second, and the simulated light sensor
    reports office light half a second in."""
    return BatteryClient(
        device,
        battery_trace="0:20",
        battery=Battery(capacity_wh=0.004, rated_power_w=1.5),
        ambient_trace="0:dark-room,0.5:office",
        max_retries=0,
        jitter_s=0.0,
        rng=random.Random(0),
    )


def _mean_backlight_w(fetched, device):
    """Price the played-back backlight schedule with the affine model."""
    result = MobileClient(device).play_stream(fetched.session, fetched.packets)
    return float(np.mean(device.backlight.power(result.applied_levels)))


async def _soak(device):
    media = _media()
    async with AnnotationStreamServer(media, config=PACED) as server:
        host, port = server.address
        static = await AsyncMobileClient(
            device, max_retries=0, jitter_s=0.0, rng=random.Random(0)
        ).fetch(host, port, CLIP, 0.0)
        adaptive = []
        started = time.perf_counter()
        for _ in range(SESSIONS):
            adaptive.append(
                await _battery_client(device).fetch(host, port, CLIP, 0.0)
            )
        elapsed = time.perf_counter() - started
    return static, adaptive, elapsed


def test_adaptation_savings_vs_static(benchmark, report, device):
    static, adaptive, elapsed = asyncio.run(_soak(device))

    frames = static.frame_count
    static_w = _mean_backlight_w(static, device)
    full_w = float(device.backlight.power(255))

    session_w = []
    switch_frames = []
    applied_total = 0
    for result in adaptive:
        assert result.attempts == 1  # adapted live, never reconnected
        assert result.frame_count == frames
        applied = [r for r in result.requalities if r.applied]
        assert applied, "a soak session never adapted — pacing broke?"
        applied_total += len(applied)
        switch_frames.append(applied[-1].frame)
        session_w.append(_mean_backlight_w(result, device))

    adaptive_w = float(np.mean(session_w))
    savings_vs_static = 1.0 - adaptive_w / static_w
    requality_metric = registry().get("repro_requality_total")
    requality_total = 0 if requality_metric is None else requality_metric.value

    assert savings_vs_static >= SAVINGS_FLOOR, (
        f"battery-driven client saved only {savings_vs_static:.1%} "
        f"modeled backlight energy vs static (floor {SAVINGS_FLOOR:.0%})"
    )

    payload = {
        "benchmark": "adaptation",
        "clip": CLIP,
        "frames": frames,
        "fps": FPS,
        "sessions": SESSIONS,
        "static": {
            "mean_backlight_w": static_w,
            "savings": 1.0 - static_w / full_w,
        },
        "adaptive": {
            "mean_backlight_w": adaptive_w,
            "savings": 1.0 - adaptive_w / full_w,
            "savings_vs_static": savings_vs_static,
            "applied_switches": applied_total,
            "last_switch_frame_mean": float(np.mean(switch_frames)),
        },
        "soak": {
            "seconds": elapsed,
            "sessions_per_sec": SESSIONS / elapsed,
            "requality_requests": requality_total,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_adaptation.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)

    # Flight-recorder tail: the requality request/apply event log as a
    # JSON-lines CI artifact.
    tail = flight_events(limit=200)
    tail_path = os.path.join(RESULTS_DIR, "adaptation_flight_tail.jsonl")
    with open(tail_path, "w") as fh:
        for event in tail:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")

    lines = [
        f"adaptation soak: {SESSIONS} battery-driven sessions x {frames} "
        f"frames (paced wire, quality 0.0 opening)",
        f"{'session':<10}{'backlight W':>12}{'savings/full':>14}",
        f"{'static':<10}{static_w:>12.4f}{1.0 - static_w / full_w:>14.1%}",
        f"{'adaptive':<10}{adaptive_w:>12.4f}{1.0 - adaptive_w / full_w:>14.1%}",
        f"savings vs static: {savings_vs_static:.1%} "
        f"(floor {SAVINGS_FLOOR:.0%}); {applied_total} applied switches, "
        f"last at frame {np.mean(switch_frames):.0f} of {frames}",
        f"{requality_total:.0f} requality requests in {elapsed:.3f}s "
        f"({SESSIONS / elapsed:.2f} sessions/s)",
        f"flight tail ({len(tail)} events) -> {tail_path}",
        f"json -> {json_path}",
    ]
    report("adaptation", lines)

    def one_session():
        async def run():
            media = _media()
            async with AnnotationStreamServer(media, config=PACED) as server:
                return await _battery_client(device).fetch(
                    *server.address, CLIP, 0.0
                )
        return asyncio.run(run())

    benchmark.pedantic(one_session, rounds=3, iterations=1)
