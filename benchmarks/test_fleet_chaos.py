"""Fleet throughput and chaos soak: shard kill + lossy wire, real processes.

Serves a four-title catalog two ways — one in-process chunked
:class:`AnnotationStreamServer` (the single-process baseline) and a
two-shard :class:`~repro.fleet.FleetCoordinator` (worker processes
behind the consistent-hash router) — and times the same concurrent
session fleet against both, in ``PASSES`` interleaved single/fleet
pairs.  One pass lasts under a tenth of a second, so a single shot
mostly measures host noise; the JSON records each topology's median and
interquartile range, and the speedup and its gates use the medians.
The titles are chosen to split 2/2 across the hash ring so both shards
carry load.

The chaos soak then pushes the session fleet through a
:class:`~repro.net.fault.LossyTransport` hop in front of the router
(deterministic connection kills every N records) while one shard is
SIGKILLed mid-soak.  Clients carry portable resume tokens, so every
interrupted session re-enters through the router and finishes on the
replica shard; the soak asserts the recovered-session rate and checks
every delivered stream byte-identical against the single-process
reference.

Artifacts: ``results/BENCH_fleet.json`` (gated by ``trend_check.py``:
recovery floor always, the fleet >= 1.5x single-process speedup only on
multi-core hosts — the pinned ``cpus`` field records which) and
``results/fleet_flight_tail.jsonl`` (the router's flight-recorder tail,
uploaded from CI for post-mortems).
"""

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.api import fetch_stream
from repro.core import ProfileCache, SchemeParameters
from repro.fleet import FleetCoordinator, HashRing
from repro.net import (
    AnnotationStreamServer,
    FaultSpec,
    FetchOptions,
    LossyTransport,
    ServeConfig,
)
from repro.streaming import MediaServer, PacketType
from repro.telemetry import flight_events, registry
from repro.video import ArrayClip, make_clip

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: 2/2 split across a two-shard ring (see HashRing placement).
CLIPS = ("themovie", "shrek2", "catwoman", "ice_age")
SHARDS = 2
SESSIONS_PER_CLIP = 2
SESSIONS = len(CLIPS) * SESSIONS_PER_CLIP
QUALITY = 0.05
CLIP_RESOLUTION = (48, 36)
DURATION_SCALE = 0.25
RECOVERY_FLOOR = 0.99
#: Interleaved single/fleet timing passes (odd, so the median is a pass).
PASSES = 21


def _fleet_catalog():
    """Picklable catalog factory: every shard builds this same catalog.

    Module-level by necessity — the coordinator pickles it into each
    :class:`~repro.fleet.WorkerSpec`, and byte-identical failover relies
    on every process call producing the same deterministic catalog.
    """
    server = MediaServer(
        params=SchemeParameters(quality=QUALITY),
        engine="chunked",
        profile_cache=ProfileCache(max_entries=8),
    )
    for name in CLIPS:
        server.add_clip(ArrayClip.from_clip(make_clip(
            name, resolution=CLIP_RESOLUTION, duration_scale=DURATION_SCALE
        )))
    return server


def _options(max_retries=2):
    return FetchOptions(max_retries=max_retries, backoff_base_s=0.02,
                        backoff_max_s=0.25, jitter_s=0.0)


async def _session_fleet(host, port, device, options):
    """SESSIONS concurrent fetches (SESSIONS_PER_CLIP per title)."""
    jobs = [
        fetch_stream(host, port, name, QUALITY, device, options=options)
        for name in CLIPS
        for _ in range(SESSIONS_PER_CLIP)
    ]
    start = time.perf_counter()
    results = await asyncio.gather(*jobs, return_exceptions=True)
    return results, time.perf_counter() - start


async def _warm(host, port, device):
    """One fetch per title so annotation passes land outside the timing."""
    for name in CLIPS:
        await fetch_stream(host, port, name, QUALITY, device,
                           options=_options())


def _assert_identical(packets, reference):
    assert len(packets) == len(reference)
    for mine, ref in zip(packets, reference):
        assert mine.ptype is ref.ptype and mine.seq == ref.seq
        if ref.ptype is PacketType.ANNOTATION:
            assert mine.payload == ref.payload
        elif ref.ptype is PacketType.FRAME:
            assert np.array_equal(mine.frame.pixels, ref.frame.pixels)


def _identical(packets, reference):
    if len(packets) != len(reference):
        return False
    for mine, ref in zip(packets, reference):
        if mine.ptype is not ref.ptype or mine.seq != ref.seq:
            return False
        if ref.ptype is PacketType.ANNOTATION and mine.payload != ref.payload:
            return False
        if ref.ptype is PacketType.FRAME and not np.array_equal(
            mine.frame.pixels, ref.frame.pixels
        ):
            return False
    return True


def _spread(samples):
    """``(median, interquartile range)`` of a list of samples."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(median), float(q3 - q1)


def _topology(passes):
    """The JSON section for one topology's timed passes."""
    seconds = [elapsed for _, elapsed in passes]
    rates = [SESSIONS / elapsed for elapsed in seconds]
    frames = sum(r.frame_count for r in passes[0][0])
    median_s, iqr_s = _spread(seconds)
    median_rate, iqr_rate = _spread(rates)
    return {
        "seconds": median_s,
        "seconds_iqr": iqr_s,
        "seconds_samples": seconds,
        "sessions_per_sec": median_rate,
        "sessions_per_sec_iqr": iqr_rate,
        "frames_per_sec": frames / median_s,
    }


def test_fleet_chaos(report, device):
    cpus = os.cpu_count() or 1
    ring = HashRing(tuple(f"shard-{i}" for i in range(SHARDS)))
    placement = {name: ring.lookup(name) for name in CLIPS}
    assert len(set(placement.values())) == SHARDS  # both shards loaded
    victim = placement[CLIPS[0]]

    # ---- interleaved single-process / fleet passes, then the soak -------
    async def run():
        # The fleet forks its shards before the single-process server
        # opens its socket, so no shard inherits that socket.
        async with FleetCoordinator(
            _fleet_catalog, shards=SHARDS, health_interval_s=0.5
        ) as fleet, AnnotationStreamServer(
            _fleet_catalog(), config=ServeConfig()
        ) as single:
            await _warm(*single.address, device)
            await _warm(*fleet.address, device)
            single_passes, fleet_passes = [], []
            for _ in range(PASSES):
                single_passes.append(await _session_fleet(
                    *single.address, device, _options()
                ))
                fleet_passes.append(await _session_fleet(
                    *fleet.address, device, _options()
                ))

            # Chaos soak: a lossy hop kills connections every 64 records,
            # and the CLIPS[0] owner dies mid-soak.  Portable tokens let
            # every interrupted session resume through the router.
            spec = FaultSpec(kill_after_records=64, max_faults=SESSIONS,
                             seed=7)
            async with LossyTransport(*fleet.address, spec) as lossy:
                soak_task = asyncio.ensure_future(_session_fleet(
                    *lossy.address, device, _options(max_retries=8)
                ))
                await asyncio.sleep(0.05)
                fleet.kill_shard(victim)
                soak_results, soak_elapsed = await soak_task
            await fleet.router.probe_shards()
            snapshot = fleet.router.fleet_snapshot()
            return (single_passes, fleet_passes,
                    (soak_results, soak_elapsed), snapshot)

    single_passes, fleet_passes, soak, snapshot = asyncio.run(run())
    soak_results, soak_elapsed = soak
    references = {}  # clip -> reference packet list (first session wins)
    for result in single_passes[0][0]:
        references.setdefault(result.session.clip_name, result.packets)
    for results, _ in single_passes + fleet_passes:
        assert not any(isinstance(r, Exception) for r in results)
        for result in results:
            _assert_identical(result.packets,
                              references[result.session.clip_name])

    # ---- recovery accounting --------------------------------------------
    recovered = sum(
        1 for r in soak_results
        if not isinstance(r, Exception)
        and _identical(r.packets, references[r.session.clip_name])
    )
    recovery_rate = recovered / SESSIONS
    resumes = sum(r.resumes for r in soak_results
                  if not isinstance(r, Exception))
    faults_metric = registry().get("repro_net_faults_injected_total")
    faults = int(faults_metric.value) if faults_metric is not None else 0
    dead_shards = [s["shard"] for s in snapshot["shards"] if not s["alive"]]

    single = _topology(single_passes)
    fleet = _topology(fleet_passes)
    speedup = fleet["sessions_per_sec"] / single["sessions_per_sec"]
    fleet["speedup_vs_single_process"] = speedup

    payload = {
        "benchmark": "fleet_chaos",
        "clips": list(CLIPS),
        "placement": placement,
        "sessions": SESSIONS,
        "quality": QUALITY,
        "shards": SHARDS,
        "cpus": cpus,
        "passes": PASSES,
        "single": single,
        "fleet": fleet,
        "chaos": {
            "sessions": SESSIONS,
            "recovered_sessions": recovered,
            "recovered_session_rate": recovery_rate,
            "resumes": resumes,
            "faults_injected": faults,
            "shard_killed": victim,
            "seconds": soak_elapsed,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_fleet.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)

    # Flight-recorder tail: the router-side event log (shard up/down,
    # failover, spillover, kills) as a JSON-lines CI artifact.
    tail = flight_events(limit=200)
    tail_path = os.path.join(RESULTS_DIR, "fleet_flight_tail.jsonl")
    with open(tail_path, "w") as fh:
        for event in tail:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")

    lines = [
        f"fleet chaos on {len(CLIPS)} titles x {SESSIONS_PER_CLIP} sessions "
        f"({SHARDS} shards, {cpus} cpu(s), quality {QUALITY}), "
        f"median (IQR) of {PASSES} interleaved passes",
        f"{'topology':<10}{'seconds':>18}{'sessions/s':>20}{'frames/s':>11}",
    ] + [
        f"{name:<10}{t['seconds']:>9.3f} ({t['seconds_iqr']:.3f})"
        f"{t['sessions_per_sec']:>11.2f} ({t['sessions_per_sec_iqr']:.2f})"
        f"{t['frames_per_sec']:>11.0f}"
        for name, t in (("single", single), ("fleet", fleet))
    ] + [
        f"fleet speedup {speedup:.2f}x single-process (medians)",
        f"chaos soak: killed {victim}, {faults} wire faults, "
        f"{resumes} resumes, {recovered}/{SESSIONS} sessions recovered "
        f"byte-identically ({recovery_rate:.1%}) in {soak_elapsed:.3f}s",
        f"flight tail ({len(tail)} events) -> {tail_path}",
        f"json -> {json_path}",
    ]
    report("fleet_chaos", lines)

    # The dead shard must be visible to the router by soak end.
    assert victim in dead_shards, snapshot
    # Every stream that survived the soak replayed byte-identically, and
    # at least one of them actually exercised the resume path.
    assert resumes >= 1, payload["chaos"]
    assert recovery_rate >= RECOVERY_FLOOR, payload["chaos"]
    # The comparative speedup claim only holds with real parallelism;
    # on a single-core host the shards just take turns on one core, so
    # the gate (here and in trend_check.py) is multi-core only.
    if cpus >= 2:
        assert speedup >= 1.5, payload["fleet"]
