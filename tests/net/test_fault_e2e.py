"""End-to-end robustness: fetch through a lossy relay, bit-identical result.

The acceptance scenario of the wire transport: a clip streamed over a
real socket through :class:`LossyTransport` — injecting drops, delays,
corruption and truncation — must, after the client's retries, produce
exactly the packet sequence that in-process serving yields.  Faults are
seeded and budgeted, so every run is deterministic.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    FaultSpec,
    LossyTransport,
)
from repro.streaming import (
    ClientCapabilities,
    DEFAULT_WIRELESS,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05


def _clip(name="lossyclip", frames=24, seed=11):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, 16, 12, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _media_server(clip):
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=4)
    )
    server.add_clip(clip)
    return server


def _reference(media, clip_name):
    request = SessionRequest(clip_name, QUALITY, ClientCapabilities("ipaq5555"))
    return list(media.stream(media.open_session(request)))


def _client(device, max_retries=8):
    return AsyncMobileClient(
        device,
        max_retries=max_retries,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.0,
        rng=random.Random(0),
    )


async def _fetch_through(media, spec, device, max_retries=8):
    async with AnnotationStreamServer(media) as server:
        async with LossyTransport(*server.address, spec=spec) as lossy:
            result = await _client(device, max_retries).fetch(
                *lossy.address, media.catalog()[0], QUALITY
            )
            return result, lossy.faults_injected


def _assert_bit_identical(fetched, reference):
    assert len(fetched) == len(reference)
    for got, ref in zip(fetched, reference):
        assert got.ptype is ref.ptype
        assert got.seq == ref.seq
        if ref.ptype is PacketType.ANNOTATION:
            assert got.payload == ref.payload
        elif ref.ptype is PacketType.FRAME:
            assert got.frame_index == ref.frame_index
            assert got.wire_bytes == ref.wire_bytes
            assert np.array_equal(got.frame.pixels, ref.frame.pixels)


class TestLossyEndToEnd:
    def test_drops_delays_corruption_truncation_all_recovered(self, device):
        """The full acceptance run: every fault family at once, plus the
        802.11b hop's (scaled) store-and-forward delay."""
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec.from_link(
            DEFAULT_WIRELESS,
            drop_rate=0.05,
            corrupt_rate=0.05,
            truncate_rate=0.02,
            max_faults=6,
            seed=3,
            time_scale=1e-5,
        )
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults > 0, "the seed must actually exercise faults"
        assert result.attempts > 1, "at least one retry must have happened"
        _assert_bit_identical(result.packets, reference)

    def test_delay_only_link_is_transparent(self, device):
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec.from_link(DEFAULT_WIRELESS, time_scale=1e-5)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 0
        assert result.attempts == 1
        _assert_bit_identical(result.packets, reference)

    def test_single_drop_detected_and_retried(self, device):
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec(drop_rate=1.0, max_faults=1)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 1
        assert result.attempts == 2
        _assert_bit_identical(result.packets, reference)

    def test_single_corruption_detected_and_retried(self, device):
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec(corrupt_rate=1.0, max_faults=1)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 1
        assert result.attempts == 2
        _assert_bit_identical(result.packets, reference)

    def test_single_truncation_detected_and_retried(self, device):
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec(truncate_rate=1.0, max_faults=1)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 1
        assert result.attempts == 2
        _assert_bit_identical(result.packets, reference)

    def test_fault_budget_guarantees_convergence(self, device):
        """rate=1.0 would fault forever; the budget caps injection at
        exactly ``max_faults``, after which the relay is transparent and
        the retrying client converges."""
        media = _media_server(_clip())
        reference = _reference(media, "lossyclip")
        spec = FaultSpec(drop_rate=1.0, max_faults=3)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 3
        assert result.attempts >= 2
        _assert_bit_identical(result.packets, reference)

    def test_playback_of_lossy_fetch_matches_local(self, device):
        """Compensated playback — the paper's actual deliverable — is
        unchanged by the lossy wire."""
        from repro.streaming.client import MobileClient

        media = _media_server(_clip(frames=30))
        reference = _reference(media, "lossyclip")
        spec = FaultSpec(corrupt_rate=0.1, max_faults=2, seed=5)

        async def run():
            async with AnnotationStreamServer(media) as server:
                async with LossyTransport(*server.address, spec=spec) as lossy:
                    client = _client(device)
                    fetched = await client.fetch(
                        *lossy.address, "lossyclip", QUALITY
                    )
                    return client, fetched

        client, fetched = asyncio.run(run())
        request = SessionRequest(
            "lossyclip", QUALITY, ClientCapabilities("ipaq5555")
        )
        local = MobileClient(device).play_stream(
            media.open_session(request), reference
        )
        wire = client.play(fetched)
        assert wire.total_savings == pytest.approx(local.total_savings)
        assert np.array_equal(wire.applied_levels, local.applied_levels)


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(max_faults=-1)

    def test_from_link_derives_delays(self):
        spec = FaultSpec.from_link(DEFAULT_WIRELESS, time_scale=0.5)
        assert spec.delay_s == pytest.approx(DEFAULT_WIRELESS.latency_s * 0.5)
        assert spec.delay_per_byte_s == pytest.approx(
            8.0 / DEFAULT_WIRELESS.bandwidth_bps * 0.5
        )

    def test_from_link_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            FaultSpec.from_link(DEFAULT_WIRELESS, time_scale=-1.0)

    def test_transport_address_requires_start(self):
        transport = LossyTransport("127.0.0.1", 1)
        with pytest.raises(RuntimeError):
            transport.address


def _relay_tasks():
    """Unfinished tasks running a LossyTransport coroutine."""
    return [
        task for task in asyncio.all_tasks()
        if not task.done()
        and "LossyTransport." in getattr(task.get_coro(), "__qualname__", "")
    ]


def test_close_leaves_no_relay_task_pending():
    """``close()`` cancels and awaits every live relay, so none outlives
    the transport (no "Task was destroyed but it is pending" at exit)."""

    async def run():
        async def silent(reader, writer):  # an upstream that never answers
            await reader.read()
            writer.close()

        upstream = await asyncio.start_server(silent, "127.0.0.1", 0)
        lossy = LossyTransport("127.0.0.1", upstream.sockets[0].getsockname()[1])
        await lossy.start()
        reader, writer = await asyncio.open_connection(*lossy.address)
        writer.write(b"hello")
        await writer.drain()
        for _ in range(200):
            if len(_relay_tasks()) >= 2:  # handler + uplink pump are live
                break
            await asyncio.sleep(0.01)
        live = len(_relay_tasks())
        await asyncio.wait_for(lossy.close(), timeout=5.0)
        left = _relay_tasks()
        writer.close()
        upstream.close()
        await upstream.wait_closed()
        return live, left

    live, left = asyncio.run(run())
    assert live >= 2
    assert left == []
