"""The coalesced (vectored) wire send path under faults.

Each compensation step encodes whole runs of records into one buffer
and the session task writes each run with a single ``write`` + ``drain``
(see :class:`repro.net.server._WireSteps`).  Batching must be invisible
on the wire: the byte stream is the same record sequence, so the relay's
per-record fault injection — truncation mid-batch, stalls during a
coalesced flush, kills between records — and the client's resume
protocol keep working unchanged.  These tests prove byte-identical
delivery and clean resume through :class:`LossyTransport`, plus the
``first_byte_enqueued`` compute/wire latency split.
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
    ServeConfig,
)
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.telemetry import flight_events, span_events
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05


def _clip(name="batchclip", frames=40, seed=19):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, 16, 12, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _media_server(clip, engine="chunked"):
    server = MediaServer(
        params=FAST_PARAMS,
        engine=engine,
        profile_cache=ProfileCache(max_entries=4),
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


async def _fetch_through(media, spec, device, max_retries=8, **server_kwargs):
    async with AnnotationStreamServer(
        media, config=ServeConfig(**server_kwargs)
    ) as server:
        async with LossyTransport(*server.address, spec=spec) as lossy:
            result = await _client(device, max_retries).fetch(
                *lossy.address, media.catalog()[0], QUALITY
            )
            return result, lossy.faults_injected


async def _fetch_direct(media, device, **server_kwargs):
    async with AnnotationStreamServer(
        media, config=ServeConfig(**server_kwargs)
    ) as server:
        return await _client(device).fetch(
            *server.address, media.catalog()[0], QUALITY
        )


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


class TestBatchedWireUnderFaults:
    def test_truncation_mid_batch_recovers_byte_identical(self, device):
        """A record truncated out of the middle of a coalesced flush cuts
        the connection; the retried fetch must still be byte-identical."""
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")
        spec = FaultSpec(truncate_rate=1.0, max_faults=1, seed=7)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 1
        assert result.attempts == 2
        _assert_bit_identical(result.packets, reference)

    def test_kill_mid_batch_resumes_cleanly(self, device):
        """Cutting the stream between records of a batched run exercises
        resume: the continuation replays exactly the missing tail, so the
        reassembled stream is byte-identical."""
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")
        spec = FaultSpec(kill_after_records=7, max_faults=2, seed=7)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 2
        assert result.attempts == 3
        assert result.resumes >= 1, "the retries must use the resume token"
        _assert_bit_identical(result.packets, reference)

    def test_stall_during_coalesced_flush_completes(self, device):
        """A relay stall in the middle of a flushed batch backpressures
        the sender but must not corrupt or drop anything."""
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")
        spec = FaultSpec(stall_rate=1.0, stall_s=0.05, max_faults=3, seed=7)
        result, faults = asyncio.run(_fetch_through(media, spec, device))
        assert faults == 3
        assert result.attempts == 1, "stalls are delays, not failures"
        _assert_bit_identical(result.packets, reference)

    def test_single_record_batches_match_default(self, device):
        """``batch_records=1`` degenerates to the pre-batching wire
        behavior; the delivered stream is the same either way."""
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")
        result = asyncio.run(_fetch_direct(media, device, batch_records=1))
        assert result.attempts == 1
        _assert_bit_identical(result.packets, reference)

    def test_tiny_byte_threshold_flushes_every_record(self, device):
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")
        result = asyncio.run(_fetch_direct(media, device, batch_bytes=1))
        _assert_bit_identical(result.packets, reference)

    def test_perframe_engine_rides_the_batched_path(self, device):
        media = _media_server(_clip(), engine="perframe")
        reference = _reference(media, "batchclip")
        result = asyncio.run(_fetch_direct(media, device))
        _assert_bit_identical(result.packets, reference)

    def test_single_compute_slot_serializes_without_corruption(self, device):
        """``compute_slots=1`` fully serializes the CPU-bound stage across
        sessions; concurrent fetches must still each get the byte-exact
        stream."""
        media = _media_server(_clip())
        reference = _reference(media, "batchclip")

        async def fleet():
            async with AnnotationStreamServer(
                media, config=ServeConfig(compute_slots=1)
            ) as server:
                return await asyncio.gather(*[
                    _client(device).fetch(
                        *server.address, "batchclip", QUALITY
                    )
                    for _ in range(3)
                ])

        for result in asyncio.run(fleet()):
            _assert_bit_identical(result.packets, reference)


class TestBatchConfig:
    def test_compute_slots_validated_and_defaulted(self):
        media = _media_server(_clip())
        assert AnnotationStreamServer(media).compute_slots >= 1
        assert AnnotationStreamServer(
            media, config=ServeConfig(compute_slots=2)
        ).compute_slots == 2


class TestFirstByteEnqueued:
    def test_span_and_event_split_compute_from_wire(self, device):
        """Every session emits the compute-side latency marker: a
        ``net.first_byte_enqueued`` span nested in the session's trace
        and a flight-recorder event carrying ``compute_s``."""
        media = _media_server(_clip())
        result = asyncio.run(_fetch_direct(media, device))
        spans = [
            s for s in span_events() if s["name"] == "net.first_byte_enqueued"
        ]
        assert len(spans) == 1
        assert spans[0]["trace_id"] == result.trace_id
        assert 0.0 <= spans[0]["duration_s"] <= result.latency.ttff_s
        events = [
            e for e in flight_events() if e["kind"] == "first_byte_enqueued"
        ]
        assert len(events) == 1
        assert events[0]["compute_s"] == pytest.approx(
            spans[0]["duration_s"]
        )
