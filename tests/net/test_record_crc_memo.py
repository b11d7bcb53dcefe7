"""The media server's record-CRC store (``MediaServer.record_crcs``).

A compensated frame record for one clip registration, frame and pixel
transform is the same bytes for every client, so the server computes its
CRC32 once and reuses it.  These tests recompute ``zlib.crc32(header[0:28]
+ body)`` for every record they receive, so a stale or misfiled CRC fails
them even where two fetches would agree with each other.
"""

import asyncio
import random
import struct
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import AnnotationStreamServer, encode_packet_bytes
from repro.net.codec import decode_packet, encode_packet
from repro.net.messages import encode_hello
from repro.streaming import ClientCapabilities, MediaServer, SessionRequest
from repro.streaming import server as media_server_module
from repro.streaming.server import AdaptationControl
from repro.video import ArrayClip, make_clip

PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05
DEVICE = "ipaq5555"
TITLE = "themovie"
#: Wire type codes (header byte 5).
CONTROL, FRAME = 1, 3


def _clip(name: str = TITLE) -> ArrayClip:
    return ArrayClip.from_clip(
        make_clip(name, resolution=(64, 48), duration_scale=0.05)
    )


def _media(*clips, policy=None) -> MediaServer:
    media = MediaServer(params=PARAMS, policy=policy,
                        profile_cache=ProfileCache(max_entries=8))
    for clip in clips:
        media.add_clip(clip)
    return media


def _records(data: bytes):
    """Split a wire byte stream into records, checking every CRC."""
    records = []
    pos = 0
    while pos < len(data):
        body_len, = struct.unpack_from("<I", data, pos + 12)
        record = data[pos:pos + 32 + body_len]
        crc, = struct.unpack_from("<I", record, 28)
        assert zlib.crc32(record[:28] + record[32:]) == crc, (
            f"record at byte {pos} carries a wrong CRC"
        )
        decode_packet(record)
        records.append(record)
        pos += len(record)
    return records


def _data_records(data: bytes):
    """The annotation and frame records (session and end messages carry
    per-connection ids)."""
    return [r for r in _records(data) if r[5] != CONTROL]


async def _fetch(address, clip: str, quality: float = QUALITY) -> bytes:
    """Every byte one TCP fetch receives, up to the server's close."""
    reader, writer = await asyncio.open_connection(*address)
    request = SessionRequest(clip, quality, ClientCapabilities(DEVICE))
    writer.write(encode_packet_bytes(encode_hello(request)))
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), timeout=30.0)
    writer.close()
    await writer.wait_closed()
    return data


def _encoded(media: MediaServer, clip: str, quality: float = QUALITY,
             device: str = DEVICE, plan=()):
    """One stream's records, encoded in-process through the server's store."""
    session = media.open_session(
        SessionRequest(clip, quality, ClientCapabilities(device))
    )
    data = bytearray()
    groups = media.stream_batches(session, adaptation=AdaptationControl(plan))
    for group in groups:
        for packet in group:
            for part in encode_packet(packet, media.record_crcs):
                data += part
    return _records(bytes(data))


def test_second_fetch_is_served_from_the_store_byte_identically():
    clip = _clip()
    media = _media(clip)

    async def run():
        async with AnnotationStreamServer(media) as server:
            first = await _fetch(server.address, clip.name)
            hits = media.record_crcs.hits
            misses = media.record_crcs.misses
            second = await _fetch(server.address, clip.name)
            return first, second, hits, misses

    first, second, hits, misses = asyncio.run(run())
    first, second = _data_records(first), _data_records(second)
    assert first == second
    frames = sum(record[5] == FRAME for record in second)
    assert frames == clip.frame_count
    assert media.record_crcs.hits - hits == frames
    assert media.record_crcs.misses == misses


def test_replaced_clip_is_served_with_fresh_crcs():
    """``add_clip`` under the same name with new pixels: the next fetch
    decodes cleanly and matches a fresh server's bytes.  Mirroring every
    frame keeps each frame's histogram, so the new binding has the same
    frame indices, transform keys and headers as the old one; only the
    registration serial tells the two apart."""
    clip = _clip()
    mirrored = ArrayClip(np.ascontiguousarray(clip.pixels[:, :, ::-1]),
                         fps=clip.fps, name=clip.name)
    media = _media(clip)

    async def run(server_media, replace=None):
        async with AnnotationStreamServer(server_media) as server:
            if replace is not None:
                await _fetch(server.address, clip.name)
                server_media.add_clip(replace)
                misses = server_media.record_crcs.misses
                data = await _fetch(server.address, clip.name)
                return data, server_media.record_crcs.misses - misses
            return await _fetch(server.address, clip.name), None

    replaced, missed = asyncio.run(run(media, replace=mirrored))
    fresh, _ = asyncio.run(run(_media(mirrored)))
    replaced, fresh = _data_records(replaced), _data_records(fresh)
    assert replaced == fresh
    assert missed == mirrored.frame_count
    original = _encoded(_media(clip), clip.name)
    assert [r[:28] for r in original] == [r[:28] for r in fresh]
    assert original != fresh


def test_store_stays_at_its_bound_under_arbitrary_ambients(monkeypatch):
    """More distinct records than the bound allows, most of them from
    client-chosen ambient re-binds: the store evicts and never grows
    past its bound, and every CRC stays right."""
    bound = 24
    monkeypatch.setattr(media_server_module, "RECORD_CRC_ENTRIES", bound)
    clip = _clip()
    media = _media(clip)
    assert media.record_crcs.max_entries == bound
    session = media.open_session(
        SessionRequest(clip.name, QUALITY, ClientCapabilities(DEVICE))
    )
    boundary = media.build_stream(session).next_scene_start(clip.frame_count // 3)
    assert 0 < boundary < clip.frame_count
    rng = random.Random(7)
    for _ in range(12):
        ambient = f"{rng.uniform(0.0, 3.0):.5f}"
        _encoded(media, clip.name, plan=((boundary, QUALITY, ambient),))
        assert len(media.record_crcs) <= bound
    assert len(media.record_crcs) == bound
    assert media.record_crcs.evictions > 0


@pytest.mark.parametrize("policy", ["hebs", "spatial"])
def test_lut_and_spatial_streams_use_the_store(policy):
    clip = _clip()
    media = _media(clip, policy=policy)
    first = _encoded(media, clip.name)
    hits = media.record_crcs.hits
    second = _encoded(media, clip.name)
    assert first == second
    assert media.record_crcs.hits - hits == clip.frame_count
    assert len(media.record_crcs) == clip.frame_count


def test_concurrent_encoders_share_one_bounded_store(monkeypatch):
    """Encoder threads race on one evicting store, as a server's compute
    executor does (more threads than cores, a short switch interval):
    every CRC stays right and the store never passes its bound."""
    bound = 64  # more than one stream's frames, fewer than four streams'
    monkeypatch.setattr(media_server_module, "RECORD_CRC_ENTRIES", bound)
    clip = _clip()
    media = _media(clip)
    errors = []

    def encode(quality):
        try:
            for _ in range(3):
                _encoded(media, clip.name, quality=quality)
                assert len(media.record_crcs) <= bound
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=encode, args=(q,))
               for q in (0.05, 0.1, 0.15, 0.2, 0.05, 0.1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(media.record_crcs) == bound
    assert media.record_crcs.hits > 0 and media.record_crcs.evictions > 0
