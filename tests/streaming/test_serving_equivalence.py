"""Bit-identity of the serving path across execution engines.

The chunked packet emission in :meth:`MediaServer.stream` must be
invisible on the wire: annotation payloads, frame pixels, sequence
numbers, frame indices and wire sizes all byte-identical to the
per-frame reference emission, for every engine kind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ENGINE_KINDS, ProfileCache, SchemeParameters
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.video import ArrayClip, CodecModel, VideoClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)


def _server(clip, engine, **kwargs):
    # Each engine gets its own cache: the content-keyed shared cache would
    # let one engine serve another's profiling results, masking bugs.
    server = MediaServer(
        params=FAST_PARAMS,
        engine=engine,
        profile_cache=ProfileCache(max_entries=4),
        **kwargs,
    )
    server.add_clip(clip)
    return server


def _packets(server, clip, quality=0.05):
    request = SessionRequest(clip.name, quality, ClientCapabilities("ipaq5555"))
    session = server.open_session(request)
    return list(server.stream(session))


def _assert_streams_identical(reference, candidate, kind):
    assert len(candidate) == len(reference), kind
    for ref, got in zip(reference, candidate):
        assert got.ptype is ref.ptype, kind
        assert got.seq == ref.seq, kind
        if ref.ptype is PacketType.ANNOTATION:
            assert got.payload == ref.payload, kind
        elif ref.ptype is PacketType.FRAME:
            assert got.frame_index == ref.frame_index, kind
            assert got.wire_bytes == ref.wire_bytes, kind
            assert got.frame.index == ref.frame.index, kind
            assert np.array_equal(got.frame.pixels, ref.frame.pixels), kind


clip_arrays = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.builds(
        lambda n, h, w: np.random.default_rng(seed).integers(
            0, 256, size=(n, h, w, 3), dtype=np.uint8
        ),
        st.integers(3, 40),
        st.integers(4, 24),
        st.integers(4, 24),
    )
)


class TestServingBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(pixels=clip_arrays)
    def test_all_engines_emit_identical_packets(self, pixels):
        clips = {
            kind: ArrayClip(pixels.copy(), fps=24.0, name="prop")
            for kind in ENGINE_KINDS
        }
        reference = _packets(_server(clips["perframe"], "perframe"), clips["perframe"])
        assert reference[0].ptype is PacketType.ANNOTATION
        for kind in ENGINE_KINDS[1:]:
            candidate = _packets(_server(clips[kind], kind), clips[kind])
            _assert_streams_identical(reference, candidate, kind)

    def test_library_clip_identical_with_codec(self, library_clip):
        codec = CodecModel()
        reference = _packets(
            _server(library_clip, "perframe", codec=codec), library_clip
        )
        frame_packets = [p for p in reference if p.ptype is PacketType.FRAME]
        assert frame_packets and all(p.wire_bytes is not None for p in frame_packets)
        for kind in ENGINE_KINDS[1:]:
            candidate = _packets(
                _server(library_clip, kind, codec=codec), library_clip
            )
            _assert_streams_identical(reference, candidate, kind)

    def test_heterogeneous_clip_falls_back_per_frame(self):
        # Mixed resolutions cannot batch; the stream must still complete
        # and match the reference emission exactly.
        rng = np.random.default_rng(5)
        frames = [rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8) for _ in range(4)]
        frames += [rng.integers(0, 256, size=(8, 10, 3), dtype=np.uint8) for _ in range(4)]
        clips = {
            kind: VideoClip([f.copy() for f in frames], fps=24.0, name="mixed")
            for kind in ("perframe", "chunked")
        }
        reference = _packets(_server(clips["perframe"], "perframe"), clips["perframe"])
        candidate = _packets(_server(clips["chunked"], "chunked"), clips["chunked"])
        _assert_streams_identical(reference, candidate, "chunked")
        assert sum(p.ptype is PacketType.FRAME for p in candidate) == len(frames)

    def test_frame_packets_are_their_lut_buffers(self, tiny_clip):
        # Chunked emission copies no pixels after the LUT lookup: each
        # compensated frame packet views the bytearray the lookup wrote,
        # and no two packets share a buffer.
        packets = _packets(_server(tiny_clip, "chunked"), tiny_clip)
        frames = [p.frame for p in packets if p.ptype is PacketType.FRAME]
        assert len(frames) == tiny_clip.frame_count
        owners = []
        for frame in frames:
            owner = frame.pixels
            while owner is not None and not isinstance(owner, bytearray):
                owner = (owner.obj if isinstance(owner, memoryview)
                         else owner.base)
            owners.append(owner if owner is not None else frame.pixels)
        assert any(isinstance(owner, bytearray) for owner in owners)
        assert len({id(owner) for owner in owners}) == len(frames)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_counter_matches_frames(self, kind, tiny_clip):
        from repro import telemetry

        server = _server(tiny_clip, kind)
        _packets(server, tiny_clip)
        counter = telemetry.registry().get("repro_server_frames_streamed_total")
        assert counter.value == tiny_clip.frame_count


def _materialize(packet):
    """Snapshot a packet's identity + payload bytes (frames copied).

    ``stream_batches`` reuses its compensation arena, so frame pixels
    must be copied before the generator is advanced — exactly the
    consumption contract the wire producer follows.
    """
    if packet.ptype is PacketType.FRAME:
        return (
            packet.ptype,
            packet.seq,
            packet.frame_index,
            packet.wire_bytes,
            packet.frame.pixels.copy(),
        )
    return (packet.ptype, packet.seq, packet.payload)


def _collect_batches(server, clip, quality=0.05, **kwargs):
    request = SessionRequest(clip.name, quality, ClientCapabilities("ipaq5555"))
    session = server.open_session(request)
    batches = []
    for batch in server.stream_batches(session, **kwargs):
        batches.append([_materialize(p) for p in batch])
    return batches


def _assert_same_packets(flat, reference, kind):
    assert len(flat) == len(reference), kind
    for got, ref_packet in zip(flat, reference):
        ref = _materialize(ref_packet)
        assert got[:4] == ref[:4] if ref[0] is PacketType.FRAME else got == ref, kind
        if ref[0] is PacketType.FRAME:
            assert np.array_equal(got[4], ref[4]), kind


class TestStreamBatches:
    """The wire-oriented batch emission against the per-packet reference."""

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_batches_flatten_to_stream(self, kind, tiny_clip):
        reference = _packets(_server(tiny_clip, kind), tiny_clip)
        flat = [
            p
            for batch in _collect_batches(_server(tiny_clip, kind), tiny_clip)
            for p in batch
        ]
        _assert_same_packets(flat, reference, kind)

    def test_head_batch_is_annotation_only(self, tiny_clip):
        batches = _collect_batches(_server(tiny_clip, "chunked"), tiny_clip)
        assert batches[0], "head batch must not be empty"
        assert all(p[0] is PacketType.ANNOTATION for p in batches[0])
        assert all(
            p[0] is PacketType.FRAME for batch in batches[1:] for p in batch
        )

    def test_lead_chunk_bounds_first_frame_batch(self, tiny_clip):
        from repro.streaming.server import LEAD_CHUNK_FRAMES

        batches = _collect_batches(_server(tiny_clip, "chunked"), tiny_clip)
        assert len(batches[1]) <= LEAD_CHUNK_FRAMES
        # Custom leads are honored, and lead=None restores full chunks.
        batches = _collect_batches(
            _server(tiny_clip, "chunked"), tiny_clip, lead_chunk_frames=3
        )
        assert len(batches[1]) == 3
        batches = _collect_batches(
            _server(tiny_clip, "chunked"), tiny_clip, lead_chunk_frames=None
        )
        assert len(batches[1]) > LEAD_CHUNK_FRAMES

    def test_heterogeneous_clip_batches_fall_back(self):
        rng = np.random.default_rng(5)
        frames = [rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8) for _ in range(4)]
        frames += [rng.integers(0, 256, size=(8, 10, 3), dtype=np.uint8) for _ in range(4)]
        clip_a = VideoClip([f.copy() for f in frames], fps=24.0, name="mixed")
        clip_b = VideoClip([f.copy() for f in frames], fps=24.0, name="mixed")
        reference = _packets(_server(clip_a, "chunked"), clip_a)
        flat = [
            p
            for batch in _collect_batches(_server(clip_b, "chunked"), clip_b)
            for p in batch
        ]
        _assert_same_packets(flat, reference, "chunked-mixed")
