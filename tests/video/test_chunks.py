"""Unit tests for repro.video.chunks — batched frame planes."""

import numpy as np
import pytest

from repro.video import (
    ArrayClip,
    DEFAULT_CHUNK_SIZE,
    Frame,
    FrameChunk,
    HeterogeneousFrameError,
    VideoClip,
    chunk_spans,
)


def random_batch(n, h=9, w=7, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8)


class TestChunkSpans:
    def test_exact_division(self):
        assert list(chunk_spans(8, 4)) == [(0, 4), (4, 8)]

    def test_remainder(self):
        assert list(chunk_spans(10, 4)) == [(0, 4), (4, 8), (8, 10)]

    def test_oversized_chunk(self):
        assert list(chunk_spans(3, 100)) == [(0, 3)]

    def test_empty(self):
        assert list(chunk_spans(0, 4)) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            list(chunk_spans(-1, 4))
        with pytest.raises(ValueError):
            list(chunk_spans(4, 0))

    def test_lead_shrinks_first_span_only(self):
        assert list(chunk_spans(10, 4, lead=2)) == [(0, 2), (2, 6), (6, 10)]

    def test_lead_covers_every_frame_exactly_once(self):
        for n in (0, 1, 5, 17):
            for lead in (1, 3, 8, 100):
                spans = list(chunk_spans(n, 4, lead=lead))
                covered = [i for lo, hi in spans for i in range(lo, hi)]
                assert covered == list(range(n)), (n, lead)

    def test_lead_larger_than_clip_degenerates(self):
        assert list(chunk_spans(3, 4, lead=100)) == [(0, 3)]

    def test_lead_none_is_identity(self):
        assert list(chunk_spans(10, 4, lead=None)) == list(chunk_spans(10, 4))

    def test_lead_invalid(self):
        with pytest.raises(ValueError):
            list(chunk_spans(10, 4, lead=0))

    def test_clip_iter_chunks_honors_lead(self):
        pixels = random_batch(10)
        clip = ArrayClip(pixels, fps=24.0, name="lead")
        chunks = list(clip.iter_chunks(4, lead=2))
        assert [(c.start, c.stop) for c in chunks] == [(0, 2), (2, 6), (6, 10)]
        assert np.array_equal(
            np.concatenate([c.pixels for c in chunks]), pixels
        )


class TestFrameChunk:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameChunk(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            FrameChunk(np.zeros((2, 4, 4, 3), dtype=np.float64))
        with pytest.raises(ValueError):
            FrameChunk(np.zeros((0, 4, 4, 3), dtype=np.uint8))

    def test_geometry(self):
        chunk = FrameChunk(random_batch(5, h=9, w=7), start=12)
        assert len(chunk) == 5
        assert chunk.stop == 17
        assert list(chunk.indices) == [12, 13, 14, 15, 16]
        assert chunk.frame_shape == (9, 7)

    def test_planes_match_per_frame(self):
        batch = random_batch(6)
        chunk = FrameChunk(batch, start=3)
        for k in range(6):
            frame = Frame(batch[k])
            assert np.array_equal(chunk.luminance[k], frame.luminance)
            assert np.array_equal(
                chunk.peak_channel_u8[k], batch[k].max(axis=-1)
            )

    def test_luminance_codes_match_quantization(self):
        batch = random_batch(4, seed=5)
        chunk = FrameChunk(batch)
        codes = chunk.luminance_codes()
        for k in range(4):
            frame = Frame(batch[k])
            expected = np.round(np.clip(frame.luminance, 0.0, 1.0) * 255)
            assert np.array_equal(codes[k], expected.astype(np.int64))

    def test_from_frames_roundtrip(self):
        batch = random_batch(3)
        frames = [Frame(batch[k], index=10 + k) for k in range(3)]
        chunk = FrameChunk.from_frames(frames, start=10)
        assert np.array_equal(chunk.pixels, batch)
        out = chunk.frames()
        assert [f.index for f in out] == [10, 11, 12]
        assert np.array_equal(out[1].pixels, batch[1])

    def test_from_frames_mixed_resolutions(self):
        frames = [
            Frame(np.zeros((4, 4, 3), dtype=np.uint8)),
            Frame(np.zeros((4, 5, 3), dtype=np.uint8)),
        ]
        with pytest.raises(HeterogeneousFrameError):
            FrameChunk.from_frames(frames)

    def test_frame_inherits_computed_planes(self):
        chunk = FrameChunk(random_batch(2))
        lum = chunk.luminance
        frame = chunk.frame(0)
        assert frame._luminance is not None
        assert np.array_equal(frame.luminance, lum[0])

    def test_frame_offset_bounds(self):
        chunk = FrameChunk(random_batch(2))
        with pytest.raises(IndexError):
            chunk.frame(2)


class TestClipChunking:
    def test_videoclip_chunks_cover_clip(self):
        batch = random_batch(11)
        clip = VideoClip([Frame(batch[k]) for k in range(11)], name="v")
        chunks = list(clip.iter_chunks(chunk_size=4))
        assert [c.start for c in chunks] == [0, 4, 8]
        assert np.array_equal(np.concatenate([c.pixels for c in chunks]), batch)

    def test_arrayclip_chunks_are_views(self):
        batch = random_batch(10)
        clip = ArrayClip(batch, name="a")
        chunk = next(clip.iter_chunks(chunk_size=4))
        assert chunk.pixels.base is clip.pixels

    def test_arrayclip_from_clip(self):
        batch = random_batch(7)
        eager = VideoClip([Frame(batch[k]) for k in range(7)], fps=24.0, name="v")
        arr = ArrayClip.from_clip(eager)
        assert arr.fps == 24.0
        assert arr.name == "v"
        assert np.array_equal(arr.pixels, batch)
        assert arr.resolution == (7, 9)

    def test_arrayclip_float_quantization(self):
        floats = np.full((2, 3, 3, 3), 0.5)
        clip = ArrayClip(floats)
        assert np.array_equal(clip.pixels, Frame(floats[0]).pixels[None].repeat(2, 0))

    def test_default_iter_chunks_on_lazy(self, tiny_clip):
        chunks = list(tiny_clip.iter_chunks(chunk_size=10))
        assert sum(len(c) for c in chunks) == tiny_clip.frame_count
        assert np.array_equal(chunks[0].pixels[3], tiny_clip.frame(3).pixels)
