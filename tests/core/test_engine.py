"""Engine equivalence: every execution engine is bit-identical.

The chunked engine is only allowed to be the default because it produces
byte-for-byte the same FrameStats, histograms, compensated pixels and
clipped fractions as the paper-literal per-frame path.  These tests pin
that contract, including the awkward geometries: chunk_size 1, odd
remainders, and chunk_size larger than the clip — and they pin when the
chunked engine spreads chunks over its shared thread pool.
"""

import multiprocessing
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.engine as engine_module
from repro.core import (
    ENGINE_KINDS,
    AnnotatedStream,
    AnnotationPipeline,
    EngineConfig,
    SchemeParameters,
    StreamAnalyzer,
    contrast_enhancement,
    contrast_enhancement_batch,
    map_chunks,
    resolve_engine,
    shutdown_pools,
)
from repro.display import ipaq_5555
from repro.telemetry import registry
from repro.video import (
    DEFAULT_CHUNK_SIZE,
    ArrayClip,
    Frame,
    FrameChunk,
    VideoClip,
    autotune_chunk_size,
)
from repro.video.chunks import MAX_AUTOTUNE_CHUNK, MIN_AUTOTUNE_CHUNK

# Small random clips: N frames of identical (H, W), arbitrary uint8 content.
clip_batches = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 12), st.integers(2, 10), st.integers(2, 10), st.just(3)),
    elements=st.integers(0, 255),
)

chunk_sizes = st.integers(1, 20)


def cores(n):
    """Pretend the host has ``n`` cores (the pooled path needs two)."""
    return mock.patch.object(engine_module, "_cpu_count", return_value=n)


def random_clip(frames=37, height=20, width=28, seed=42):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(frames, height, width, 3), dtype=np.uint8)
    return ArrayClip(pixels, fps=24.0, name="rand")


def assert_stats_identical(a, b):
    assert a.index == b.index
    assert a.max_luminance == b.max_luminance
    assert a.max_channel_value == b.max_channel_value
    assert a.mean_luminance == b.mean_luminance
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    assert np.array_equal(a.channel_histogram.counts, b.channel_histogram.counts)


class TestAnalyzerEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(batch=clip_batches, chunk_size=chunk_sizes)
    def test_chunked_bit_identical_to_perframe(self, batch, chunk_size):
        clip = ArrayClip(batch, name="prop")
        reference = StreamAnalyzer("perframe").analyze(clip)
        chunked = StreamAnalyzer(EngineConfig(kind="chunked", chunk_size=chunk_size)).analyze(clip)
        assert len(chunked) == len(reference)
        for ref, got in zip(reference, chunked):
            assert_stats_identical(ref, got)

    @settings(max_examples=10, deadline=None)
    @given(batch=clip_batches)
    def test_threads_bit_identical_to_perframe(self, batch):
        clip = ArrayClip(batch, name="prop")
        reference = StreamAnalyzer("perframe").analyze(clip)
        with cores(2):
            threaded = StreamAnalyzer(EngineConfig(chunk_size=3)).analyze(clip)
        assert len(threaded) == len(reference)
        for ref, got in zip(reference, threaded):
            assert_stats_identical(ref, got)

    def test_chunk_size_larger_than_clip(self):
        rng = np.random.default_rng(0)
        clip = ArrayClip(rng.integers(0, 256, (5, 6, 6, 3), dtype=np.uint8))
        reference = StreamAnalyzer("perframe").analyze(clip)
        got = StreamAnalyzer(EngineConfig(chunk_size=1000)).analyze(clip)
        for ref, g in zip(reference, got):
            assert_stats_identical(ref, g)

    def test_analyze_frames_preserves_indices(self):
        rng = np.random.default_rng(1)
        frames = [
            Frame(rng.integers(0, 256, (5, 5, 3), dtype=np.uint8), index=i)
            for i in (7, 2, 19, 4)
        ]
        stats = StreamAnalyzer().analyze_frames(frames)
        assert [s.index for s in stats] == [7, 2, 19, 4]
        reference = StreamAnalyzer("perframe").analyze_frames(frames)
        for ref, got in zip(reference, stats):
            assert_stats_identical(ref, got)

    def test_heterogeneous_stream_falls_back(self):
        rng = np.random.default_rng(2)
        frames = [
            Frame(rng.integers(0, 256, (4, 4, 3), dtype=np.uint8), index=0),
            Frame(rng.integers(0, 256, (6, 5, 3), dtype=np.uint8), index=1),
        ]
        stats = StreamAnalyzer().analyze_frames(frames)
        reference = StreamAnalyzer("perframe").analyze_frames(frames)
        for ref, got in zip(reference, stats):
            assert_stats_identical(ref, got)

    def test_empty_stream_raises_for_all_engines(self):
        for engine in ENGINE_KINDS:
            with pytest.raises(ValueError):
                StreamAnalyzer(engine).analyze_frames([])

    def test_library_clip_matches(self, library_clip):
        reference = StreamAnalyzer("perframe").analyze(library_clip)
        chunked = StreamAnalyzer().analyze(library_clip)
        for ref, got in zip(reference, chunked):
            assert_stats_identical(ref, got)


class TestEngineResolution:
    def test_default_is_chunked(self):
        assert resolve_engine(None).kind == "chunked"

    def test_string_and_config_pass_through(self):
        assert resolve_engine("perframe").kind == "perframe"
        config = EngineConfig(kind="perframe")
        assert resolve_engine(config) is config

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            resolve_engine("warp")
        with pytest.raises(TypeError):
            resolve_engine(42)
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=0)

    @pytest.mark.parametrize("kind", ["threads", "processes"])
    def test_retired_kinds_rejected(self, kind):
        with pytest.raises(ValueError):
            EngineConfig(kind=kind)


def _profile_and_exit(clip):
    StreamAnalyzer(EngineConfig(chunk_size=4)).analyze(clip)


class TestChunkPool:
    @staticmethod
    def thread_ids(chunks, ncores):
        with cores(ncores):
            return map_chunks(EngineConfig(), lambda _: threading.get_ident(), chunks)

    def test_multi_chunk_pass_runs_on_the_pool(self):
        assert threading.get_ident() not in self.thread_ids(range(6), 2)

    def test_single_chunk_pass_runs_inline(self):
        assert self.thread_ids([0], 2) == [threading.get_ident()]

    def test_one_core_runs_inline(self):
        assert set(self.thread_ids(range(6), 1)) == {threading.get_ident()}

    def test_order_preserved(self):
        with cores(2):
            assert map_chunks(EngineConfig(), lambda c: c * 2, range(50)) == [
                c * 2 for c in range(50)
            ]

    def test_thread_pool_reused_across_calls(self):
        assert engine_module.shared_thread_pool() is engine_module.shared_thread_pool()

    def test_shutdown_recreates_lazily(self):
        before = engine_module.shared_thread_pool()
        shutdown_pools()
        after = engine_module.shared_thread_pool()
        assert after is not before
        assert after.submit(lambda: 21 * 2).result() == 42

    def test_threaded_pass_counts_every_frame(self):
        """Frame counts must not race on pool threads: more workers than
        cores, one-frame chunks and a tiny switch interval."""
        clip = random_clip()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with cores(8):
                shutdown_pools()  # re-create the pool with 8 workers
                StreamAnalyzer(EngineConfig(chunk_size=1)).analyze(clip)
        finally:
            sys.setswitchinterval(interval)
            shutdown_pools()
        frames = registry().series("repro_engine_frames_total")
        assert sum(m.value for m in frames) == clip.frame_count
        chunks = registry().get("repro_engine_chunks_total", labels={"kind": "chunked"})
        assert chunks.value == clip.frame_count

    def test_forked_child_profiles_after_parent_used_the_pool(self):
        """A fork inherits the pool object but not its worker threads."""
        clip = random_clip(frames=24)
        with cores(2):
            StreamAnalyzer(EngineConfig(chunk_size=4)).analyze(clip)
            child = multiprocessing.get_context("fork").Process(
                target=_profile_and_exit, args=(clip,)
            )
            child.start()
            child.join(timeout=20)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung profiling on the inherited pool")
        assert child.exitcode == 0


class TestAutotuner:
    def test_bounds(self):
        assert autotune_chunk_size(1, 1) == MAX_AUTOTUNE_CHUNK
        assert autotune_chunk_size(4000, 4000) == MIN_AUTOTUNE_CHUNK

    def test_monotone_in_frame_area(self):
        sizes = [autotune_chunk_size(h, h) for h in (16, 64, 256, 1024, 4096)]
        assert sizes == sorted(sizes, reverse=True)

    def test_explicit_target_bytes(self):
        # 100x100x3 bytes/frame * 8 bytes of float64 scratch per byte
        per_frame = 100 * 100 * 3 * 8
        assert autotune_chunk_size(100, 100, target_bytes=per_frame * 20) == 20

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            autotune_chunk_size(0, 100)
        with pytest.raises(ValueError):
            autotune_chunk_size(100, 100, target_bytes=0)

    def test_engine_config_resolution(self):
        config = EngineConfig()
        assert config.resolved_chunk_size(None) == DEFAULT_CHUNK_SIZE
        assert config.resolved_chunk_size((24, 32)) == autotune_chunk_size(24, 32)
        pinned = EngineConfig(chunk_size=7)
        assert pinned.resolved_chunk_size((24, 32)) == 7
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=0)


class TestBatchedCompensation:
    @settings(max_examples=30, deadline=None)
    @given(
        batch=clip_batches,
        gain=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    )
    def test_batch_matches_per_frame(self, batch, gain):
        pixels, fractions = contrast_enhancement_batch(batch, gain)
        for k in range(batch.shape[0]):
            reference = contrast_enhancement(Frame(batch[k]), gain)
            assert np.array_equal(pixels[k], reference.frame.pixels)
            assert fractions[k] == reference.clipped_fraction

    def test_per_frame_gains_and_passthrough(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 256, (4, 6, 6, 3), dtype=np.uint8)
        gains = np.array([1.0, 2.0, 0.5, 3.0])
        pixels, fractions = contrast_enhancement_batch(batch, gains)
        # gain <= 1 rows pass through untouched with zero clipping
        assert np.array_equal(pixels[0], batch[0])
        assert np.array_equal(pixels[2], batch[2])
        assert fractions[0] == 0.0 and fractions[2] == 0.0
        for k in (1, 3):
            reference = contrast_enhancement(Frame(batch[k]), float(gains[k]))
            assert np.array_equal(pixels[k], reference.frame.pixels)
            assert fractions[k] == reference.clipped_fraction

    def test_rejects_bad_inputs(self):
        batch = np.zeros((2, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            contrast_enhancement_batch(batch, 0.0)
        with pytest.raises(ValueError):
            contrast_enhancement_batch(batch, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            contrast_enhancement_batch(batch.astype(np.float64), 2.0)
        with pytest.raises(ValueError):
            contrast_enhancement_batch(batch[0], 2.0)

    def test_output_is_fresh_memory(self):
        batch = np.full((2, 4, 4, 3), 100, dtype=np.uint8)
        pixels, _ = contrast_enhancement_batch(batch, 1.0)
        pixels[...] = 0
        assert batch[0, 0, 0, 0] == 100


class TestAnnotatedStreamEquivalence:
    PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)

    def build_streams(self, clip):
        device = ipaq_5555()
        chunked = AnnotationPipeline(self.PARAMS).build_stream(clip, device)
        perframe = AnnotationPipeline(self.PARAMS, engine="perframe").build_stream(
            clip, device
        )
        return chunked, perframe

    @staticmethod
    def mixed_resolution(library_clip):
        """``library_clip`` with its second half cropped to a smaller size."""
        half = library_clip.frame_count // 2
        return VideoClip(
            [
                Frame(f.pixels if i < half else f.pixels[:-4, :-6].copy(), index=i)
                for i, f in enumerate(library_clip)
            ],
            fps=library_clip.fps,
            name="mixed",
        )

    def test_iteration_matches_per_frame_api(self, library_clip):
        clip = ArrayClip.from_clip(library_clip)
        stream, reference = self.build_streams(clip)
        for i, (frame, level) in enumerate(stream):
            ref = reference.compensated_frame(i)
            assert frame.index == i
            assert np.array_equal(frame.pixels, ref.frame.pixels)
            assert level == int(reference.backlight_levels()[i])

    def test_iter_chunks_fractions_match(self, library_clip):
        clip = ArrayClip.from_clip(library_clip)
        stream, reference = self.build_streams(clip)
        for chunk in stream.iter_chunks(chunk_size=7):
            for k in range(len(chunk)):
                ref = reference.compensated_frame(chunk.start + k)
                assert chunk.clipped_fractions[k] == ref.clipped_fraction
                assert np.array_equal(chunk.frame(k).pixels, ref.frame.pixels)
        # iter_chunks is total: a clip that switches resolution halfway
        # finishes on the per-frame path (from any start, under any
        # lead), and perframe-built streams take that path throughout.
        half = library_clip.frame_count // 2
        mixed = self.mixed_resolution(library_clip)
        for clip in (ArrayClip.from_clip(library_clip), mixed):
            stream, reference = self.build_streams(clip)
            levels = reference.backlight_levels()
            assert all(
                not isinstance(c.pixels, np.ndarray) for c in reference.iter_chunks()
            )
            for candidate in (stream, reference):
                for start, lead in (
                    (0, None), (half - 3, None), (0, 3), (half - 5, 4), (half - 1, 3)
                ):
                    chunks = list(
                        candidate.iter_chunks(chunk_size=7, lead=lead, start=start)
                    )
                    if lead is not None:
                        assert len(chunks[0]) == lead
                    assert [c.start for c in chunks] == [start] + [
                        c.stop for c in chunks[:-1]
                    ]
                    assert chunks[-1].stop == clip.frame_count
                    for chunk in chunks:
                        for k in range(len(chunk)):
                            i = chunk.start + k
                            ref = reference.compensated_frame(i)
                            assert chunk.clipped_fractions[k] == ref.clipped_fraction
                            assert chunk.levels[k] == levels[i]
                            assert chunk.frame(k).index == i
                            assert np.array_equal(
                                chunk.frame(k).pixels, ref.frame.pixels
                            )

    def test_mean_clipped_fraction_matches_reference(self, library_clip):
        """Every source of the clipped-fraction array agrees with
        :meth:`AnnotatedStream.compensated_frame` at each sampling step:
        profile histograms, a complete ``iter_chunks`` pass (profile-less,
        HEBS, mixed resolutions) and the sampled per-frame reads."""
        device = ipaq_5555()
        clip = ArrayClip.from_clip(library_clip)
        mixed = self.mixed_resolution(library_clip)
        profiled, _ = self.build_streams(clip)
        makers = {
            "profiled": lambda: self.build_streams(clip)[0],
            "profile-less": lambda: AnnotatedStream(
                clip=clip, track=profiled.track, device=device
            ),
            "hebs": lambda: AnnotationPipeline(self.PARAMS, policy="hebs")
            .build_stream(clip, device),
            "mixed-resolution": lambda: self.build_streams(mixed)[0],
        }
        for name, make in makers.items():
            reference = make()
            expected = {
                k: float(np.mean([
                    reference.compensated_frame(i).clipped_fraction
                    for i in range(0, reference.frame_count, k)
                ]))
                for k in (1, 3)
            }
            assert expected[1] > 0.0, name
            for sample_every in (1, 3):
                stream = make()
                assert stream.mean_clipped_fraction(sample_every) == expected[
                    sample_every], name
                # A repeated call reads what the first one left behind.
                assert stream.mean_clipped_fraction(sample_every) == expected[
                    sample_every], name
            # Once the full array exists, sampled calls slice it.
            stream = make()
            stream.mean_clipped_fraction()
            assert stream.mean_clipped_fraction(3) == expected[3], name
