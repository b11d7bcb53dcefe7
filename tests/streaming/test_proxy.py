"""Unit tests for repro.streaming.proxy."""

import numpy as np
import pytest

from repro.core import AnnotationPipeline, ProfileCache, SchemeParameters
from repro.display import ipaq_5555
from repro.streaming import PacketType, TranscodingProxy
from repro.video import Frame, VideoClip


@pytest.fixture
def device():
    return ipaq_5555()


@pytest.fixture
def proxy(device, fast_params):
    return TranscodingProxy(device, fast_params, chunk_frames=12)


class TestAnnotateLive:
    def test_yields_one_output_per_frame(self, proxy, tiny_clip):
        outputs = list(proxy.annotate_live(iter(tiny_clip), fps=tiny_clip.fps))
        assert len(outputs) == tiny_clip.frame_count

    def test_global_frame_indices(self, proxy, tiny_clip):
        outputs = list(proxy.annotate_live(iter(tiny_clip), fps=tiny_clip.fps))
        assert [frame.index for frame, _, _ in outputs] == list(range(36))

    def test_levels_valid(self, proxy, tiny_clip):
        for _frame, level, gain in proxy.annotate_live(iter(tiny_clip), fps=30.0):
            assert 0 <= level <= 255
            assert gain >= 1.0

    def test_dark_frames_dimmed(self, proxy, tiny_clip):
        outputs = list(proxy.annotate_live(iter(tiny_clip), fps=30.0))
        dark_level = outputs[3][1]
        bright_level = outputs[18][1]
        assert dark_level < bright_level

    def test_partial_final_chunk_handled(self, device, fast_params, tiny_clip):
        proxy = TranscodingProxy(device, fast_params, chunk_frames=10)  # 36 = 3*10+6
        outputs = list(proxy.annotate_live(iter(tiny_clip), fps=30.0))
        assert len(outputs) == 36


class TestProcessPackets:
    def test_annotation_packet_per_chunk(self, proxy, tiny_clip):
        packets = list(proxy.process(iter(tiny_clip), fps=30.0))
        ann = [p for p in packets if p.ptype is PacketType.ANNOTATION]
        frames = [p for p in packets if p.ptype is PacketType.FRAME]
        assert len(ann) == 3  # 36 frames / 12-frame chunks
        assert len(frames) == 36

    def test_annotation_precedes_its_chunk(self, proxy, tiny_clip):
        packets = list(proxy.process(iter(tiny_clip), fps=30.0))
        assert packets[0].ptype is PacketType.ANNOTATION
        # the second annotation arrives right after the first 12 frames
        assert packets[13].ptype is PacketType.ANNOTATION

    def test_frame_indices_global(self, proxy, tiny_clip):
        packets = list(proxy.process(iter(tiny_clip), fps=30.0))
        indices = [p.frame_index for p in packets if p.ptype is PacketType.FRAME]
        assert indices == list(range(36))


class TestProxyVsServer:
    def test_savings_close_to_offline(self, device, fast_params, library_clip):
        """Chunked on-the-fly annotation lands near the full-clip offline
        pipeline (scenes cannot span chunks, so it may differ slightly)."""
        pipeline = AnnotationPipeline(fast_params)
        offline = pipeline.build_stream(library_clip, device)
        proxy = TranscodingProxy(device, fast_params, chunk_frames=20)
        levels = np.array([
            level for _f, level, _g in proxy.annotate_live(iter(library_clip), fps=30.0)
        ])
        from repro.power import simulated_backlight_savings
        online = simulated_backlight_savings(levels, device)
        assert online == pytest.approx(offline.predicted_backlight_savings(), abs=0.12)

    def test_chunk_latency(self, device, fast_params):
        proxy = TranscodingProxy(device, fast_params, chunk_frames=60)
        assert proxy.chunk_latency_s(30.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            proxy.chunk_latency_s(0.0)

    def test_invalid_chunk_size(self, device, fast_params):
        with pytest.raises(ValueError):
            TranscodingProxy(device, fast_params, chunk_frames=0)


def _mixed_frames(n=24, seed=9):
    """Dark-ish random frames whose resolution changes mid-window."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        shape = (12, 16, 3) if i % 12 < 6 else (8, 10, 3)
        ceiling = 60 if i < 12 else 256
        frames.append(Frame(rng.integers(0, ceiling, size=shape, dtype=np.uint8), index=i))
    return frames


class TestMixedResolution:
    def test_live_window_matches_per_frame_reference(self, device, fast_params):
        frames = _mixed_frames()
        proxy = TranscodingProxy(device, fast_params, chunk_frames=12)
        outputs = list(proxy.annotate_live(iter(frames), fps=30.0))
        assert len(outputs) == len(frames)
        assert any(gain > 1.0 for _f, _l, gain in outputs)
        pipeline = AnnotationPipeline(fast_params)
        for w in range(2):
            window = VideoClip(frames[12 * w : 12 * (w + 1)], fps=30.0, name="live")
            reference = pipeline.build_stream(window, device)
            levels = reference.backlight_levels()
            gains = reference.track.per_frame_gains()
            for k in range(12):
                frame, level, gain = outputs[12 * w + k]
                assert frame.index == 12 * w + k
                assert np.array_equal(
                    frame.pixels, reference.compensated_frame(k).frame.pixels
                )
                assert level == int(levels[k])
                assert gain == float(gains[k])

    @pytest.mark.parametrize("mixed", [False, True])
    def test_perframe_engine_packets_identical(self, device, fast_params, tiny_clip, mixed):
        frames = _mixed_frames() if mixed else list(tiny_clip)

        def packets(engine):
            proxy = TranscodingProxy(
                device, fast_params, chunk_frames=12, engine=engine,
                profile_cache=ProfileCache(max_entries=4),
            )
            return list(proxy.process(iter(frames), fps=30.0))

        reference, candidate = packets("perframe"), packets("chunked")
        assert len(candidate) == len(reference)
        for ref, got in zip(reference, candidate):
            assert (got.ptype, got.seq) == (ref.ptype, ref.seq)
            if ref.ptype is PacketType.ANNOTATION:
                assert got.payload == ref.payload
            else:
                assert got.frame_index == ref.frame_index
                assert got.frame.index == ref.frame.index
                assert np.array_equal(got.frame.pixels, ref.frame.pixels)
