"""Unit tests for repro.core.pipeline — the end-to-end technique."""

import numpy as np
import pytest

from repro.core import (
    AnnotatedStream,
    AnnotationPipeline,
    SchemeParameters,
    sweep_quality_levels,
)
from repro.display import MAX_BACKLIGHT_LEVEL, ipaq_5555, ipaq_3650


@pytest.fixture
def device():
    return ipaq_5555()


@pytest.fixture
def pipeline(fast_params):
    return AnnotationPipeline(fast_params)


class TestProfile:
    def test_profile_products(self, pipeline, tiny_clip):
        profile = pipeline.profile(tiny_clip)
        assert len(profile.stats) == tiny_clip.frame_count
        assert profile.scenes[0].start == 0
        assert profile.scenes[-1].end == tiny_clip.frame_count

    def test_figure6_series_shapes(self, pipeline, tiny_clip):
        profile = pipeline.profile(tiny_clip)
        assert profile.max_luminance_series().shape == (tiny_clip.frame_count,)
        assert profile.scene_max_series().shape == (tiny_clip.frame_count,)

    def test_scene_max_dominates_frame_max(self, pipeline, library_clip):
        profile = pipeline.profile(library_clip)
        frame_max = np.array([s.max_value(True) for s in profile.stats])
        scene_max = profile.scene_max_series()
        assert np.all(scene_max >= frame_max - 1e-9)


class TestAnnotate:
    def test_track_metadata(self, pipeline, tiny_clip):
        track = pipeline.annotate(tiny_clip)
        assert track.clip_name == "tiny"
        assert track.frame_count == tiny_clip.frame_count
        assert track.quality == pipeline.params.quality

    def test_track_covers_clip(self, pipeline, tiny_clip):
        track = pipeline.annotate(tiny_clip)
        assert track.scenes[0].start == 0
        assert track.scenes[-1].end == tiny_clip.frame_count

    def test_profile_reuse(self, pipeline, tiny_clip):
        profile = pipeline.profile(tiny_clip)
        a = pipeline.annotate(tiny_clip, profile=profile)
        b = pipeline.annotate(tiny_clip)
        assert [(s.start, s.end) for s in a.scenes] == [(s.start, s.end) for s in b.scenes]

    def test_bright_scene_needs_more_light(self, pipeline, tiny_clip, device):
        track = pipeline.annotate_for_device(tiny_clip, device)
        levels = track.per_frame_levels()
        assert levels[18] > levels[3]  # bright middle scene vs dark opening


class TestAnnotatedStream:
    def test_iteration_yields_pairs(self, pipeline, tiny_clip, device):
        stream = pipeline.build_stream(tiny_clip, device)
        pairs = list(stream)
        assert len(pairs) == tiny_clip.frame_count
        frame, level = pairs[0]
        assert 0 <= level <= MAX_BACKLIGHT_LEVEL

    def test_quality_budget_enforced(self, device, library_clip):
        """The headline guarantee: compensated frames clip at most q."""
        for q in (0.0, 0.05, 0.10, 0.20):
            params = SchemeParameters(quality=q, min_scene_interval_frames=5)
            stream = AnnotationPipeline(params).build_stream(library_clip, device)
            for i in range(0, library_clip.frame_count, 5):
                clipped = stream.compensated_frame(i).clipped_fraction
                assert clipped <= q + 0.01, f"q={q} frame={i} clipped={clipped}"

    def test_lossless_never_clips(self, device, tiny_clip):
        params = SchemeParameters(quality=0.0, min_scene_interval_frames=5)
        stream = AnnotationPipeline(params).build_stream(tiny_clip, device)
        assert stream.mean_clipped_fraction() == 0.0

    def test_compensated_view_matches_original(self, pipeline, tiny_clip, device):
        """Perceived intensity preserved for unclipped pixels (the physics
        check on the full pipeline)."""
        from repro.display import render_frame
        stream = pipeline.build_stream(tiny_clip, device)
        i = 3
        original = tiny_clip.frame(i)
        comp = stream.compensated_frame(i).frame
        level = int(stream.backlight_levels()[i])
        ref_view = render_frame(original, MAX_BACKLIGHT_LEVEL, device)
        comp_view = render_frame(comp, level, device)
        unclipped = original.peak_channel * stream.track.per_frame_gains()[i] <= 1.0
        diff = np.abs(ref_view - comp_view)[unclipped]
        assert diff.max() < 0.03

    def test_savings_bounds(self, pipeline, tiny_clip, device):
        stream = pipeline.build_stream(tiny_clip, device)
        assert 0.0 <= stream.predicted_backlight_savings() < 1.0

    def test_instantaneous_savings_shape(self, pipeline, tiny_clip, device):
        stream = pipeline.build_stream(tiny_clip, device)
        inst = stream.instantaneous_savings()
        assert inst.shape == (tiny_clip.frame_count,)
        assert np.all((0.0 <= inst) & (inst <= 1.0))
        assert stream.predicted_backlight_savings() == pytest.approx(inst.mean(), abs=0.01)

    def test_track_clip_mismatch(self, pipeline, tiny_clip, library_clip, device):
        track = pipeline.annotate_for_device(tiny_clip, device)
        with pytest.raises(ValueError, match="frames"):
            AnnotatedStream(clip=library_clip, track=track, device=device)

    def test_repr(self, pipeline, tiny_clip, device):
        assert "tiny" in repr(pipeline.build_stream(tiny_clip, device))


class TestHistogramFractions:
    """Clipped fractions derived from profile histograms (the wire-path
    hot loop's shortcut) must match the pixel-path reduction bit for
    bit, and only the plain analyzer's exact counts may seed them."""

    def test_bit_identical_to_pixel_path(self, pipeline, tiny_clip, device):
        stream = pipeline.build_stream(tiny_clip, device)
        via_hist = stream._histogram_fractions()
        assert via_hist is not None, "plain-analyzer stream carries stats"
        assert via_hist.max() > 0.0, "a clipping scene exercises the sums"

        bare = AnnotatedStream(
            clip=tiny_clip, track=stream.track, device=device
        )
        assert bare._histogram_fractions() is None
        via_pixels = np.concatenate(
            [chunk.clipped_fractions for chunk in bare.iter_chunks()]
        )
        assert np.array_equal(via_hist, via_pixels)

    def test_quality_metrics_share_the_cache(self, pipeline, tiny_clip, device):
        stream = pipeline.build_stream(tiny_clip, device)
        bare = AnnotatedStream(
            clip=tiny_clip, track=stream.track, device=device
        )
        assert stream.mean_clipped_fraction() == bare.mean_clipped_fraction()

    def test_weighted_analyzer_never_seeds_histograms(self, tiny_clip, device,
                                                      fast_params):
        from repro.core import ImportanceMap

        shape = tiny_clip.frame_shape()
        roi = AnnotationPipeline(
            fast_params, importance=ImportanceMap.uniform(*shape)
        )
        stream = roi.build_stream(tiny_clip, device)
        assert stream._profile_stats is None
        assert stream._histogram_fractions() is None


class TestQualitySweep:
    def test_savings_monotone_in_quality(self, device, library_clip, fast_params):
        """More clipping budget can never save less power (Figure 9)."""
        streams = sweep_quality_levels(
            library_clip, device, (0.0, 0.05, 0.10, 0.15, 0.20), params=fast_params
        )
        savings = [s.predicted_backlight_savings() for s in streams]
        for a, b in zip(savings, savings[1:]):
            assert b >= a - 1e-9

    def test_sweep_labels_quality(self, device, tiny_clip, fast_params):
        streams = sweep_quality_levels(tiny_clip, device, (0.0, 0.2), params=fast_params)
        assert streams[0].track.quality == 0.0
        assert streams[1].track.quality == 0.2


class TestDeviceDependence:
    def test_devices_get_different_levels(self, tiny_clip, fast_params):
        """'Device specific are the actual backlight levels' — different
        transfer curves yield different schedules from the same track."""
        pipeline = AnnotationPipeline(fast_params)
        track = pipeline.annotate(tiny_clip)
        a = track.bind(ipaq_5555()).per_frame_levels()
        b = track.bind(ipaq_3650()).per_frame_levels()
        assert not np.array_equal(a, b)

    def test_color_safe_vs_literal(self, library_clip, device):
        """Paper-literal luminance analysis saves at least as much power
        (it ignores channel saturation) but violates the clip budget on
        tinted content."""
        q = 0.05
        safe = AnnotationPipeline(
            SchemeParameters(quality=q, min_scene_interval_frames=5, color_safe=True)
        ).build_stream(library_clip, device)
        literal = AnnotationPipeline(
            SchemeParameters(quality=q, min_scene_interval_frames=5, color_safe=False)
        ).build_stream(library_clip, device)
        assert (
            literal.predicted_backlight_savings()
            >= safe.predicted_backlight_savings() - 1e-9
        )
        assert literal.mean_clipped_fraction(sample_every=5) > q
