"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    FrameStats,
    Scene,
    SceneDetector,
    SchemeParameters,
    StreamAnalyzer,
    contrast_enhancement,
    brightness_compensation,
    policy_for_quality,
    rle_decode,
    rle_encode,
    encode_varint,
    decode_varint,
)
from repro.display import (
    GammaBacklightTransfer,
    LinearBacklightTransfer,
    SaturatingBacklightTransfer,
    WhiteTransfer,
    DisplayTransfer,
)
from repro.quality import LuminanceHistogram, histogram_emd, histogram_l1_distance
from repro.video import Frame

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_frames = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12), st.just(3)),
    elements=st.integers(0, 255),
).map(Frame)

luminance_maps = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
    elements=st.floats(0.0, 1.0),
)

level_sequences = st.lists(st.integers(0, 255), min_size=1, max_size=300)

fractions = st.floats(0.0, 1.0)


# ---------------------------------------------------------------------------
# RLE / varint
# ---------------------------------------------------------------------------

class TestRleProperties:
    @given(level_sequences)
    def test_rle_round_trip(self, values):
        assert list(rle_decode(rle_encode(values))) == values

    @given(st.integers(0, 2**60))
    def test_varint_round_trip(self, value):
        decoded, offset = decode_varint(encode_varint(value))
        assert decoded == value

    @given(st.integers(0, 255), st.integers(1, 10_000))
    def test_constant_run_size_logarithmic(self, value, run):
        encoded = rle_encode([value] * run)
        assert len(encoded) <= 2 + 10  # count varint + value + run varint


# ---------------------------------------------------------------------------
# Compensation
# ---------------------------------------------------------------------------

class TestCompensationProperties:
    @given(small_frames, st.floats(1.0, 20.0))
    def test_contrast_never_exceeds_range(self, frame, gain):
        result = contrast_enhancement(frame, gain)
        assert result.frame.pixels.max() <= 255
        assert 0.0 <= result.clipped_fraction <= 1.0

    @given(small_frames, st.floats(1.0, 20.0))
    def test_contrast_monotone_per_pixel(self, frame, gain):
        """Compensation preserves pixel brightness ordering."""
        result = contrast_enhancement(frame, gain)
        before = frame.pixels.astype(int)
        after = result.frame.pixels.astype(int)
        flat_b = before.reshape(-1, 3)
        flat_a = after.reshape(-1, 3)
        for c in range(3):
            order = np.argsort(flat_b[:, c], kind="stable")
            assert np.all(np.diff(flat_a[order, c]) >= -1)  # 1 code rounding slack

    @given(small_frames, st.floats(0.0, 1.0))
    def test_brightness_clip_fraction_consistent(self, frame, delta):
        result = brightness_compensation(frame, delta)
        exceeded = np.any(frame.normalized() + delta > 1.0 + 1e-12, axis=-1)
        assert result.clipped_fraction == pytest.approx(float(exceeded.mean()))

    @given(small_frames, st.floats(1.0, 20.0))
    def test_contrast_never_darkens(self, frame, gain):
        result = contrast_enhancement(frame, gain)
        assert np.all(result.frame.pixels.astype(int) >= frame.pixels.astype(int) - 1)

    @given(
        arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(1, 8), st.integers(2, 10), st.integers(2, 10),
                st.just(3),
            ),
            elements=st.integers(0, 255),
        ),
        st.lists(st.floats(0.1, 20.0), min_size=8, max_size=8),
    )
    @settings(deadline=None)
    def test_lut_batch_bit_identical_to_float_reference(self, pixels, gains):
        """The fused 256-entry LUT kernel is pinned to the direct float
        implementation: same output bytes, same clipped fractions, for
        arbitrary batches and per-frame gain vectors."""
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
        )

        g = np.array(gains[: pixels.shape[0]])
        lut_px, lut_fr = contrast_enhancement_batch(pixels, g)
        ref_px, ref_fr = contrast_enhancement_batch_reference(pixels, g)
        assert np.array_equal(lut_px, ref_px)
        assert np.array_equal(lut_fr, ref_fr)

    @given(
        arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(0, 6), st.integers(1, 9), st.integers(1, 9),
                st.just(3),
            ),
            elements=st.integers(0, 255),
        ),
        st.lists(
            st.one_of(st.floats(0.1, 1.0), st.sampled_from([1.25, 2.5]),
                      st.floats(1.0, 20.0)),
            min_size=6, max_size=6,
        ),
        st.sampled_from(["whole", "reversed_rows", "strided_cols", "bgr"]),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_lut_batch_layouts_bit_identical_to_float_reference(
        self, pixels, gains, layout, use_arena
    ):
        """The LUT kernel matches the float reference on strided views,
        empty batches, passthrough runs and outputs that view a larger
        buffer, and its result is writable memory that never aliases the
        input."""
        from repro.core import (
            contrast_enhancement_batch,
            contrast_enhancement_batch_reference,
        )

        view = {
            "whole": pixels,
            "reversed_rows": pixels[:, ::-1],
            "strided_cols": pixels[:, :, ::2],
            "bgr": pixels[..., ::-1],
        }[layout]
        g = np.array(gains[: view.shape[0]])
        out = None
        if use_arena:
            spare = np.empty((view.shape[0] + 2,) + view.shape[1:], np.uint8)
            out = spare[: view.shape[0]]
        lut_px, lut_fr = contrast_enhancement_batch(view, g, out=out)
        ref_px, ref_fr = contrast_enhancement_batch_reference(view, g)
        assert np.array_equal(lut_px, ref_px)
        assert np.array_equal(lut_fr, ref_fr)
        assert lut_px.flags.writeable
        assert not np.shares_memory(lut_px, pixels)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

class TestHistogramProperties:
    @given(small_frames)
    def test_mass_conserved(self, frame):
        hist = LuminanceHistogram.of(frame)
        assert hist.total == frame.pixel_count

    @given(small_frames, fractions)
    def test_clip_point_budget(self, frame, q):
        hist = LuminanceHistogram.of(frame)
        point = hist.clip_point(q)
        assert hist.tail_mass_above(point) <= q + 1e-12

    @given(small_frames, small_frames)
    def test_l1_distance_bounds(self, a, b):
        ha, hb = LuminanceHistogram.of(a), LuminanceHistogram.of(b)
        d = histogram_l1_distance(ha, hb)
        assert 0.0 <= d <= 2.0 + 1e-12
        assert histogram_l1_distance(ha, ha) == 0.0

    @given(small_frames, small_frames)
    def test_emd_symmetric_nonnegative(self, a, b):
        ha, hb = LuminanceHistogram.of(a), LuminanceHistogram.of(b)
        assert histogram_emd(ha, hb) >= 0.0
        assert histogram_emd(ha, hb) == pytest.approx(histogram_emd(hb, ha))

    @given(small_frames)
    def test_average_point_within_range(self, frame):
        hist = LuminanceHistogram.of(frame)
        low, high = hist.dynamic_range()
        assert low <= hist.average_point <= high


# ---------------------------------------------------------------------------
# Transfers
# ---------------------------------------------------------------------------

transfer_strategy = st.one_of(
    st.just(LinearBacklightTransfer()),
    st.floats(0.3, 3.0).map(GammaBacklightTransfer),
    st.floats(0.2, 6.0).map(SaturatingBacklightTransfer),
)


class TestTransferProperties:
    @given(transfer_strategy, st.floats(0.0, 1.0))
    def test_inverse_supplies_target(self, transfer, target):
        level = transfer.level_for_luminance(target)
        assert 0 <= level <= 255
        assert float(transfer.luminance(level)) >= min(target, float(transfer.luminance(255))) - 1e-9

    @given(transfer_strategy)
    def test_monotone_table(self, transfer):
        assert np.all(np.diff(transfer.table()) >= -1e-12)

    @given(
        transfer_strategy,
        st.floats(0.5, 2.0),
        st.floats(0.05, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_compensation_identity(self, backlight, white_gamma, eff_max, y_frac):
        """B(level) * W(min(kY, 1)) == W(Y) for unclipped pixels."""
        transfer = DisplayTransfer(backlight, WhiteTransfer(white_gamma))
        level = transfer.level_for_scene(eff_max)
        if level == 0:
            return
        k = transfer.compensation_gain_for_level(level)
        y = y_frac * min(eff_max, 1.0 / k)  # guaranteed unclipped
        original = float(transfer.white.luminance(y))
        compensated = float(transfer.backlight.luminance(level)) * float(
            transfer.white.luminance(min(y * k, 1.0))
        )
        assert compensated == pytest.approx(original, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Scene detection
# ---------------------------------------------------------------------------

max_series = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80)


def _stats(maxima):
    frames = [
        Frame.solid_gray(3, 3, int(round(m * 255)), index=i)
        for i, m in enumerate(maxima)
    ]
    return StreamAnalyzer().analyze_frames(frames)


class TestSceneProperties:
    @settings(max_examples=60)
    @given(max_series, st.integers(1, 20), st.floats(0.02, 0.5))
    def test_partition_invariant(self, maxima, interval, threshold):
        params = SchemeParameters(
            scene_change_threshold=threshold, min_scene_interval_frames=interval
        )
        stats = _stats(maxima)
        scenes = SceneDetector(params).detect(stats)
        SceneDetector.validate_partition(scenes, len(stats))

    @settings(max_examples=60)
    @given(max_series, st.integers(1, 20))
    def test_scene_max_covers_members(self, maxima, interval):
        params = SchemeParameters(min_scene_interval_frames=interval)
        stats = _stats(maxima)
        scenes = SceneDetector(params).detect(stats)
        for scene in scenes:
            member_max = max(s.max_value(True) for s in stats[scene.start:scene.end])
            assert scene.max_luminance >= member_max - 1e-9

    @settings(max_examples=60)
    @given(max_series, st.integers(2, 20))
    def test_rate_limit_bounds_scene_lengths(self, maxima, interval):
        params = SchemeParameters(min_scene_interval_frames=interval)
        scenes = SceneDetector(params).detect(_stats(maxima))
        for scene in scenes[:-1]:  # the last scene may be a stub
            assert scene.length >= interval


# ---------------------------------------------------------------------------
# Clipping policies
# ---------------------------------------------------------------------------

class TestClippingProperties:
    @settings(max_examples=40)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20),
        st.floats(0.0, 0.5),
    )
    def test_effective_max_within_bounds(self, maxima, q):
        stats = _stats(maxima)
        scene = Scene(0, len(stats), max(s.max_value(True) for s in stats))
        for per_scene in (False, True):
            policy = policy_for_quality(q, per_scene=per_scene)
            eff = policy.effective_max(scene, stats)
            assert 0.0 <= eff <= scene.max_luminance + 1e-9

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20))
    def test_quality_zero_is_lossless(self, maxima):
        stats = _stats(maxima)
        scene = Scene(0, len(stats), max(s.max_value(True) for s in stats))
        eff = policy_for_quality(0.0).effective_max(scene, stats)
        assert eff == pytest.approx(scene.max_luminance, abs=1e-9)


# ---------------------------------------------------------------------------
# Annotation serialization round-trips
# ---------------------------------------------------------------------------

scene_lengths = st.lists(st.integers(1, 500), min_size=1, max_size=40)


class TestAnnotationSerializationProperties:
    @settings(max_examples=60)
    @given(scene_lengths, st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40),
           st.floats(0.0, 1.0))
    def test_luminance_track_round_trip(self, lengths, lums, quality):
        from repro.core import AnnotationTrack, SceneAnnotation

        scenes = []
        start = 0
        for k, length in enumerate(lengths):
            scenes.append(SceneAnnotation(start, start + length, lums[k]))
            start += length
        track = AnnotationTrack("clip", start, 30.0, quality, scenes)
        restored = AnnotationTrack.from_bytes(track.to_bytes())
        assert restored.frame_count == track.frame_count
        assert len(restored.scenes) == len(track.scenes)
        for a, b in zip(track.scenes, restored.scenes):
            assert (a.start, a.end) == (b.start, b.end)
            assert abs(a.effective_max_luminance - b.effective_max_luminance) <= 1 / 255

    @settings(max_examples=60)
    @given(scene_lengths,
           st.lists(st.integers(0, 255), min_size=40, max_size=40),
           st.lists(st.floats(1.0, 200.0), min_size=40, max_size=40))
    def test_device_track_round_trip(self, lengths, levels, gains):
        from repro.core import DeviceAnnotationTrack, DeviceSceneAnnotation

        scenes = []
        start = 0
        for k, length in enumerate(lengths):
            scenes.append(
                DeviceSceneAnnotation(start, start + length, levels[k], gains[k])
            )
            start += length
        track = DeviceAnnotationTrack("clip", "dev", start, 30.0, 0.05, scenes)
        restored = DeviceAnnotationTrack.from_bytes(track.to_bytes())
        assert np.array_equal(restored.per_frame_levels(), track.per_frame_levels())
        assert restored.per_frame_gains() == pytest.approx(
            track.per_frame_gains(), abs=1 / 128
        )

    @settings(max_examples=60)
    @given(scene_lengths,
           st.lists(st.floats(0.0, 5e7), min_size=40, max_size=40))
    def test_dvfs_track_round_trip(self, lengths, cycles):
        from repro.core import DvfsSceneAnnotation, DvfsTrack

        scenes = []
        start = 0
        for k, length in enumerate(lengths):
            scenes.append(DvfsSceneAnnotation(start, start + length, cycles[k]))
            start += length
        track = DvfsTrack("clip", start, 30.0, scenes)
        restored = DvfsTrack.from_bytes(track.to_bytes())
        assert restored.frame_count == track.frame_count
        for a, b in zip(track.scenes, restored.scenes):
            assert abs(a.cycles_per_frame - b.cycles_per_frame) <= 500.0  # kcycle quantization


# ---------------------------------------------------------------------------
# Network delivery invariants
# ---------------------------------------------------------------------------

class TestNetworkProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=60))
    def test_arrivals_monotone_and_causal(self, sizes):
        from repro.streaming import NetworkPath
        from repro.streaming.packets import MediaPacket, PacketType

        packets = [
            MediaPacket(seq=i, ptype=PacketType.CONTROL, payload=b"x" * size)
            for i, size in enumerate(sizes)
        ]
        path = NetworkPath()
        schedule = path.deliver(packets)
        assert np.all(np.diff(schedule.arrival_times_s) > 0)
        # causality: nothing arrives before its own serialized transmit time
        for t, packet in zip(schedule.arrival_times_s, packets):
            min_time = sum(
                link.transmit_time_s(packet.size_bytes) + link.latency_s
                for link in path.hops
            )
            assert t >= min_time - 1e-12

    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=60),
           st.floats(0.1, 100.0))
    def test_radio_duty_bounded(self, sizes, playback_s):
        from repro.streaming import NetworkPath
        from repro.streaming.packets import MediaPacket, PacketType

        packets = [
            MediaPacket(seq=i, ptype=PacketType.CONTROL, payload=b"x" * size)
            for i, size in enumerate(sizes)
        ]
        duty = NetworkPath().deliver(packets).radio_duty(playback_s)
        assert 0.0 <= duty <= 1.0


# ---------------------------------------------------------------------------
# Codec, smoothing, ambient invariants
# ---------------------------------------------------------------------------

class TestCodecProperties:
    @settings(max_examples=40)
    @given(small_frames, small_frames)
    def test_size_ordering_per_frame(self, frame, prev):
        from repro.video import CodecModel

        codec = CodecModel()
        i = codec.estimate_frame_bytes(frame, prev, "I")
        p = codec.estimate_frame_bytes(frame, prev, "P")
        b = codec.estimate_frame_bytes(frame, prev, "B")
        assert i >= p >= b >= codec.min_frame_bytes

    @settings(max_examples=30)
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_gop_from_n_m_valid(self, n, m):
        from repro.video import GopPattern

        if m > n:
            with pytest.raises(ValueError):
                GopPattern.from_n_m(n, m)
            return
        gop = GopPattern.from_n_m(n, m)
        assert gop.length == n
        assert gop.structure[0] == "I"
        # anchors land on multiples of m
        for i, t in enumerate(gop.structure):
            if i > 0 and i % m == 0:
                assert t == "P"


class TestSmoothingProperties:
    @settings(max_examples=60)
    @given(level_sequences, st.integers(1, 16))
    def test_ramp_reduces_or_keeps_max_step(self, levels, ramp):
        from repro.core import max_level_step, ramped_levels

        out = ramped_levels(np.asarray(levels), ramp)
        assert out.size == len(levels)
        assert max_level_step(out) <= max(max_level_step(np.asarray(levels)), 1)

    @settings(max_examples=60)
    @given(level_sequences, st.integers(1, 16))
    def test_ramp_stays_within_envelope(self, levels, ramp):
        from repro.core import ramped_levels

        arr = np.asarray(levels)
        out = ramped_levels(arr, ramp)
        assert out.min() >= arr.min() - 1
        assert out.max() <= arr.max() + 1


class TestAmbientProperties:
    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 3.0))
    def test_ambient_never_raises_level(self, eff, illuminance):
        from repro.display import AmbientCondition, ambient_level_for_scene, ipaq_5555

        device = ipaq_5555()
        dark = ambient_level_for_scene(device, eff, AmbientCondition("d", 0.0))
        lit = ambient_level_for_scene(device, eff, AmbientCondition("l", illuminance))
        assert lit <= dark

    @settings(max_examples=40)
    @given(st.integers(1, 255), st.floats(0.0, 3.0))
    def test_ambient_gain_at_least_one(self, level, illuminance):
        from repro.display import AmbientCondition, ambient_compensation_gain, ipaq_5555

        gain = ambient_compensation_gain(
            ipaq_5555(), level, AmbientCondition("x", illuminance)
        )
        assert gain >= 1.0


class TestPerceptualProperties:
    @settings(max_examples=40)
    @given(luminance_maps)
    def test_identity_always_invisible(self, lum):
        from repro.quality import PerceptualModel

        assert PerceptualModel().perceptible_fraction(lum, lum) == 0.0

    @settings(max_examples=40)
    @given(luminance_maps, st.floats(0.0, 0.5))
    def test_visibility_monotone_in_error(self, lum, delta):
        from repro.quality import PerceptualModel

        model = PerceptualModel()
        small = model.perceptible_fraction(lum, np.clip(lum + delta / 2, 0, 1))
        large = model.perceptible_fraction(lum, np.clip(lum + delta, 0, 1))
        assert large >= small - 1e-12


class TestPlayoutProperties:
    arrivals = st.lists(
        st.floats(0.0, 0.2), min_size=2, max_size=120
    ).map(lambda gaps: np.cumsum(np.asarray(gaps)))

    @settings(max_examples=60)
    @given(arrivals, st.floats(5.0, 60.0))
    def test_minimum_delay_is_sufficient(self, arrivals, fps):
        from repro.streaming import PlayoutBuffer

        delay = PlayoutBuffer.minimum_startup_delay(arrivals, fps)
        report = PlayoutBuffer(delay + 1e-6).simulate(arrivals, fps)
        assert report.smooth

    @settings(max_examples=60)
    @given(arrivals, st.floats(5.0, 60.0), st.floats(0.0, 1.0))
    def test_stall_time_monotone_in_buffer(self, arrivals, fps, delay):
        from repro.streaming import PlayoutBuffer

        less = PlayoutBuffer(delay).simulate(arrivals, fps).total_stall_s
        more = PlayoutBuffer(delay + 0.5).simulate(arrivals, fps).total_stall_s
        assert more <= less + 1e-9

    @settings(max_examples=60)
    @given(arrivals, st.floats(5.0, 60.0))
    def test_stalls_have_positive_duration_and_order(self, arrivals, fps):
        from repro.streaming import PlayoutBuffer

        report = PlayoutBuffer(0.0).simulate(arrivals, fps)
        indices = [s.frame_index for s in report.stalls]
        assert indices == sorted(indices)
        assert all(s.duration_s > 0 for s in report.stalls)
