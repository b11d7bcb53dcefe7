"""The pluggable backlight-policy layer.

Registry semantics, the three shipped policies (clip-quality, HEBS,
spatial scaling), annotation payload round-trips through the wire
formats, and the guards that keep tracks single-policy.
"""

import numpy as np
import pytest

from repro.core import (
    CLIP_QUALITY_POLICY,
    POLICY_NAMES,
    AnnotationTrack,
    BacklightPolicy,
    ClipQualityPolicy,
    DeviceAnnotationTrack,
    DeviceSceneAnnotation,
    GainTransform,
    HebsPolicy,
    LutTransform,
    SceneAnnotation,
    SchemeParameters,
    SpatialScalingPolicy,
    SpatialTransform,
    available_policies,
    get_policy,
    policy_profile_key,
    register_policy,
    resolve_policy,
    smooth_track,
)
from repro.core.pipeline import AnnotationPipeline


class TestRegistry:
    def test_all_shipped_policies_registered(self):
        assert set(available_policies()) >= {"clip-quality", "hebs", "spatial"}
        assert POLICY_NAMES == available_policies()

    def test_get_policy_returns_cached_default_instance(self):
        assert get_policy("hebs") is get_policy("hebs")
        assert isinstance(get_policy("hebs"), HebsPolicy)

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ValueError, match="clip-quality"):
            get_policy("warp-drive")

    def test_resolve_none_is_the_papers_scheme(self):
        policy = resolve_policy(None)
        assert isinstance(policy, ClipQualityPolicy)
        assert policy.name == CLIP_QUALITY_POLICY

    def test_resolve_instance_passes_through(self):
        custom = HebsPolicy(dim_factor=5.0)
        assert resolve_policy(custom) is custom

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_policy(1.5)

    def test_register_rejects_abstract_name(self):
        with pytest.raises(ValueError):

            @register_policy
            class Nameless(BacklightPolicy):
                pass

    def test_configuration_keys_are_distinct(self):
        assert ClipQualityPolicy().key() != ClipQualityPolicy(True).key()
        assert HebsPolicy().key() != HebsPolicy(dim_factor=9.0).key()
        assert SpatialScalingPolicy(2).key() != SpatialScalingPolicy(3).key()

    def test_profile_key_partitions_by_name_only(self):
        assert HebsPolicy().profile_key() == HebsPolicy(dim_factor=9.0).profile_key()
        assert policy_profile_key("hebs") != policy_profile_key("spatial")
        assert policy_profile_key(("precomputed",)) == ("precomputed",)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HebsPolicy(dim_factor=0.5)
        with pytest.raises(ValueError):
            HebsPolicy(reserve=1.0)
        with pytest.raises(ValueError):
            SpatialScalingPolicy(0)
        with pytest.raises(ValueError):
            SpatialScalingPolicy(9)


@pytest.fixture
def profiled(tiny_clip, fast_params):
    pipeline = AnnotationPipeline(fast_params)
    return pipeline.profile(tiny_clip), fast_params


class TestClipQualityPolicy:
    def test_annotations_use_default_policy_and_empty_payload(self, profiled):
        profile, params = profiled
        scenes = ClipQualityPolicy().annotate_scenes(
            profile.scenes, profile.stats, params
        )
        assert all(s.policy == CLIP_QUALITY_POLICY for s in scenes)
        assert all(s.payload == b"" for s in scenes)

    def test_transform_is_a_gain(self, profiled, device):
        profile, params = profiled
        policy = ClipQualityPolicy()
        scene = policy.annotate_scene(profile.scenes[0], profile.stats, params)
        bound = policy.bind_scene(scene, device)
        transform = policy.transform_for_scene(bound)
        assert isinstance(transform, GainTransform)
        assert transform.is_gain
        assert transform.gain == bound.compensation_gain

    def test_track_keeps_legacy_wire_format(self, tiny_clip, fast_params):
        track = AnnotationPipeline(fast_params).annotate(tiny_clip)
        data = track.to_bytes()
        assert data[:4] == b"ANL1"
        restored = AnnotationTrack.from_bytes(data)
        assert restored.policy == CLIP_QUALITY_POLICY


class TestHebsPolicy:
    def test_payload_is_clip_code_plus_lut(self, profiled):
        profile, params = profiled
        scene = HebsPolicy().annotate_scene(
            profile.scenes[0], profile.stats, params
        )
        assert scene.policy == "hebs"
        assert len(scene.payload) == 257

    def test_lut_is_monotone_and_spans_the_range(self, profiled):
        profile, params = profiled
        for raw in profile.scenes:
            scene = HebsPolicy().annotate_scene(raw, profile.stats, params)
            lut = np.frombuffer(scene.payload[1:], dtype=np.uint8)
            assert np.all(np.diff(lut.astype(int)) >= 0)
            assert lut[0] == 0
            assert lut[-1] == 255

    def test_dims_dark_scenes(self, profiled):
        profile, params = profiled
        scenes = [
            HebsPolicy().annotate_scene(raw, profile.stats, params)
            for raw in profile.scenes
        ]
        assert all(0.0 < s.effective_max_luminance <= 1.0 for s in scenes)
        assert min(s.effective_max_luminance for s in scenes) < 1.0

    def test_bind_and_transform_round_trip(self, profiled, device):
        profile, params = profiled
        policy = HebsPolicy()
        scene = policy.annotate_scene(profile.scenes[0], profile.stats, params)
        bound = policy.bind_scene(scene, device)
        assert bound.payload == scene.payload
        transform = policy.transform_for_scene(bound)
        assert isinstance(transform, LutTransform)
        assert not transform.is_gain

    def test_transform_rejects_malformed_payload(self):
        bad = DeviceSceneAnnotation(
            start=0, end=4, backlight_level=10, compensation_gain=1.5,
            policy="hebs", payload=b"\x01\x02",
        )
        with pytest.raises(ValueError, match="257"):
            HebsPolicy().transform_for_scene(bad)


class TestLutTransformLookup:
    """``LutTransform`` is pinned byte for byte to ``lut[pixels]``."""

    @staticmethod
    def _transform(seed):
        rng = np.random.default_rng(seed)
        lut = np.sort(rng.integers(0, 256, size=256)).astype(np.uint8)
        return LutTransform(lut, clip_code=int(rng.integers(0, 256)))

    def test_apply_batch_matches_fancy_index_oracle(self):
        from repro.video import Frame

        rng = np.random.default_rng(41)
        for seed in range(4):
            transform = self._transform(seed)
            pixels = rng.integers(0, 256, size=(5, 12, 9, 3), dtype=np.uint8)
            for view in (pixels, pixels[:, ::-1], pixels[::2, 1::3, :, ::-1]):
                got, fractions = transform.apply_batch(view)
                assert np.array_equal(got, transform.lut[view])
                assert got.flags.writeable
                assert not np.shares_memory(got, pixels)
                assert np.array_equal(
                    fractions, transform.batch_clipped_fractions(view)
                )
                for k in range(view.shape[0]):
                    result = transform.apply_frame(Frame(view[k], index=k))
                    assert np.array_equal(
                        result.frame.pixels, transform.lut[view[k]]
                    )
                    assert result.frame.index == k
                    assert result.clipped_fraction == fractions[k]

    def test_empty_batch(self):
        transform = self._transform(0)
        got, fractions = transform.apply_batch(
            np.zeros((0, 4, 4, 3), dtype=np.uint8)
        )
        assert got.shape == (0, 4, 4, 3)
        assert fractions.shape == (0,)


class TestSpatialScalingPolicy:
    def test_payload_records_the_scale(self, profiled):
        profile, params = profiled
        scene = SpatialScalingPolicy(3).annotate_scene(
            profile.scenes[0], profile.stats, params
        )
        assert scene.policy == "spatial"
        assert scene.payload == bytes([3])

    def test_never_brighter_than_plain_clipping(self, profiled):
        profile, params = profiled
        clip = ClipQualityPolicy(per_scene_clipping=True)
        for raw in profile.scenes:
            s = SpatialScalingPolicy(2).annotate_scene(raw, profile.stats, params)
            c = clip.annotate_scene(raw, profile.stats, params)
            assert s.effective_max_luminance <= c.effective_max_luminance + 1e-9

    def test_scale_one_matches_per_scene_clipping_exactly(self, profiled):
        profile, params = profiled
        clip = ClipQualityPolicy(per_scene_clipping=True)
        for raw in profile.scenes:
            s = SpatialScalingPolicy(1).annotate_scene(raw, profile.stats, params)
            c = clip.annotate_scene(raw, profile.stats, params)
            assert s.effective_max_luminance == pytest.approx(
                c.effective_max_luminance
            )

    def test_transform_preserves_frame_geometry(self, profiled, device, tiny_clip):
        profile, params = profiled
        policy = SpatialScalingPolicy(2)
        scene = policy.annotate_scene(profile.scenes[0], profile.stats, params)
        bound = policy.bind_scene(scene, device)
        transform = policy.transform_for_scene(bound)
        assert isinstance(transform, SpatialTransform)
        frame = tiny_clip.frame(0)
        result = transform.apply_frame(frame)
        assert result.frame.pixels.shape == frame.pixels.shape
        assert result.frame.pixels.dtype == np.uint8


class TestWireFormats:
    def test_extended_luminance_round_trip(self, tiny_clip, fast_params):
        track = AnnotationPipeline(fast_params, policy="hebs").annotate(tiny_clip)
        data = track.to_bytes()
        assert data[:4] == b"ANL2"
        restored = AnnotationTrack.from_bytes(data, clip_name=track.clip_name)
        assert restored.policy == "hebs"
        assert [s.payload for s in restored.scenes] == [
            s.payload for s in track.scenes
        ]
        assert restored.to_bytes() == data

    def test_extended_device_round_trip(self, tiny_clip, fast_params, device):
        track = AnnotationPipeline(fast_params, policy="spatial").annotate(tiny_clip)
        bound = track.bind(device)
        data = bound.to_bytes()
        assert data[:4] == b"AND2"
        restored = DeviceAnnotationTrack.from_bytes(
            data, clip_name=bound.clip_name, device_name=bound.device_name
        )
        assert restored.policy == "spatial"
        assert [s.payload for s in restored.scenes] == [
            s.payload for s in bound.scenes
        ]
        assert restored.to_bytes() == data

    def test_mixed_policy_track_rejected(self):
        scenes = [
            SceneAnnotation(0, 4, 0.5),
            SceneAnnotation(4, 8, 0.5, policy="spatial", payload=b"\x02"),
        ]
        with pytest.raises(ValueError, match="mixed"):
            AnnotationTrack("clip", 8, 30.0, 0.05, scenes)

    def test_smoothing_refuses_non_default_tracks(
        self, tiny_clip, fast_params, device
    ):
        bound = AnnotationPipeline(fast_params, policy="hebs").annotate(
            tiny_clip
        ).bind(device)
        with pytest.raises(ValueError, match="smoothing supports only"):
            smooth_track(bound, device)


class TestPipelineIntegration:
    @pytest.mark.parametrize("policy", ["hebs", "spatial"])
    def test_streams_play_end_to_end(self, tiny_clip, fast_params, device, policy):
        stream = AnnotationPipeline(fast_params, policy=policy).build_stream(
            tiny_clip, device
        )
        frame = stream.compensated_frame(0)
        assert frame.frame.pixels.shape == tiny_clip.frame(0).pixels.shape
        chunks = list(stream.iter_chunks(chunk_size=7))
        total = sum(c.pixels.shape[0] for c in chunks)
        assert total == tiny_clip.frame_count

    @pytest.mark.parametrize("policy", ["hebs", "spatial"])
    def test_chunked_matches_per_frame_compensation(
        self, tiny_clip, fast_params, device, policy
    ):
        stream = AnnotationPipeline(fast_params, policy=policy).build_stream(
            tiny_clip, device
        )
        for chunk in stream.iter_chunks(chunk_size=7):
            for offset in range(chunk.pixels.shape[0]):
                index = chunk.start + offset
                expected = stream.compensated_frame(index)
                assert np.array_equal(
                    chunk.pixels[offset], expected.frame.pixels
                ), f"frame {index} diverges under {policy}"

    def test_clipped_fractions_consistent(self, tiny_clip, fast_params, device):
        stream = AnnotationPipeline(fast_params, policy="hebs").build_stream(
            tiny_clip, device
        )
        per_frame = np.array([
            stream.compensated_frame(i).clipped_fraction
            for i in range(tiny_clip.frame_count)
        ])
        assert stream.mean_clipped_fraction() == pytest.approx(per_frame.mean())

    def test_policy_telemetry_labels(self, tiny_clip, fast_params, device):
        from repro.telemetry import registry

        AnnotationPipeline(fast_params).build_stream(tiny_clip, device)
        AnnotationPipeline(fast_params, policy="hebs").build_stream(
            tiny_clip, device
        )
        reg = registry()
        scenes_default = reg.get(
            "repro_policy_scenes_total", labels={"policy": CLIP_QUALITY_POLICY}
        )
        scenes_hebs = reg.get(
            "repro_policy_scenes_total", labels={"policy": "hebs"}
        )
        assert scenes_default is not None and scenes_default.value > 0
        assert scenes_hebs is not None and scenes_hebs.value > 0

    def test_server_distinguishes_policies(self, tiny_clip, fast_params, device):
        from repro.streaming import MediaServer, MobileClient

        plays = {}
        for policy in (None, "hebs"):
            server = MediaServer(params=fast_params, policy=policy)
            server.add_clip(tiny_clip)
            client = MobileClient(device)
            session = server.open_session(client.request(tiny_clip.name, 0.05))
            plays[policy] = client.play_stream(
                session, list(server.stream(session))
            )
        assert plays[None].total_savings != pytest.approx(
            plays["hebs"].total_savings
        ) or not np.array_equal(
            plays[None].applied_levels, plays["hebs"].applied_levels
        )
