"""The `repro.api` facade: equivalence, engine defaults, deprecations.

The facade is a thin routing layer — every service call must produce
byte-identical results to the scattered pre-facade spellings it
replaces.  The pre-facade top-level aliases finished their deprecation
cycle and must now be gone.
"""

import asyncio
import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.core import EngineConfig, ProfileCache, SchemeParameters
from repro.core.pipeline import (
    AnnotatedStream,
    AnnotationPipeline,
    sweep_quality_levels,
)
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    MobileClient,
    PacketType,
    SessionRequest,
)


@pytest.fixture(autouse=True)
def _engine_default_isolation():
    """Restore the process-wide engine default around every test."""
    previous = api.default_engine()
    yield
    api.configure_engine(previous)


class TestConfigureEngine:
    def test_returns_previous_default(self):
        assert api.configure_engine("perframe") is None
        assert api.configure_engine("chunked") == "perframe"
        assert api.default_engine() == "chunked"

    def test_kind_refined_with_chunk_size(self):
        api.configure_engine("chunked", chunk_size=7)
        assert api.default_engine() == EngineConfig(kind="chunked", chunk_size=7)

    def test_invalid_kind_rejected_eagerly(self):
        with pytest.raises(ValueError):
            api.configure_engine("warp-drive")
        assert api.default_engine() is None

    def test_services_pick_up_the_default(self):
        api.configure_engine("perframe")
        assert api.AnnotationService().engine == "perframe"
        from repro.core.engine import resolve_engine

        service = api.StreamingService()
        assert resolve_engine(service.server.engine).kind == "perframe"

    def test_explicit_engine_overrides_default(self):
        api.configure_engine("perframe")
        assert api.AnnotationService(engine="chunked").engine == "chunked"


class TestAnnotationService:
    def test_build_stream_matches_pipeline(self, tiny_clip, device, fast_params):
        facade = api.AnnotationService(fast_params).build_stream(tiny_clip, device)
        direct = AnnotationPipeline(fast_params).build_stream(tiny_clip, device)
        assert facade.track.to_bytes() == direct.track.to_bytes()
        assert facade.predicted_backlight_savings() == pytest.approx(
            direct.predicted_backlight_savings()
        )

    def test_device_accepted_by_name(self, tiny_clip, device, fast_params):
        service = api.AnnotationService(fast_params)
        by_name = service.build_stream(tiny_clip, "ipaq5555")
        by_profile = service.build_stream(tiny_clip, device)
        assert by_name.track.to_bytes() == by_profile.track.to_bytes()

    def test_annotate_quality_override(self, tiny_clip, fast_params):
        service = api.AnnotationService(fast_params)
        track = service.annotate(tiny_clip, quality=0.2)
        direct = AnnotationPipeline(fast_params.with_quality(0.2)).annotate(
            tiny_clip
        )
        assert track.to_bytes() == direct.to_bytes()

    def test_annotate_for_device_binds(self, tiny_clip, device, fast_params):
        bound = api.AnnotationService(fast_params).annotate_for_device(
            tiny_clip, "ipaq5555"
        )
        assert bound.device_name == device.name

    def test_profile_covers_clip(self, tiny_clip, fast_params):
        profile = api.AnnotationService(fast_params).profile(tiny_clip)
        assert profile.max_luminance_series().size == tiny_clip.frame_count

    def test_sweep_matches_legacy_helper(self, tiny_clip, device, fast_params):
        qualities = (0.05, 0.2)
        facade = api.AnnotationService(fast_params).sweep(
            tiny_clip, "ipaq5555", qualities
        )
        direct = sweep_quality_levels(
            tiny_clip, device, qualities, params=fast_params
        )
        assert len(facade) == len(direct) == 2
        for got, ref in zip(facade, direct):
            assert got.track.to_bytes() == ref.track.to_bytes()


def _served_frames(stream):
    """``(level, compensated bytes)`` of every frame of ``stream``."""
    return [
        (int(chunk.levels[k]), chunk.frame(k).pixels.tobytes())
        for chunk in stream.iter_chunks()
        for k in range(len(chunk))
    ]


class TestStreamBuilders:
    """Every stream builder hands the stream its engine and profile."""

    def test_perframe_engine_reaches_facade_and_sweep_streams(
        self, tiny_clip, device, fast_params, monkeypatch
    ):
        expected = _served_frames(
            AnnotationPipeline(fast_params).build_stream(tiny_clip, device)
        )
        calls = []
        original = AnnotatedStream.compensated_frame
        monkeypatch.setattr(
            AnnotatedStream, "compensated_frame",
            lambda self, index: calls.append(index) or original(self, index),
        )
        facade = api.AnnotationService(fast_params, engine="perframe").build_stream(
            tiny_clip, device
        )
        swept = sweep_quality_levels(
            tiny_clip, device, (fast_params.quality,), params=fast_params,
            engine="perframe", profile_cache=ProfileCache(max_entries=0),
        )[0]
        for stream in (facade, swept):
            del calls[:]
            assert _served_frames(stream) == expected
            assert calls == list(range(tiny_clip.frame_count))

    def test_default_policy_fractions_read_no_frame(
        self, tiny_clip, device, fast_params, monkeypatch
    ):
        service = api.AnnotationService(fast_params)
        streams = [service.build_stream(tiny_clip, device)]
        streams += service.sweep(tiny_clip, device, (0.05, 0.2))
        streams += sweep_quality_levels(
            tiny_clip, device, (0.1,), params=fast_params,
            profile_cache=ProfileCache(max_entries=0),
        )
        expected = [
            {k: AnnotatedStream(tiny_clip, s.track, device).mean_clipped_fraction(k)
             for k in (1, 5)}
            for s in streams
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("mean_clipped_fraction read a frame")

        monkeypatch.setattr(tiny_clip, "frame", refuse)
        monkeypatch.setattr(tiny_clip, "iter_chunks", refuse)
        for stream, want in zip(streams, expected):
            assert stream.mean_clipped_fraction(5) == want[5]
            assert stream.mean_clipped_fraction() == want[1]


class TestStreamingService:
    def test_play_matches_manual_serving_path(self, tiny_clip, device, fast_params):
        service = api.StreamingService(fast_params).add_clip(tiny_clip)
        facade = service.play(tiny_clip.name, "ipaq5555", 0.05)

        manual_server = MediaServer(params=fast_params)
        manual_server.add_clip(tiny_clip)
        client = MobileClient(device)
        session = manual_server.open_session(client.request(tiny_clip.name, 0.05))
        manual = client.play_stream(
            session, list(manual_server.stream(session))
        )
        assert facade.total_savings == pytest.approx(manual.total_savings)
        assert np.array_equal(facade.applied_levels, manual.applied_levels)

    def test_catalog_and_chaining(self, tiny_clip, fast_params):
        service = api.StreamingService(fast_params).add_clip(tiny_clip)
        assert service.catalog() == (tiny_clip.name,)

    def test_open_session_and_stream(self, tiny_clip, fast_params):
        service = api.StreamingService(fast_params).add_clip(tiny_clip)
        session = service.open_session(tiny_clip.name, "ipaq5555", 0.05)
        packets = service.stream(session)
        frames = [p for p in packets if p.ptype is PacketType.FRAME]
        assert len(frames) == tiny_clip.frame_count
        assert packets[0].ptype is PacketType.ANNOTATION

    def test_serve_and_fetch_round_trip(self, tiny_clip, device, fast_params):
        service = api.StreamingService(fast_params).add_clip(tiny_clip)
        reference = service.stream(
            service.open_session(tiny_clip.name, "ipaq5555", 0.05)
        )

        async def run():
            async with service.serve() as server:
                return await service.fetch(
                    *server.address, tiny_clip.name, 0.05, "ipaq5555"
                )

        fetched = asyncio.run(run())
        assert fetched.attempts == 1
        assert len(fetched.packets) == len(reference)
        for got, ref in zip(fetched.packets, reference):
            assert got.ptype is ref.ptype and got.seq == ref.seq
            if ref.ptype is PacketType.FRAME:
                assert np.array_equal(got.frame.pixels, ref.frame.pixels)

    def test_archive_round_trip(self, tiny_clip, fast_params, tmp_path):
        service = api.StreamingService(fast_params).add_clip(tiny_clip)
        service.open_session(tiny_clip.name, "ipaq5555", 0.05)
        path = tmp_path / "clip.npz"
        service.export_archive(tiny_clip.name, path)
        fresh = api.StreamingService(fast_params)
        assert fresh.add_archive(path) == tiny_clip.name
        assert fresh.catalog() == (tiny_clip.name,)


class TestConfigObjectSurface:
    """The redesigned config-object API is one definition, visible
    from every public home (facade, top level, and repro.net)."""

    @pytest.mark.parametrize("name", ["ServeConfig", "FetchOptions"])
    def test_config_objects_are_single_definitions(self, name):
        import repro.net as net

        assert getattr(repro, name) is getattr(api, name)
        assert getattr(api, name) is getattr(net, name)

    @pytest.mark.parametrize("name", ["ServeConfig", "FetchOptions"])
    def test_config_objects_are_curated_exports(self, name):
        import repro.net as net

        assert name in repro.__all__
        assert name in api.__all__
        assert name in net.__all__

    def test_fleet_subpackage_reachable_from_top_level(self):
        assert "fleet" in repro.__all__
        assert repro.fleet.FleetCoordinator is not None

    def test_fetch_options_importable_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _ = repro.ServeConfig(batch_records=4)
            _ = repro.FetchOptions(max_retries=1)


class TestRetiredSpellings:
    """The pre-facade shims completed their deprecation cycle and are gone."""

    @pytest.mark.parametrize(
        "name", ["MediaServer", "MobileClient", "TranscodingProxy",
                 "AnnotationPipeline", "sweep_quality_levels", "EngineConfig",
                 "run_pipeline"]
    )
    def test_retired_top_level_aliases_raise(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_api

    def test_retired_names_not_in_all(self):
        for name in ("MediaServer", "AnnotationPipeline", "run_pipeline"):
            assert name not in repro.__all__

    def test_run_pipeline_removed_from_core(self):
        with pytest.raises(ImportError):
            from repro.core import run_pipeline  # noqa: F401
        import repro.core as core

        assert "run_pipeline" not in core.__all__

    def test_canonical_homes_still_export_the_building_blocks(self):
        from repro.core.pipeline import AnnotationPipeline  # noqa: F401
        from repro.core.pipeline import sweep_quality_levels  # noqa: F401
        from repro.streaming import MediaServer, MobileClient  # noqa: F401

    def test_supported_surface_importable_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _ = repro.AnnotationService
            _ = repro.StreamingService
            _ = repro.configure_engine
            _ = repro.api
