"""End-to-end telemetry: the instrumented pipeline, caches, and services."""

import pytest

from repro.cli import main
from repro.core import AnnotationPipeline, ProfileCache, SchemeParameters
from repro.streaming import (
    BatteryAwareMiddleware,
    ClientCapabilities,
    MediaServer,
    SessionRequest,
    TranscodingProxy,
)
from repro.telemetry import SPAN_SECONDS, disable, enable, registry


def span_count(name: str) -> int:
    hist = registry().get(SPAN_SECONDS, labels={"span": name})
    return 0 if hist is None else hist.count


class TestPipelineSpans:
    def test_stage_spans_recorded(self, tiny_clip, device, fast_params):
        pipeline = AnnotationPipeline(fast_params)
        stream = pipeline.build_stream(tiny_clip, device)
        for _chunk in stream.iter_chunks():
            pass
        assert span_count("pipeline.profile") == 1
        assert span_count("pipeline.analyze") == 1
        assert span_count("pipeline.scene_grouping") == 1
        assert span_count("pipeline.clip") == 1
        assert span_count("pipeline.compensate") >= 1

    def test_engine_metrics_recorded(self, tiny_clip, fast_params):
        AnnotationPipeline(fast_params).profile(tiny_clip)
        frames = registry().series("repro_engine_frames_total")
        assert sum(m.value for m in frames) == tiny_clip.frame_count
        fps = registry().series("repro_engine_frames_per_sec")
        assert fps and all(m.value > 0 for m in fps)

    def test_disabled_pipeline_records_nothing(self, tiny_clip, device, fast_params):
        disable()
        try:
            AnnotationPipeline(fast_params).build_stream(tiny_clip, device)
        finally:
            enable()
        assert span_count("pipeline.profile") == 0
        assert registry().series("repro_engine_frames_total") == []


class TestCacheMetrics:
    def test_profile_cache_stats(self, tiny_clip, fast_params):
        cache = ProfileCache(max_entries=4)
        pipeline = AnnotationPipeline(fast_params, profile_cache=cache)
        pipeline.profile(tiny_clip)
        pipeline.profile(tiny_clip)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        series = registry().series("repro_cache_hits_total")
        assert any(m.value == 1 for m in series)

    def test_fresh_cache_counters_start_at_zero(self):
        before = len(registry().series("repro_cache_hits_total"))
        a = ProfileCache(max_entries=2)
        b = ProfileCache(max_entries=2)
        assert a.hits == b.hits == 0
        # each instance owns its own labelled series
        assert len(registry().series("repro_cache_hits_total")) == before + 2

    def test_cache_series_survive_registry_reset(self, tiny_clip, fast_params):
        from repro.telemetry import reset_registry

        cache = ProfileCache(max_entries=4)
        pipeline = AnnotationPipeline(fast_params, profile_cache=cache)
        pipeline.profile(tiny_clip)
        reset_registry()
        pipeline.profile(tiny_clip)  # hit: re-registers the orphaned series
        assert any(m.value == 1 for m in registry().series("repro_cache_hits_total"))

    def test_cache_used_across_resets_shows_in_snapshots(self):
        """The first lookup after each reset registers a cache's series
        again, so every later snapshot lists them."""
        from repro.telemetry import reset_registry, snapshot

        cache = ProfileCache(max_entries=1, kind="reset")
        cache.put("a", 1)

        def series():
            return {
                m["name"]: m["value"] for m in snapshot()["metrics"]
                if m["labels"].get("cache", "").startswith("reset-")
            }

        for round_ in range(1, 3):
            reset_registry()
            assert series() == {}
            assert cache.get("a") == 1
            assert cache.get("b") is None
            cache.put("b", 2)  # evicts "a"
            cache.put("a", 1)  # evicts "b"
            assert series() == {
                "repro_cache_hits_total": round_,
                "repro_cache_misses_total": round_,
                "repro_cache_evictions_total": 2 * round_,
                "repro_cache_entries": 1,
            }


class TestServiceCounters:
    def test_server_session_and_stream_counters(self, tiny_clip, fast_params):
        server = MediaServer(params=fast_params)
        server.add_clip(tiny_clip)
        request = SessionRequest("tiny", 0.05, ClientCapabilities("ipaq5555"))
        session = server.open_session(request)
        packets = list(server.stream(session))
        reg = registry()
        assert reg.get("repro_server_sessions_total").value == 1
        assert reg.get("repro_server_streams_total").value == 1
        frames = reg.get("repro_server_frames_streamed_total").value
        assert frames == tiny_clip.frame_count
        assert span_count("server.stream") == 1
        assert len(packets) > frames

    def test_proxy_window_counters(self, tiny_clip, device, fast_params):
        proxy = TranscodingProxy(
            device,
            params=fast_params,
            chunk_frames=max(1, tiny_clip.frame_count // 2),
        )
        out = list(proxy.annotate_live(tiny_clip.frames(), fps=tiny_clip.fps))
        assert len(out) == tiny_clip.frame_count
        reg = registry()
        assert reg.get("repro_proxy_frames_total").value == tiny_clip.frame_count
        assert reg.get("repro_proxy_windows_total").value == span_count("proxy.window")
        assert reg.get("repro_proxy_windows_total").value >= 2

    def test_middleware_adaptation_counters(self, tiny_clip, library_clip,
                                            device, fast_params):
        server = MediaServer(params=fast_params, qualities=(0.0, 0.05, 0.10))
        server.add_clip(tiny_clip)
        server.add_clip(library_clip)
        middleware = BatteryAwareMiddleware(server, device)
        plan = middleware.plan_session(["tiny", "spiderman2"],
                                       durations_s={"tiny": 3600.0,
                                                    "spiderman2": 3600.0})
        reg = registry()
        assert reg.get("repro_middleware_adaptations_total").value == len(plan.events)
        renegotiations = reg.get("repro_middleware_renegotiations_total").value
        changes = sum(
            1 for a, b in zip(plan.qualities(), plan.qualities()[1:]) if a != b
        )
        assert renegotiations == changes


class TestCliStats:
    def test_sweep_stats_table(self, capsys):
        assert main(["sweep", "themovie", "--scale", "0.1", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "telemetry snapshot" in out
        assert "pipeline.profile" in out
        assert "pipeline.clip" in out
        assert "pipeline.compensate" in out
        assert "repro_engine_frames_per_sec" in out
        assert "caches:" in out

    def test_savings_stats_json(self, capsys):
        assert main(["savings", "themovie", "--scale", "0.1", "--stats-json"]) == 0
        out = capsys.readouterr().out
        import json
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        names = {r["name"] for r in records}
        assert "repro_span_seconds" in names
        assert "repro_backlight_switches_total" in names

    def test_telemetry_subcommand_formats(self, capsys):
        assert main(["telemetry", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_span_seconds histogram" in out
        from repro.telemetry import parse_prometheus
        body = "\n".join(l for l in out.splitlines())
        assert parse_prometheus(body)
