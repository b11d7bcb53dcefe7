"""Unit tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_clip_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["annotate", "nosferatu"])

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["savings", "catwoman", "--device", "palm"])


class TestCatalog:
    def test_lists_clips_and_devices(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "ice_age" in out
        assert "ipaq5555" in out
        assert "CCFL" in out


class TestAnnotate:
    def test_prints_scene_table(self, capsys):
        assert main(["annotate", "catwoman", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "scenes" in out
        assert "backlight" in out

    def test_writes_track_file(self, capsys, tmp_path):
        path = tmp_path / "track.bin"
        assert main(["annotate", "catwoman", "--scale", "0.2", "-o", str(path)]) == 0
        data = path.read_bytes()
        from repro.core import DeviceAnnotationTrack
        track = DeviceAnnotationTrack.from_bytes(data)
        assert track.frame_count > 0


class TestPolicyFlag:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["annotate", "catwoman", "--policy", "warp"])

    def test_annotate_with_alternative_policy(self, capsys):
        assert main(["annotate", "catwoman", "--scale", "0.2",
                     "--policy", "hebs"]) == 0
        out = capsys.readouterr().out
        assert "scenes" in out

    def test_stats_snapshot_distinguishes_policies(self, capsys):
        assert main(["annotate", "ice_age", "--scale", "0.1",
                     "--policy", "spatial", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "policy.spatial" in out
        assert "repro_policy_scenes_total{policy=spatial}" in out

    def test_policy_changes_the_annotation(self, capsys, tmp_path):
        tracks = {}
        for policy in ("clip-quality", "hebs"):
            path = tmp_path / f"{policy}.bin"
            assert main(["annotate", "catwoman", "--scale", "0.2",
                         "--policy", policy, "-o", str(path)]) == 0
            tracks[policy] = path.read_bytes()
        assert tracks["clip-quality"] != tracks["hebs"]
        assert tracks["clip-quality"][:4] == b"AND1"
        assert tracks["hebs"][:4] == b"AND2"


class TestSavings:
    def test_reports_both_savings(self, capsys):
        assert main(["savings", "spiderman2", "--scale", "0.15",
                     "--quality", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "backlight savings" in out
        assert "total savings" in out


class TestSweep:
    def test_subset_sweep(self, capsys):
        assert main(["sweep", "--clips", "ice_age", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ice_age" in out
        assert "20%" in out

    def test_row_per_clip(self, capsys):
        main(["sweep", "--clips", "ice_age", "catwoman", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.strip()]) == 3  # header + 2

    def test_positional_clips(self, capsys):
        assert main(["sweep", "ice_age", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ice_age" in out

    def test_positional_and_flag_clips_merge(self, capsys):
        main(["sweep", "ice_age", "--clips", "catwoman", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert "ice_age" in out and "catwoman" in out

    def test_unknown_positional_clip_rejected(self, capsys):
        assert main(["sweep", "nosferatu"]) == 2
        assert "unknown clip" in capsys.readouterr().err


class TestStatsFlags:
    def test_sweep_stats_adds_clipped_column_and_snapshot(self, capsys):
        assert main(["sweep", "ice_age", "--scale", "0.1", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "clipped" in out
        assert "telemetry snapshot" in out
        assert "pipeline.compensate" in out

    def test_annotate_stats_json_is_parseable(self, capsys):
        import json

        assert main(["annotate", "ice_age", "--scale", "0.1", "--stats-json"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert any(r["name"] == "repro_span_seconds" for r in records)

    def test_no_stats_flag_prints_no_snapshot(self, capsys):
        assert main(["savings", "ice_age", "--scale", "0.1"]) == 0
        assert "telemetry snapshot" not in capsys.readouterr().out


class TestTelemetryCommand:
    def test_table_dump(self, capsys):
        assert main(["telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry snapshot" in out
        assert "repro_backlight_switches_total" in out

    def test_prometheus_dump(self, capsys):
        assert main(["telemetry", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_span_seconds histogram" in out

    def test_jsonl_dump(self, capsys):
        import json

        assert main(["telemetry", "--format", "jsonl"]) == 0
        for line in capsys.readouterr().out.splitlines():
            json.loads(line)


class TestCalibrate:
    def test_prints_transfer(self, capsys):
        assert main(["calibrate", "--device", "ipaq3650"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "gamma" in out


class TestTrace:
    def test_prints_sparklines(self, capsys):
        assert main(["trace", "themovie", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "frame max lum" in out
        assert "power saved" in out


class TestValidationErrors:
    def test_bad_quality(self, capsys):
        assert main(["savings", "catwoman", "--quality", "2.0"]) == 2
        assert "quality" in capsys.readouterr().err

    def test_bad_scale(self, capsys):
        assert main(["savings", "catwoman", "--scale", "-1"]) == 2
        assert "scale" in capsys.readouterr().err


class TestReport:
    def test_runs_full_sweep(self, capsys):
        assert main(["report", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Figure 10" in out
        assert "headline" in out


class TestServe:
    def test_unknown_clip_rejected(self, capsys):
        assert main(["serve", "nosferatu"]) == 2
        assert "unknown clip" in capsys.readouterr().err

    def test_serves_for_duration_then_exits(self, capsys):
        assert main(["serve", "themovie", "--port", "0", "--scale", "0.05",
                     "--duration", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "serving 1 clip(s) on 127.0.0.1:" in out

    def test_capped_serve_prints_admission_and_drains(self, capsys):
        assert main(["serve", "themovie", "--port", "0", "--scale", "0.05",
                     "--duration", "0.3", "--max-sessions", "2"]) == 0
        out = capsys.readouterr().out
        assert "max sessions 2" in out
        assert "drained cleanly" in out

    def test_invalid_max_sessions_rejected(self, capsys):
        assert main(["serve", "themovie", "--port", "0",
                     "--max-sessions", "0"]) == 2
        assert "max-sessions" in capsys.readouterr().err


class TestStatus:
    def test_probes_live_server(self, capsys, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        try:
            assert main(["status", "--host", host, "--port", str(port)]) == 0
        finally:
            stop.set()
            thread.join(10)
        out = capsys.readouterr().out
        assert ": ready" in out
        assert ": yes" in out
        assert "waiting sessions" in out
        assert "resumable" not in out

    def test_unreachable_server_exits_nonzero(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["status", "--port", str(port), "--timeout", "1"]) == 1
        assert "unreachable" in capsys.readouterr().err


class TestFetch:
    @staticmethod
    def _serve_in_thread(service):
        """Host a StreamingService on a daemon thread; yields (addr, stop)."""
        import asyncio
        import threading

        ready = threading.Event()
        stop = threading.Event()
        box = {}

        async def run():
            async with service.serve() as srv:
                box["address"] = srv.address
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.02)

        thread = threading.Thread(target=lambda: asyncio.run(run()), daemon=True)
        thread.start()
        assert ready.wait(10), "server thread did not come up"
        return box["address"], stop, thread

    def test_round_trip_against_live_server(self, capsys, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = self._serve_in_thread(service)
        try:
            assert main(["fetch", tiny_clip.name, "--host", host,
                         "--port", str(port), "--quality", "0.05"]) == 0
        finally:
            stop.set()
            thread.join(10)
        out = capsys.readouterr().out
        assert "fetched" in out
        assert "total savings" in out
        assert "attempt(s)" in out

    def test_unknown_clip_is_negotiation_error(self, capsys, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = self._serve_in_thread(service)
        try:
            assert main(["fetch", "nosuch", "--host", host,
                         "--port", str(port), "--retries", "0"]) == 1
        finally:
            stop.set()
            thread.join(10)
        assert "rejected" in capsys.readouterr().err

    def test_dead_port_reports_error(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["fetch", "themovie", "--port", str(port),
                     "--retries", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestStatusExitCode:
    def test_accepting_server_exits_zero(self, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        try:
            assert main(["status", "--host", host, "--port", str(port)]) == 0
        finally:
            stop.set()
            thread.join(10)

    def test_non_accepting_server_exits_one(self, capsys, monkeypatch):
        """Exit-code contract: 0 only while the server accepts sessions,
        so shell scripts can gate deploys on `repro status`."""
        from repro import api
        from repro.net.messages import StatusInfo

        monkeypatch.setattr(
            api, "server_status_sync",
            lambda host, port, timeout_s=5.0: StatusInfo(
                state="draining", accepting=False,
                active_sessions=3, waiting_sessions=0,
            ),
        )
        assert main(["status", "--port", "1"]) == 1
        out = capsys.readouterr().out
        assert ": draining" in out
        assert ": no" in out


class TestStats:
    def test_table_snapshot_from_live_server(self, capsys, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        try:
            assert main(["stats", "--host", host, "--port", str(port)]) == 0
        finally:
            stop.set()
            thread.join(10)
        out = capsys.readouterr().out
        assert "server health:" in out
        assert "accepting" in out
        assert "repro_net_stats_probes_total" in out

    def test_json_and_prometheus_formats(self, capsys, tiny_clip, fast_params):
        import json

        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        try:
            assert main(["stats", "--host", host, "--port", str(port),
                         "--format", "json", "--events"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["health"]["accepting"] is True
            assert "metrics" in payload
            assert main(["stats", "--host", host, "--port", str(port),
                         "--format", "prometheus"]) == 0
            out = capsys.readouterr().out
            assert "# TYPE repro_net_stats_probes_total counter" in out
        finally:
            stop.set()
            thread.join(10)

    def test_watch_polls_count_times(self, capsys, tiny_clip, fast_params):
        from repro.api import StreamingService

        service = StreamingService(fast_params).add_clip(tiny_clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        try:
            assert main(["stats", "--host", host, "--port", str(port),
                         "--watch", "0.01", "--count", "2",
                         "--format", "json"]) == 0
        finally:
            stop.set()
            thread.join(10)
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2

    def test_unreachable_server_exits_one(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["stats", "--port", str(port), "--timeout", "1"]) == 1
        assert "unreachable" in capsys.readouterr().err


class TestTraceWire:
    @pytest.fixture
    def served_library_clip(self, fast_params):
        from repro.api import StreamingService
        from repro.video import make_clip

        clip = make_clip("spiderman2", resolution=(32, 24), duration_scale=0.1)
        service = StreamingService(fast_params).add_clip(clip)
        (host, port), stop, thread = TestFetch._serve_in_thread(service)
        yield clip, host, port
        stop.set()
        thread.join(10)

    def test_wire_trace_prints_linked_tree(self, capsys, served_library_clip):
        clip, host, port = served_library_clip
        assert main(["trace", clip.name, "--wire", "--host", host,
                     "--port", str(port), "--quality", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "net.fetch" in out
        assert "net.connect" in out
        # server-side spans came back over the stats probe
        assert "net.session" in out

    def test_wire_trace_jsonl_output(self, capsys, served_library_clip):
        import json

        clip, host, port = served_library_clip
        assert main(["trace", clip.name, "--wire", "--host", host,
                     "--port", str(port), "--quality", "0.05",
                     "--jsonl"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines() if line]
        assert len(rows) >= 5
        assert len({r["trace_id"] for r in rows}) == 1
        names = {r["name"] for r in rows}
        assert "net.fetch" in names and "net.session" in names

    def test_sparkline_mode_unchanged_without_wire(self, capsys):
        assert main(["trace", "themovie", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6 series" in out
        assert "net.fetch" not in out
