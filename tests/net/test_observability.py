"""End-to-end observability: linked traces, stats probes, flight recorder.

The acceptance scenarios of the tracing + live-ops layer:

* one fetch through a :class:`LossyTransport` — with retries and a
  session **resume** — still produces exactly one trace: every client
  and server span carries the same trace id, parent links resolve to a
  single root, no orphans;
* the ``stats`` wire probe answers with a full metrics snapshot (JSON
  or Prometheus text) without consuming an admission slot, including
  from a server that is at capacity (shedding) or draining;
* the flight recorder retains session open / resume / shed / drain
  events and ships them over the probe;
* per-fetch latency SLO stats (time-to-first-frame, inter-frame gaps,
  deadline misses) populate on every successful fetch.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    FaultSpec,
    LatencyStats,
    LossyTransport,
    ServeConfig,
    encode_packet_bytes,
    encode_hello,
    fetch_stats,
)
from repro.streaming import ClientCapabilities, MediaServer, SessionRequest
from repro.telemetry import (
    flight_events,
    parse_prometheus,
    registry_from_snapshot,
    span_events,
)
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05

#: Client-side span names a clean traced fetch must produce.
CLIENT_SPANS = {"net.fetch", "net.connect", "net.decode"}
#: Server-side span names a clean traced fetch must produce.
SERVER_SPANS = {"net.admission", "net.session", "net.produce",
                "net.encode", "net.queue.wait", "net.write",
                "net.window.wait"}


def _clip(name="obsclip", frames=24, height=16, width=12, seed=7):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, height, width, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _big_clip(name="obsbig", frames=60, seed=7):
    """Large enough that the server is provably mid-stream when the
    relay kills the connection, forcing a resume."""
    return _clip(name=name, frames=frames, height=96, width=72, seed=seed)


def _media_server(*clips):
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=8)
    )
    for clip in clips:
        server.add_clip(clip)
    return server


def _client(device, **kwargs):
    kwargs.setdefault("rng", random.Random(0))
    kwargs.setdefault("max_retries", 8)
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_max_s", 0.05)
    kwargs.setdefault("jitter_s", 0.0)
    return AsyncMobileClient(device, **kwargs)


def _trace_tree(trace_id):
    """(events, roots) for one trace from the process-wide collector."""
    events = span_events(trace_id=trace_id)
    ids = {e["span_id"] for e in events}
    roots = [e for e in events if e["parent_id"] not in ids]
    return events, roots


class TestLinkedTrace:
    def test_clean_fetch_yields_one_linked_tree(self, device):
        clip = _clip()
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(media) as server:
                return await _client(device).fetch(
                    *server.address, clip.name, QUALITY
                )

        result = asyncio.run(run())
        assert result.trace_id is not None
        events, roots = _trace_tree(result.trace_id)
        names = {e["name"] for e in events}
        assert CLIENT_SPANS <= names, names
        assert SERVER_SPANS <= names, names
        # one fetch -> one root, and it is the client's fetch span
        assert len(roots) == 1
        assert roots[0]["name"] == "net.fetch"
        assert roots[0]["parent_id"] is None
        # every span shares the fetch's trace id
        assert {e["trace_id"] for e in events} == {result.trace_id}
        # the server's admission span hangs under the client's connect
        connect = next(e for e in events if e["name"] == "net.connect")
        admission = next(e for e in events if e["name"] == "net.admission")
        assert admission["parent_id"] == connect["span_id"]
        # a completed session also left its policy binding in the
        # flight recorder
        binds = flight_events(kind="policy_bind")
        assert binds and binds[-1]["device"] == device.name

    def test_lossy_fetch_with_resume_stays_one_trace(self, device):
        """Retries and a mid-stream resume must not fork the trace."""
        clip = _big_clip()
        media = _media_server(clip)
        spec = FaultSpec(kill_after_records=4, max_faults=3, seed=3)

        async def run():
            async with AnnotationStreamServer(media) as server:
                async with LossyTransport(*server.address, spec=spec) as lossy:
                    return await _client(device).fetch(
                        *lossy.address, clip.name, QUALITY
                    )

        result = asyncio.run(run())
        assert result.attempts > 1, "the kill must force at least one retry"
        assert result.frame_count == clip.frame_count
        events, roots = _trace_tree(result.trace_id)
        names = [e["name"] for e in events]
        assert names.count("net.fetch") == 1
        assert names.count("net.connect") == result.attempts
        assert "net.retry" in names
        # resumed server sessions join the same trace: several session
        # spans, one tree, no orphans
        assert names.count("net.session") >= 2
        assert len(roots) == 1 and roots[0]["name"] == "net.fetch"
        ids = {e["span_id"] for e in events}
        for event in events:
            assert event["parent_id"] is None or event["parent_id"] in ids

    def test_latency_stats_populate_on_fetch(self, device):
        clip = _clip(name="sloclip")
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(media) as server:
                return await _client(device).fetch(
                    *server.address, clip.name, QUALITY
                )

        result = asyncio.run(run())
        slo = result.latency
        assert isinstance(slo, LatencyStats)
        assert slo.frame_count == clip.frame_count
        assert slo.ttff_s > 0.0
        assert slo.mean_gap_s >= 0.0
        assert slo.max_gap_s >= slo.mean_gap_s
        # loopback streams far faster than 24 fps playback
        assert slo.deadline_misses == 0


class TestStatsProbe:
    def test_probe_returns_snapshot_without_admission_slot(self, device):
        clip = _clip(name="statsclip")
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=1)
            ) as server:
                json_payload = await fetch_stats(*server.address)
                prom_payload = await fetch_stats(
                    *server.address, format="prometheus"
                )
                return json_payload, prom_payload, server.healthz()

        json_payload, prom_payload, health = asyncio.run(run())
        assert json_payload["health"]["accepting"] is True
        reg = registry_from_snapshot(json_payload["metrics"])
        probes = reg.get("repro_net_stats_probes_total")
        assert probes is not None and probes.value >= 1
        # probes never consumed a session slot
        assert health["active_sessions"] == 0
        samples = parse_prometheus(prom_payload["prometheus"])
        assert ("repro_net_stats_probes_total", ()) in samples

    def test_probe_answers_during_shed_with_flight_events(self, device):
        """At capacity with no accept queue, fetches shed — but the
        stats probe still answers and the recorder names the shed."""
        clip = _big_clip(name="shedstats", seed=21)
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(
                media, config=ServeConfig(max_sessions=1, accept_queue=0)
            ) as server:
                holder = _client(device)
                request = holder._player.request(clip.name, QUALITY)
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(encode_packet_bytes(encode_hello(request)))
                await writer.drain()
                await reader.readexactly(32)  # slot is held
                try:
                    from repro.net import StreamFetchError

                    with pytest.raises(StreamFetchError):
                        await _client(device, max_retries=0).fetch(
                            *server.address, clip.name, QUALITY
                        )
                    return await fetch_stats(*server.address,
                                             include_events=True)
                finally:
                    writer.transport.abort()

        payload = asyncio.run(run())
        assert payload["health"]["active_sessions"] == 1
        kinds = [e["kind"] for e in payload["events"]]
        assert "session_open" in kinds
        assert "session_shed" in kinds
        shed = next(e for e in payload["events"]
                    if e["kind"] == "session_shed")
        assert shed["max"] == 1 and shed["state"] == "ready"

    def test_probe_answers_during_drain(self, device):
        """A held session parks the drain; the probe answers meanwhile."""
        clip = _big_clip(name="drainstats", frames=96, seed=23)
        media = _media_server(clip)

        async def run():
            server = AnnotationStreamServer(
                media, config=ServeConfig(drain_timeout_s=10.0)
            )
            await server.start()
            address = server.address
            # Hold a session open: read the session record, then stop
            # draining the socket so the session blocks on backpressure.
            holder = _client(device)
            request = holder._player.request(clip.name, QUALITY)
            reader, writer = await asyncio.open_connection(*address)
            writer.write(encode_packet_bytes(encode_hello(request)))
            await writer.drain()
            await reader.readexactly(32)
            drain_task = asyncio.create_task(server.drain())
            for _ in range(100):
                if server.state == "draining":
                    break
                await asyncio.sleep(0.01)
            payload = await fetch_stats(*address, include_events=True)
            writer.transport.abort()  # release the held session
            await drain_task
            return payload

        payload = asyncio.run(run())
        assert payload["health"]["state"] == "draining"
        assert payload["health"]["accepting"] is False
        kinds = [e["kind"] for e in payload["events"]]
        assert "drain_begin" in kinds

    def test_probe_limit_caps_events_and_spans(self, device):
        clip = _clip(name="limitclip")
        media = _media_server(clip)

        async def run():
            async with AnnotationStreamServer(media) as server:
                await _client(device).fetch(*server.address, clip.name, QUALITY)
                return await fetch_stats(
                    *server.address, include_events=True,
                    include_spans=True, limit=2,
                )

        payload = asyncio.run(run())
        assert len(payload["events"]) <= 2
        assert len(payload["spans"]) <= 2


class TestLatencyStatsModel:
    def test_from_arrivals_counts_late_frames(self):
        # playback anchored at the first arrival; frame i due i/fps later
        stats = LatencyStats.from_arrivals(
            10.0, [10.5, 10.52, 10.5 + 2 / 24 + 0.01], fps=24.0
        )
        assert stats.ttff_s == pytest.approx(0.5)
        assert stats.frame_count == 3
        # frame 2 was due at 10.5 + 2/24 but arrived 10 ms later
        assert stats.deadline_misses == 1

    def test_from_arrivals_empty_returns_none(self):
        assert LatencyStats.from_arrivals(0.0, [], fps=24.0) is None

    def test_from_arrivals_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            LatencyStats.from_arrivals(0.0, [1.0], fps=0.0)

    def test_gaps_measured_between_consecutive_frames(self):
        stats = LatencyStats.from_arrivals(
            0.0, [1.0, 1.01, 1.03], fps=1000.0
        )
        assert stats.mean_gap_s == pytest.approx(0.015)
        assert stats.max_gap_s == pytest.approx(0.02)


class TestSessionRequestPlumbing:
    def test_reference_stream_unaffected_by_tracing(self, device):
        """In-process serving (no wire) emits no net.* spans."""
        clip = _clip(name="localclip")
        media = _media_server(clip)
        request = SessionRequest(
            clip.name, QUALITY, ClientCapabilities("ipaq5555")
        )
        list(media.stream(media.open_session(request)))
        names = {e["name"] for e in span_events()}
        assert not any(name.startswith("net.") for name in names)


class TestStatsMessages:
    def test_stats_request_roundtrip(self):
        from repro.net import decode_packet, encode_stats_request
        from repro.net.messages import decode_control

        packet = decode_packet(
            __import__("repro.net", fromlist=["encode_packet_bytes"])
            .encode_packet_bytes(encode_stats_request(
                format="prometheus", include_events=True,
                include_spans=True, limit=16,
            ))
        )
        message = decode_control(packet)
        assert message.kind == "stats"
        req = message.stats
        assert req.format == "prometheus"
        assert req.include_events and req.include_spans
        assert req.limit == 16

    def test_stats_request_validates_format_and_limit(self):
        from repro.net import encode_stats_request

        with pytest.raises(ValueError):
            encode_stats_request(format="xml")
        with pytest.raises(ValueError):
            encode_stats_request(limit=-1)

    def test_statsdump_roundtrip(self):
        from repro.net import encode_packet_bytes, decode_packet, encode_statsdump
        from repro.net.messages import decode_control

        payload = {"health": {"state": "ready"}, "metrics": {"metrics": []}}
        packet = decode_packet(encode_packet_bytes(encode_statsdump(payload)))
        message = decode_control(packet)
        assert message.kind == "statsdump"
        assert message.statsdump == payload

    def test_hello_carries_trace_ids(self, device):
        from repro.net import encode_packet_bytes, decode_packet, encode_hello
        from repro.net.messages import decode_control
        from repro.streaming import ClientCapabilities, SessionRequest

        request = SessionRequest("clip", 0.1, ClientCapabilities("ipaq5555"))
        packet = decode_packet(encode_packet_bytes(encode_hello(
            request, trace_id="ab" * 16, parent_span_id="cd" * 8,
        )))
        hello = decode_control(packet).hello
        assert hello.trace_id == "ab" * 16
        assert hello.parent_span_id == "cd" * 8
        # ids are optional: an untraced hello decodes with None ids
        bare = decode_control(
            decode_packet(encode_packet_bytes(encode_hello(request)))
        ).hello
        assert bare.trace_id is None and bare.parent_span_id is None
