"""Command-line interface: ``python -m repro <command>``.

Subcommands map to the library's main workflows, all routed through the
:mod:`repro.api` facade:

* ``catalog``   — list the clip library and device registry;
* ``annotate``  — annotate one clip for a device and show (or save) the track;
* ``savings``   — backlight + total-device savings for one clip;
* ``sweep``     — the Figure 9 table (clips x quality levels);
* ``serve``     — host library clips on an asyncio TCP stream server
  (admission control via ``--max-sessions``/``--accept-queue``, graceful
  drain via ``--drain-timeout``);
  with ``--shards N`` it runs a sharded multi-process fleet instead —
  N worker servers behind one consistent-hash router address — and
  prints every shard's actually-bound port;
* ``fetch``     — pull a stream from a running server and play it;
  both ``serve`` and ``fetch`` accept ``--profile [FILE]`` to dump a
  sorted-by-cumtime profile of the run (yappi when installed, else
  cProfile);
* ``status``    — probe a running server's health/readiness (exit code 0
  when the server is accepting sessions, 1 otherwise);
* ``fleet``     — fleet operations against a running router;
  ``fleet status`` prints the topology (per-shard bound ports,
  liveness, load) from the router's ``stats`` probe;
* ``stats``     — scrape a running server's live metrics snapshot and
  flight-recorder tail over the admission-bypassing ``stats`` probe
  (``--watch`` re-polls on an interval);
* ``calibrate`` — camera characterization of a device (Figures 7/8);
* ``trace``     — Figure 6 sparklines for one clip, or with ``--wire``
  fetch the clip from a running server and print the linked
  client+server distributed trace (``--jsonl`` for machine output);
* ``telemetry`` — run a demo pipeline and dump the metrics registry.

The annotation workflows (``annotate``, ``savings``, ``sweep``) accept
``--stats`` (human table) and ``--stats-json`` (JSON-lines) to print the
process-wide telemetry snapshot after the run, and ``--policy`` to pick
the backlight policy (``clip-quality``, ``hebs``, ``spatial``).
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
import time
from typing import List, Optional

from .api import (
    AnnotationService,
    FetchOptions,
    ServeConfig,
    StreamingService,
    fetch_stream_sync,
)
from .core import (
    ENGINE_KINDS,
    POLICY_NAMES,
    QUALITY_LEVELS,
    SchemeParameters,
    quality_label,
)
from .display import DEVICE_REGISTRY, get_device
from .video import EXTENDED_CLIP_NAMES, PAPER_CLIP_NAMES, make_clip
from . import telemetry, viz


ALL_CLIP_NAMES = PAPER_CLIP_NAMES + EXTENDED_CLIP_NAMES

#: Rows printed by ``--profile`` (sorted by cumulative time).
_PROFILE_ROWS = 30


class _maybe_profile:
    """Context manager behind ``--profile``: collect and dump a profile.

    ``destination`` is ``None`` (disabled), ``"-"`` (print the table to
    stderr) or a path.  Prefers ``yappi`` when importable — it follows
    the compute threads the wire server compensates on — and falls back
    to :mod:`cProfile`, which only sees the calling thread (for
    ``serve``/``fetch`` that is the asyncio event loop: the send/receive
    path, not the compensation workers).  Either way the dump is a
    sorted-by-cumulative-time :mod:`pstats` table of the top
    ``_PROFILE_ROWS`` functions.
    """

    def __init__(self, destination: Optional[str]):
        self.destination = destination
        self._yappi = None
        self._profile = None

    def __enter__(self):
        if self.destination is None:
            return self
        try:
            import yappi

            self._yappi = yappi
            yappi.set_clock_type("wall")
            yappi.start()
        except ImportError:
            import cProfile

            self._profile = cProfile.Profile()
            self._profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.destination is None:
            return False
        import pstats

        if self._yappi is not None:
            self._yappi.stop()
            stats = self._yappi.convert2pstats(self._yappi.get_func_stats())
            engine = "yappi (all threads)"
        else:
            self._profile.disable()
            stats = pstats.Stats(self._profile)
            engine = "cProfile (main thread only)"
        if self.destination == "-":
            stream = sys.stderr
            close = False
        else:
            stream = open(self.destination, "w")
            close = True
        try:
            stream.write(f"profile: {engine}, sorted by cumulative time\n")
            stats.stream = stream
            stats.sort_stats("cumulative").print_stats(_PROFILE_ROWS)
        finally:
            if close:
                stream.close()
                print(f"profile written to {self.destination}", file=sys.stderr)
        return False


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="FILE",
        help="dump a sorted-by-cumtime profile after the run "
             "(to FILE, or stderr when the path is omitted; uses yappi "
             "when installed, else cProfile)",
    )


def _add_clip_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("clip", choices=ALL_CLIP_NAMES, help="library clip name")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", default="ipaq5555", choices=sorted(DEVICE_REGISTRY),
                        help="client device profile")
    parser.add_argument("--quality", type=float, default=0.10,
                        help="clip fraction allowed to saturate (0-1)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="duration scale for the synthetic clip")
    parser.add_argument("--engine", default=None, choices=ENGINE_KINDS,
                        help="execution engine for the profiling pass "
                             "(default: chunked)")
    parser.add_argument("--policy", default=None, choices=POLICY_NAMES,
                        help="backlight policy for annotation "
                             "(default: clip-quality)")


def _add_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print the telemetry snapshot after the run")
    parser.add_argument("--stats-json", action="store_true",
                        help="print the telemetry snapshot as JSON-lines")


def cmd_catalog(args: argparse.Namespace) -> int:
    """List the clip library and the device registry."""
    print("clips (paper):")
    for name in PAPER_CLIP_NAMES:
        print(f"  {name}")
    print("clips (extended):")
    for name in EXTENDED_CLIP_NAMES:
        print(f"  {name}")
    print("devices:")
    for name in sorted(DEVICE_REGISTRY):
        device = get_device(name)
        print(f"  {name:<16} {device.backlight.kind:>5} backlight, "
              f"{device.panel.panel_type.value} panel")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    """Annotate one clip for a device; print or save the track."""
    clip = make_clip(args.clip, duration_scale=args.scale)
    service = AnnotationService(
        SchemeParameters(quality=args.quality), engine=args.engine,
        policy=args.policy,
    )
    track = service.annotate_for_device(clip, args.device)
    print(f"{args.clip} on {args.device} at quality {quality_label(args.quality)}: "
          f"{len(track.scenes)} scenes, {track.nbytes} bytes")
    print(f"{'scene':>5} {'frames':>12} {'backlight':>9} {'gain':>7}")
    for k, scene in enumerate(track.scenes):
        print(f"{k:>5} {f'{scene.start}-{scene.end - 1}':>12} "
              f"{scene.backlight_level:>9} {scene.compensation_gain:>7.2f}")
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(track.to_bytes())
        print(f"track written to {args.output}")
    return 0


def cmd_savings(args: argparse.Namespace) -> int:
    """Backlight and total-device savings for one clip."""
    clip = make_clip(args.clip, duration_scale=args.scale)
    device = get_device(args.device)
    service = AnnotationService(
        SchemeParameters(quality=args.quality), engine=args.engine,
        policy=args.policy,
    )
    stream = service.build_stream(clip, device)

    from .player import PlaybackEngine
    result = PlaybackEngine(device).play(stream)
    print(f"{args.clip} on {args.device} at quality {quality_label(args.quality)}:")
    print(f"  backlight savings : {stream.predicted_backlight_savings():.1%}")
    print(f"  total savings     : {result.total_savings:.1%}")
    print(f"  clipped pixels    : {stream.mean_clipped_fraction(sample_every=5):.2%}")
    print(f"  backlight switches: {result.switch_count}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Print the Figure 9 savings table.

    With ``--stats``/``--stats-json`` the sweep also streams each clip's
    most aggressive variant through the batched compensation path, so
    the telemetry snapshot covers the full profile → clip → compensate
    hot path and the table gains a clipped-pixels column.
    """
    device = get_device(args.device)
    clips = list(args.clip_names) + list(args.clips or [])
    for name in clips:
        if name not in ALL_CLIP_NAMES:
            print(f"error: unknown clip {name!r}", file=sys.stderr)
            return 2
    if not clips:
        clips = list(PAPER_CLIP_NAMES)
    with_stats = args.stats or args.stats_json
    header = f"{'clip':<22}" + "".join(f"{quality_label(q):>8}" for q in QUALITY_LEVELS)
    if with_stats:
        header += f"{'clipped':>9}"
    print(header)
    service = AnnotationService(engine=args.engine, policy=args.policy)
    for name in clips:
        clip = make_clip(name, duration_scale=args.scale)
        streams = service.sweep(clip, device, QUALITY_LEVELS)
        row = [s.predicted_backlight_savings() for s in streams]
        line = f"{name:<22}" + "".join(f"{v:>8.1%}" for v in row)
        if with_stats:
            stream = streams[-1]
            # Compensate even when the profile answers the fraction, so
            # the snapshot covers that stage.
            for _chunk in stream.iter_chunks():
                pass
            line += f"{stream.mean_clipped_fraction():>9.2%}"
        print(line)
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Exercise the pipeline end to end, then dump the metrics registry."""
    from .core import shared_profile_cache
    from .player import PlaybackEngine

    clip = make_clip(args.clip, duration_scale=args.scale)
    device = get_device(args.device)
    service = AnnotationService(
        SchemeParameters(quality=args.quality),
        engine=args.engine,
        profile_cache=shared_profile_cache(),
        policy=args.policy,
    )
    stream = service.build_stream(clip, device)
    PlaybackEngine(device).play(stream)
    if args.format == "jsonl":
        sys.stdout.write(telemetry.to_jsonl())
    elif args.format == "prometheus":
        sys.stdout.write(telemetry.to_prometheus())
    else:
        print(telemetry.format_table())
    return 0


def _build_catalog(names: List[str], scale: float, engine, policy):
    """Build the MediaServer behind ``repro serve`` / every fleet shard.

    Module-level (used through :func:`functools.partial`) so the fleet's
    :class:`~repro.fleet.worker.WorkerSpec` can pickle it into worker
    processes.
    """
    service = StreamingService(engine=engine, policy=policy)
    for name in names:
        service.add_clip(make_clip(name, duration_scale=scale))
    return service.server


def _flight_tail_dump(limit: int) -> None:
    """Print the flight-recorder tail after a serve run."""
    tail = telemetry.flight_events(limit=limit) if limit > 0 else []
    if tail:
        print(f"flight recorder (last {len(tail)} events):", flush=True)
        for event in tail:
            print(f"  {_format_flight_event(event)}", flush=True)


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    """The :class:`ServeConfig` shared by single-serve and fleet paths."""
    return ServeConfig(
        max_sessions=args.max_sessions,
        accept_queue=args.accept_queue,
        drain_timeout_s=args.drain_timeout,
        ambient=args.ambient,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Host library clips on an asyncio TCP annotation-stream server.

    With ``--shards N`` (N >= 2) this runs the multi-process fleet:
    N worker servers over the same catalog behind one consistent-hash
    router address.
    """
    names = list(args.clip_names) or ["themovie"]
    for name in names:
        if name not in ALL_CLIP_NAMES:
            print(f"error: unknown clip {name!r}", file=sys.stderr)
            return 2
    if args.max_sessions is not None and args.max_sessions < 1:
        print("error: --max-sessions must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    try:
        config = _serve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _serve_fleet(args, names, config)
    service = StreamingService(engine=args.engine, policy=args.policy)
    for name in names:
        service.add_clip(make_clip(name, duration_scale=args.scale))

    async def run() -> None:
        srv = service.serve(host=args.host, port=args.port, config=config)
        await srv.start()
        host, port = srv.address
        cap = args.max_sessions if args.max_sessions is not None else "unlimited"
        print(f"serving {len(names)} clip(s) on {host}:{port} "
              f"(max sessions {cap})",
              flush=True)
        try:
            if args.duration is not None:
                try:
                    await asyncio.wait_for(srv.serve_forever(), timeout=args.duration)
                except asyncio.TimeoutError:
                    pass
            else:
                await srv.serve_forever()
        finally:
            completed = await srv.drain(args.drain_timeout)
            print("drained cleanly" if completed
                  else "drain deadline hit; stragglers cancelled", flush=True)
            _flight_tail_dump(args.flight_tail)

    try:
        with _maybe_profile(args.profile):
            asyncio.run(run())
    except KeyboardInterrupt:
        print("server stopped")
    return 0


def _serve_fleet(args: argparse.Namespace, names: List[str],
                 config: ServeConfig) -> int:
    """The ``repro serve --shards N`` path: coordinator + router."""
    from .fleet import FleetCoordinator, FleetError

    factory = functools.partial(
        _build_catalog, names, args.scale, args.engine, args.policy
    )
    coordinator = FleetCoordinator(
        factory,
        shards=args.shards,
        config=config,
        host=args.host,
        port=args.port,
    )

    async def run() -> None:
        host, port = await coordinator.start()
        try:
            print(f"fleet of {args.shards} shard(s) serving {len(names)} "
                  f"clip(s); router on {host}:{port}", flush=True)
            for shard in coordinator.status()["shards"]:
                print(f"  {shard['shard']}: {host}:{shard['port']} "
                      f"(pid {shard['pid']})", flush=True)
            if args.duration is not None:
                try:
                    await asyncio.wait_for(
                        coordinator.router.serve_forever(),
                        timeout=args.duration,
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await coordinator.router.serve_forever()
        finally:
            await coordinator.stop()
            print("fleet stopped", flush=True)
            _flight_tail_dump(args.flight_tail)

    try:
        with _maybe_profile(args.profile):
            asyncio.run(run())
    except KeyboardInterrupt:
        print("fleet stopped")
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """Print a running fleet's topology from the router's stats probe.

    Exit code 0 when at least one shard is alive and the fleet is
    accepting sessions, 1 otherwise (or when the router is unreachable).
    """
    from .api import server_stats_sync

    try:
        payload = server_stats_sync(args.host, args.port,
                                    timeout_s=args.timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"error: router unreachable: {exc}", file=sys.stderr)
        return 1
    fleet = payload.get("fleet")
    if fleet is None:
        print("error: server did not report a fleet section "
              "(single-process server?)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(fleet, sort_keys=True))
        health = payload.get("health", {})
        return 0 if health.get("accepting") else 1
    router = fleet.get("router", {})
    health = payload.get("health", {})
    print(f"router    : {router.get('host')}:{router.get('port')}")
    print(f"accepting : {'yes' if health.get('accepting') else 'no'}")
    print(f"active    : {health.get('active_sessions', 0)} session(s)")
    print(f"{'shard':<12} {'address':<22} {'alive':<6} {'state':<9} "
          f"{'active':>7}")
    for shard in fleet.get("shards", []):
        address = f"{shard.get('host')}:{shard.get('port')}"
        active = shard.get("active_sessions")
        print(f"{shard.get('shard', '?'):<12} {address:<22} "
              f"{'yes' if shard.get('alive') else 'no':<6} "
              f"{str(shard.get('state')):<9} "
              f"{'-' if active is None else active:>7}")
    return 0 if health.get("accepting") else 1


def cmd_status(args: argparse.Namespace) -> int:
    """Probe a running server's health/readiness (/healthz over the wire)."""
    from .api import server_status_sync

    try:
        status = server_status_sync(args.host, args.port, timeout_s=args.timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"error: server unreachable: {exc}", file=sys.stderr)
        return 1
    cap = status.max_sessions if status.max_sessions is not None else "unlimited"
    print(f"state             : {status.state}")
    print(f"accepting         : {'yes' if status.accepting else 'no'}")
    print(f"active sessions   : {status.active_sessions} (cap {cap})")
    print(f"waiting sessions  : {status.waiting_sessions}")
    return 0 if status.accepting else 1


def _format_flight_event(event: dict) -> str:
    """One flight-recorder event as a single log-style line."""
    fields = {k: v for k, v in event.items() if k not in ("ts", "kind")}
    detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    return f"{event.get('ts', 0.0):.3f} {event.get('kind', '?'):<18} {detail}".rstrip()


def _print_stats_payload(payload: dict, fmt: str) -> None:
    """Render one statsdump payload in the selected format."""
    if fmt == "prometheus":
        sys.stdout.write(payload.get("prometheus", ""))
        return
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    health = payload.get("health", {})
    print("server health:")
    for key in sorted(health):
        print(f"  {key:<18}: {health[key]}")
    metrics = payload.get("metrics")
    if metrics is not None:
        print(telemetry.format_table(telemetry.registry_from_snapshot(metrics)))
    events = payload.get("events")
    if events:
        print(f"flight recorder (last {len(events)} events):")
        for event in events:
            print(f"  {_format_flight_event(event)}")


def cmd_stats(args: argparse.Namespace) -> int:
    """Scrape a running server's live observability snapshot."""
    from .api import server_stats_sync

    wire_format = "prometheus" if args.format == "prometheus" else "json"
    polls = 0
    while True:
        try:
            payload = server_stats_sync(
                args.host, args.port, timeout_s=args.timeout,
                format=wire_format, include_events=args.events,
                include_spans=args.spans, limit=args.limit,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            print(f"error: server unreachable: {exc}", file=sys.stderr)
            return 1
        polls += 1
        if args.watch is not None and polls > 1:
            print()
        _print_stats_payload(payload, args.format)
        if args.watch is None or (args.count is not None and polls >= args.count):
            return 0
        sys.stdout.flush()
        time.sleep(args.watch)


def cmd_fetch(args: argparse.Namespace) -> int:
    """Fetch one stream from a running server and play it back."""
    from .net import StreamFetchError
    from .streaming import MobileClient, NegotiationError

    try:
        options = FetchOptions(
            max_retries=args.retries,
            battery_trace=args.battery_trace,
            ambient_trace=args.ambient_trace,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with _maybe_profile(args.profile):
            fetched = fetch_stream_sync(
                args.host, args.port, args.clip, args.quality, args.device,
                options=options,
            )
    except (StreamFetchError, NegotiationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = MobileClient(get_device(args.device)).play_stream(
        fetched.session, fetched.packets
    )
    session = fetched.session
    print(f"{session.clip_name} on {args.device} at quality "
          f"{quality_label(session.quality)} (session #{session.session_id}):")
    print(f"  fetched           : {len(fetched.packets)} packets, "
          f"{fetched.frame_count} frames, {fetched.attempts} attempt(s)")
    for req in fetched.requalities:
        if req.applied:
            what = []
            if req.quality is not None:
                what.append(f"quality {quality_label(req.quality)}")
            if req.ambient is not None:
                what.append(f"ambient {req.ambient}")
            print(f"  requality         : {' + '.join(what)} "
                  f"applied at frame {req.frame}")
        else:
            print(f"  requality         : rejected ({req.error})")
    print(f"  total savings     : {result.total_savings:.1%}")
    print(f"  backlight switches: {result.switch_count}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Camera characterization of a device (Figures 7/8)."""
    from . import experiments

    device = get_device(args.device)
    fig7 = experiments.figure7(devices=[device])
    print(f"{args.device}: measured backlight transfer (Figure 7)")
    for level, lum in zip(fig7.levels, fig7.curves[device.name]):
        print(f"  {level:>3} {viz.bar(lum)} {lum:.3f}")
    gamma = experiments.figure8(device).fitted_gamma
    print(f"white-transfer gamma (Figure 8 fit): {gamma:.3f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run the full reproduction sweep and print every table."""
    from . import experiments

    print("=== backlight share (Section 4) ===")
    print(experiments.backlight_share().format())
    print("\n=== Figure 7: backlight transfer curves ===")
    print(experiments.figure7().format())
    print("\n=== Figure 9: simulated backlight savings ===")
    fig9 = experiments.figure9(duration_scale=args.scale)
    print(fig9.format())
    print("\n=== Figure 10: measured total-device savings ===")
    print(experiments.figure10(duration_scale=args.scale).format())
    name, value = fig9.best_clip()
    print(f"\nheadline: best clip {name} saves {value:.1%} backlight power at 20%")
    return 0


def _cmd_trace_wire(args: argparse.Namespace) -> int:
    """Fetch a clip over the wire and print the linked distributed trace.

    One fetch yields one trace: the client's ``net.fetch`` tree plus the
    server-side spans scraped back over the ``stats`` probe, merged by
    trace id into a single parent→child tree (or JSON-lines with
    ``--jsonl``).
    """
    from .api import server_stats_sync
    from .net import StreamFetchError
    from .streaming import NegotiationError

    try:
        fetched = fetch_stream_sync(
            args.host, args.port, args.clip, args.quality, args.device,
            options=FetchOptions(max_retries=args.retries),
        )
    except (StreamFetchError, NegotiationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace_id = fetched.trace_id
    if trace_id is None:
        print("error: tracing is disabled; enable telemetry to record a "
              "wire trace", file=sys.stderr)
        return 1
    events = list(telemetry.span_events(trace_id=trace_id))
    try:
        payload = server_stats_sync(
            args.host, args.port, timeout_s=5.0, include_spans=True,
        )
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"warning: stats probe failed ({exc}); showing client spans only",
              file=sys.stderr)
        payload = {}
    seen = {event.get("span_id") for event in events}
    for event in payload.get("spans", []):
        if event.get("trace_id") == trace_id and event.get("span_id") not in seen:
            events.append(event)
    if args.jsonl:
        sys.stdout.write(telemetry.spans_to_jsonl(events, trace_id=trace_id))
    else:
        print(f"{args.clip} fetched in {fetched.attempts} attempt(s), "
              f"{len(events)} spans:")
        print(telemetry.format_trace_tree(events, trace_id=trace_id))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print the Figure 6 series as sparklines (or, with ``--wire``,
    fetch the clip from a server and print the distributed trace)."""
    if args.wire:
        return _cmd_trace_wire(args)
    clip = make_clip(args.clip, duration_scale=args.scale)
    device = get_device(args.device)
    service = AnnotationService(
        SchemeParameters(quality=args.quality), engine=args.engine,
        policy=args.policy,
    )
    profile = service.profile(clip)
    stream = service.build_stream(clip, device)
    print(f"{args.clip} at quality {quality_label(args.quality)} (Figure 6 series):")
    print(viz.series_table({
        "frame max lum": profile.max_luminance_series(),
        "scene max lum": profile.scene_max_series(),
        "power saved": stream.instantaneous_savings(),
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Annotation-driven backlight power optimization (DATE 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list clips and devices").set_defaults(fn=cmd_catalog)

    p = sub.add_parser("annotate", help="annotate a clip for a device")
    _add_clip_arg(p)
    _add_common(p)
    _add_stats(p)
    p.add_argument("-o", "--output", help="write the binary track to a file")
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("savings", help="power savings for one clip")
    _add_clip_arg(p)
    _add_common(p)
    _add_stats(p)
    p.set_defaults(fn=cmd_savings)

    p = sub.add_parser("sweep", help="Figure 9 table across clips and qualities")
    # no choices= here: argparse rejects the empty default of a positional
    # nargs="*" against a choices list, so cmd_sweep validates names itself
    p.add_argument("clip_names", nargs="*", metavar="clip",
                   help="clips to sweep (default: the paper's ten)")
    _add_common(p)
    _add_stats(p)
    p.add_argument("--clips", nargs="*", choices=ALL_CLIP_NAMES,
                   help="subset of clips (default: the paper's ten)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("serve", help="host clips on an asyncio TCP stream server")
    p.add_argument("clip_names", nargs="*", metavar="clip",
                   help="clips to serve (default: themovie)")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8765,
                   help="bind port (0 picks a free port)")
    p.add_argument("--max-sessions", type=int, default=None,
                   help="admission-control cap on concurrent sessions "
                        "(default: unlimited)")
    p.add_argument("--accept-queue", type=int, default=8,
                   help="over-cap connections that may wait for a slot "
                        "before being shed with BUSY")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="graceful-drain deadline on shutdown, in seconds")
    p.add_argument("--ambient", default=None, metavar="SPEC",
                   help="serve-time ambient: a preset name (office), an "
                        "illuminance in lux, or a light-sensor trace "
                        "('0:dark-room,30:office'); scenes are bound "
                        "under the trace condition at their start time")
    p.add_argument("--shards", type=int, default=1,
                   help="run N worker server processes behind a "
                        "consistent-hash router (default: 1, no fleet)")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for N seconds then exit (default: forever)")
    p.add_argument("--flight-tail", type=int, default=16,
                   help="flight-recorder events to dump after drain "
                        "(0 disables the dump)")
    p.add_argument("--scale", type=float, default=0.5,
                   help="duration scale for the synthetic clips")
    p.add_argument("--engine", default=None, choices=ENGINE_KINDS,
                   help="execution engine for the profiling pass")
    p.add_argument("--policy", default=None, choices=POLICY_NAMES,
                   help="backlight policy for annotation "
                        "(default: clip-quality)")
    _add_profile_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("status", help="probe a running server's health/readiness")
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, default=8765, help="server port")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="probe connect/read timeout, in seconds")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("fleet", help="operate on a running serving fleet")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    fp = fleet_sub.add_parser("status",
                              help="print the fleet topology from the router")
    fp.add_argument("--host", default="127.0.0.1", help="router address")
    fp.add_argument("--port", type=int, default=8765, help="router port")
    fp.add_argument("--timeout", type=float, default=5.0,
                    help="probe connect/read timeout, in seconds")
    fp.add_argument("--json", action="store_true",
                    help="emit the fleet section as JSON instead of a table")
    fp.set_defaults(fn=cmd_fleet_status)

    p = sub.add_parser("stats", help="scrape a running server's live metrics")
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, default=8765, help="server port")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="probe connect/read timeout, in seconds")
    p.add_argument("--format", default="table",
                   choices=("table", "json", "prometheus"),
                   help="snapshot rendering (default: table)")
    p.add_argument("--events", action="store_true",
                   help="include the server's flight-recorder tail")
    p.add_argument("--spans", action="store_true",
                   help="include the server's collected trace spans")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the events/spans returned per probe")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="re-poll every SECONDS instead of probing once")
    p.add_argument("--count", type=int, default=None,
                   help="with --watch, stop after N polls (default: forever)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("fetch", help="fetch a stream from a server and play it")
    p.add_argument("clip", help="clip name to request")
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, default=8765, help="server port")
    p.add_argument("--device", default="ipaq5555", choices=sorted(DEVICE_REGISTRY),
                   help="client device profile")
    p.add_argument("--quality", type=float, default=0.10,
                   help="requested quality level (0-1)")
    p.add_argument("--retries", type=int, default=4,
                   help="fetch retries after transient failures")
    p.add_argument("--battery-trace", default=None, metavar="SPEC",
                   help="battery load trace ('t:watts,...' or bare "
                        "wattage); enables the battery-aware client, "
                        "which steps down the quality ladder mid-stream "
                        "as the modeled state of charge drops")
    p.add_argument("--ambient-trace", default=None, metavar="SPEC",
                   help="simulated light-sensor trace "
                        "('0:dark-room,30:office' or a bare ambient); "
                        "the client requests an ambient re-bind when "
                        "the condition changes during playback")
    _add_profile_arg(p)
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("telemetry", help="demo run + metrics registry dump")
    p.add_argument("clip", nargs="?", default="themovie", choices=ALL_CLIP_NAMES,
                   help="library clip name (default: themovie)")
    _add_common(p)
    p.set_defaults(scale=0.15)
    p.add_argument("--format", default="table",
                   choices=("table", "jsonl", "prometheus"),
                   help="registry dump format")
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser("calibrate", help="camera characterization of a device")
    p.add_argument("--device", default="ipaq5555", choices=sorted(DEVICE_REGISTRY))
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("trace",
                       help="Figure 6 sparklines, or --wire distributed trace")
    _add_clip_arg(p)
    _add_common(p)
    p.add_argument("--wire", action="store_true",
                   help="fetch the clip from a running server and print the "
                        "linked client+server trace instead of sparklines")
    p.add_argument("--host", default="127.0.0.1",
                   help="server address (with --wire)")
    p.add_argument("--port", type=int, default=8765,
                   help="server port (with --wire)")
    p.add_argument("--retries", type=int, default=4,
                   help="fetch retries after transient failures (with --wire)")
    p.add_argument("--jsonl", action="store_true",
                   help="emit the trace as JSON-lines instead of a tree "
                        "(with --wire)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("report", help="run the full reproduction sweep")
    p.add_argument("--scale", type=float, default=0.15,
                   help="duration scale for the synthetic clips")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if not 0.0 <= getattr(args, "quality", 0.0) <= 1.0:
        print("error: --quality must be in [0, 1]", file=sys.stderr)
        return 2
    if getattr(args, "scale", 1.0) <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    rc = args.fn(args)
    if rc == 0 and getattr(args, "stats", False):
        print()
        print(telemetry.format_table())
    if rc == 0 and getattr(args, "stats_json", False):
        sys.stdout.write(telemetry.to_jsonl())
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
