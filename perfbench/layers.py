"""Per-layer metrics of a traced phase, and the stage ledgers.

Sources, all read after the phase (see METHODS.md for the layer map):

* benchmark spans ``perfbench.*`` recorded by ``TracedMediaServer`` in
  each server process, and the program's own spans and counters there,
  scraped before and after the phase through ``server_stats``;
* the load generator's own registry (client spans ``net.connect`` /
  ``net.decode`` and client counters);
* per-process CPU from ``/proc`` and the delivered sessions themselves.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from .harness import CPUS, Phase, Stats
from .workloads import FRAMES_COMPENSATED, PROFILE_MISSES

#: name -> unit, in report order.
PER_LAYER = {
    "core.profile_ms_per_clip": "ms",
    "core.profile_calls": "count",
    "core.profile_cache_hit_frac": "frac",
    "core.track_ms": "ms",
    "core.bind_ms_per_session": "ms",
    "core.compensate_us_per_frame": "us",
    "streaming.emit_us_per_frame": "us",
    "streaming.first_group_ms": "ms",
    "streaming.switches_applied_per_session": "count",
    "streaming.switch_applied_frac": "frac",
    "streaming.useful_record_frac": "frac",
    "net.encode_us_per_record": "us",
    "net.decode_us_per_record": "us",
    "net.wire_bytes_per_frame": "B",
    "net.admission_ms": "ms",
    "net.first_byte_enqueued_ms": "ms",
    "net.produce_us_per_frame": "us",
    "net.queue_wait_ms_per_session": "ms",
    "net.write_us_per_record": "us",
    "net.records_per_batch": "count",
    "client.connect_ms": "ms",
    "client.resumes_per_session": "count",
    "client.reconnect_stall_ms": "ms",
    "client.retries_per_session": "count",
    "fleet.route_ms": "ms",
    "fleet.router_cpu_us_per_record": "us",
    "fleet.spillover_frac": "frac",
    "fleet.adopted_sessions": "count",
    "proc.server_busy_frac": "frac",
    "proc.client_busy_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_span(stats: Stats, name: str) -> float:
    total, count = stats.span(name)
    return _ratio(total, count)


def per_layer(traced: Phase, untraced: Phase, fleet: bool
              ) -> Tuple[Dict[str, float], List[Tuple[str, float]],
                         List[Tuple[str, float]]]:
    """``(metrics, session ledger, TTFF ledger)`` of a traced phase.

    Ledger rows are milliseconds per delivered session; each ends with
    the ``unattributed`` residual, so the rows sum to the mean session
    wall time (respectively the mean TTFF).  Server stages are busy
    times of pipelined threads, so they can overlap the client's decode
    and the residual can be negative.
    """
    srv = Stats(traced.server_stats)
    cli = Stats(traced.client_stats)
    ok = traced.ok
    n = len(ok)
    frames = traced.frames

    profile_s, profile_n = srv.span("perfbench.core.profile")
    track_s, _ = srv.span("perfbench.core.track")
    bind_s, bind_n = srv.span("perfbench.core.bind")
    compensate_s, _ = srv.span("perfbench.core.compensate")
    emit_s, _ = srv.span("perfbench.streaming.emit")
    opened = srv.value("repro_server_sessions_total")
    streamed = srv.value("repro_server_frames_streamed_total")
    records = srv.value("repro_net_records_sent_total")
    misses = srv.value(PROFILE_MISSES)
    connections = srv.span("net.session")[1]
    routed = srv.span("fleet.route")[1]
    requested = cli.value("repro_net_client_requalities_total")
    applied = sum(len(o.applied) for o in ok)
    resumed = [o for o in ok if o.resumes]

    metrics = {
        "core.profile_ms_per_clip": 1e3 * _ratio(profile_s, profile_n),
        "core.profile_calls": float(profile_n),
        "core.profile_cache_hit_frac": 1.0 - _ratio(misses, opened) if opened else 0.0,
        "core.track_ms": 1e3 * _ratio(track_s - profile_s, n),
        "core.bind_ms_per_session": 1e3 * _ratio(bind_s - track_s, n),
        "core.compensate_us_per_frame":
            1e6 * _ratio(compensate_s, srv.value(FRAMES_COMPENSATED)),
        "streaming.emit_us_per_frame":
            1e6 * _ratio(emit_s - bind_s - compensate_s, streamed),
        "streaming.first_group_ms":
            1e3 * _mean_span(srv, "perfbench.streaming.first_group"),
        "streaming.switches_applied_per_session": _ratio(applied, n),
        "streaming.switch_applied_frac": _ratio(applied, requested),
        "streaming.useful_record_frac": _ratio(frames, streamed),
        "net.encode_us_per_record": 1e6 * _ratio(srv.span("net.encode")[0], records),
        "net.decode_us_per_record":
            1e6 * _ratio(cli.span("net.decode")[0], sum(o.records for o in ok)),
        "net.wire_bytes_per_frame":
            _ratio(srv.value("repro_net_bytes_sent_total"), frames),
        "net.admission_ms": 1e3 * _mean_span(srv, "net.admission"),
        "net.first_byte_enqueued_ms":
            1e3 * _mean_span(srv, "net.first_byte_enqueued"),
        "net.produce_us_per_frame":
            1e6 * _ratio(srv.span("net.produce")[0], streamed),
        "net.queue_wait_ms_per_session": 1e3 * _mean_span(srv, "net.queue.wait"),
        "net.write_us_per_record": 1e6 * _ratio(srv.span("net.write")[0], records),
        "net.records_per_batch":
            _ratio(records, srv.count("repro_net_send_queue_depth")),
        "client.connect_ms": 1e3 * _mean_span(cli, "net.connect"),
        "client.resumes_per_session": _ratio(sum(o.resumes for o in ok), n),
        "client.reconnect_stall_ms":
            1e3 * statistics.median(o.max_gap_s for o in resumed) if resumed else 0.0,
        "client.retries_per_session": _ratio(sum(o.attempts - 1 for o in ok), n),
        # The router's span holds the relayed connection open, so its
        # overhead is what it adds around the shard's own session span.
        "fleet.route_ms": 1e3 * (_mean_span(srv, "fleet.route")
                                 - _mean_span(srv, "net.session")) if routed else 0.0,
        "fleet.router_cpu_us_per_record":
            1e6 * _ratio(traced.server_cpu_s[0], records) if fleet else 0.0,
        "fleet.spillover_frac":
            _ratio(srv.value("repro_fleet_spillover_sessions_total"), routed),
        "fleet.adopted_sessions": srv.value("repro_net_adopted_sessions_total"),
        "proc.server_busy_frac":
            sum(traced.server_cpu_s) / (traced.wall_s * CPUS),
        "proc.client_busy_frac": traced.client_cpu_s / (traced.wall_s * CPUS),
        "trace.overhead_frac": 1.0 - _ratio(
            traced.frames / traced.wall_s, untraced.frames / untraced.wall_s),
    }

    def per_session(seconds: float) -> float:
        return 1e3 * _ratio(seconds, n)

    session = [
        ("client.connect", per_session(cli.span("net.connect")[0])),
        ("fleet.route", metrics["fleet.route_ms"] * _ratio(connections, n)),
        ("net.admission", per_session(srv.span("net.admission")[0])),
        ("core.profile", per_session(profile_s)),
        ("core.track", per_session(track_s - profile_s)),
        ("core.bind", per_session(bind_s - track_s)),
        ("core.compensate", per_session(compensate_s)),
        ("streaming.emit", per_session(emit_s - bind_s - compensate_s)),
        ("net.encode", per_session(srv.span("net.encode")[0])),
        ("net.write", per_session(srv.span("net.write")[0])),
        ("client.decode", per_session(cli.span("net.decode")[0])),
    ]
    wall_ms = 1e3 * _ratio(sum(o.wall_s for o in ok), n)
    session.append(("unattributed", wall_ms - sum(ms for _, ms in session)))
    metrics["trace.unattributed_frac"] = _ratio(session[-1][1], wall_ms)

    # Time to first frame: the opening bind is one bind call; the lead
    # chunk is the rest of the emission busy time before the first frame.
    opening_bind = 1e3 * _ratio(bind_s - track_s, bind_n)
    ttff = [
        ("client.connect", 1e3 * _mean_span(cli, "net.connect")),
        ("fleet.route", metrics["fleet.route_ms"]),
        ("net.admission", metrics["net.admission_ms"]),
        ("core.profile", per_session(profile_s)),
        ("core.track", per_session(track_s - profile_s)),
        ("core.bind", opening_bind),
    ]
    ttff.append(("streaming.lead_chunk", max(
        0.0, metrics["streaming.first_group_ms"]
        - sum(ms for name, ms in ttff if name.startswith("core.")))))
    ttff_ms = 1e3 * _ratio(sum(o.ttff_s for o in ok), n)
    ttff.append(("unattributed", ttff_ms - sum(ms for _, ms in ttff)))
    return metrics, session, ttff
