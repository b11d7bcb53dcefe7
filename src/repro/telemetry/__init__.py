"""Telemetry: metrics registry, span tracing, flight recorder, exporters.

The observability layer for the annotation/streaming stack.  Everything
records into one process-wide :class:`~repro.telemetry.metrics.MetricsRegistry`:

* the annotation pipeline emits stage spans (``pipeline.profile``,
  ``pipeline.scene_grouping``, ``pipeline.clip``, ``pipeline.compensate``);
* the execution engine times every chunk kernel and publishes frames/sec;
* the bounded caches expose hit/miss/eviction/entry-count series;
* the streaming stack counts sessions, track requests, proxy windows,
  middleware renegotiations and applied backlight switches.

Three layers stack on the registry:

* **Spans** (:class:`~repro.telemetry.tracing.trace`) time nested stages
  on a :mod:`contextvars` stack, carry ``trace_id``/``parent_id`` links
  across threads, asyncio tasks and the wire, and land in a bounded
  :class:`~repro.telemetry.tracing.SpanCollector` for JSON-lines export.
* The **flight recorder** (:mod:`~repro.telemetry.flight`) keeps a
  bounded ring of structured operational events (session lifecycle,
  breaker trips, codec errors) for post-mortems of live servers.
* **Exporters** render snapshots as JSON-lines
  (:func:`~repro.telemetry.export.to_jsonl`), Prometheus text
  (:func:`~repro.telemetry.export.to_prometheus`) or a human table
  (:func:`~repro.telemetry.export.format_table`) — the ``--stats`` CLI
  flag and the ``telemetry``/``stats`` subcommands wire these up.

The layer is on by default and engineered for near-zero overhead
(counters are plain attribute adds; spans pay two ``perf_counter`` calls);
:func:`disable` turns every record path into a single flag check.
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    registry,
    reset_registry,
)
from .tracing import (
    SPAN_ERRORS,
    SPAN_SECONDS,
    Span,
    SpanCollector,
    active_span,
    clear_spans,
    current_span_id,
    current_trace_id,
    emit_span,
    new_span_id,
    new_trace_id,
    span_collector,
    span_events,
    span_stack,
    spans_to_jsonl,
    trace,
    trace_context,
)
from .flight import (
    FlightRecorder,
    clear_flight_events,
    flight_events,
    flight_recorder,
    record_event,
)
from .export import (
    format_table,
    format_trace_tree,
    from_jsonl,
    metric_to_dict,
    parse_prometheus,
    registry_from_snapshot,
    snapshot,
    stats_payload,
    to_jsonl,
    to_prometheus,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "enable",
    "disable",
    "enabled",
    "registry",
    "reset_registry",
    "Span",
    "SpanCollector",
    "trace",
    "trace_context",
    "emit_span",
    "active_span",
    "span_stack",
    "span_collector",
    "span_events",
    "spans_to_jsonl",
    "clear_spans",
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
    "new_span_id",
    "SPAN_SECONDS",
    "SPAN_ERRORS",
    "FlightRecorder",
    "flight_recorder",
    "record_event",
    "flight_events",
    "clear_flight_events",
    "snapshot",
    "stats_payload",
    "metric_to_dict",
    "to_jsonl",
    "from_jsonl",
    "to_prometheus",
    "parse_prometheus",
    "registry_from_snapshot",
    "format_table",
    "format_trace_tree",
]
