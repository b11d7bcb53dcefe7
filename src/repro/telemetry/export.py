"""Exporters: JSON-lines snapshots and Prometheus text exposition.

Two machine formats plus a human table:

* :func:`to_jsonl` / :func:`from_jsonl` — one self-describing JSON
  object per metric per line.  ``from_jsonl`` reconstructs a registry
  from the text, so snapshots round-trip losslessly (the property the
  exporter tests hold).
* :func:`to_prometheus` / :func:`parse_prometheus` — the Prometheus
  text exposition format (``# HELP``/``# TYPE`` comments, cumulative
  ``le`` histogram buckets, ``_sum``/``_count`` series).  The parser
  exists for grammar validation and round-trip tests, not scraping.
* :func:`format_table` — the ``--stats`` rendering: spans first, then
  counters, gauges and histograms.
* :func:`stats_payload` — the answer to a wire ``stats`` probe, shared
  by the single server and the fleet router.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Tuple

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    registry as _global_registry,
)
from .flight import flight_events
from .tracing import SPAN_SECONDS, span_events


def _reg(reg: Optional[MetricsRegistry]) -> MetricsRegistry:
    return reg if reg is not None else _global_registry()


# ---------------------------------------------------------------------------
# Dict / JSON-lines snapshot
# ---------------------------------------------------------------------------
def metric_to_dict(metric: Metric) -> Dict:
    """One metric as a plain self-describing dict."""
    base = {
        "name": metric.name,
        "kind": metric.kind,
        "labels": metric.labels_dict(),
        "help": metric.help,
    }
    if isinstance(metric, (Counter, Gauge)):
        base["value"] = metric.value
    elif isinstance(metric, Histogram):
        base.update(
            buckets=list(metric.bounds),
            counts=[int(c) for c in metric.bucket_counts()],
            sum=metric.sum,
            count=metric.count,
            min=None if math.isinf(metric.min) else metric.min,
            max=None if math.isinf(metric.max) else metric.max,
        )
    return base


def snapshot(registry: Optional[MetricsRegistry] = None) -> Dict:
    """The whole registry as one JSON-serializable dict."""
    return {"metrics": [metric_to_dict(m) for m in _reg(registry).metrics()]}


def stats_payload(
    health: Dict,
    format: str = "json",
    include_events: bool = False,
    include_spans: bool = False,
    limit: Optional[int] = None,
) -> Dict:
    """The answer to a wire ``stats`` probe, around a ``health`` dict.

    Metrics as :func:`snapshot` (``json``) or :func:`to_prometheus`
    text; optionally the flight-recorder tail and collected spans,
    ``limit`` capping both (default 128 events, 512 spans).
    """
    if format not in ("json", "prometheus"):
        raise ValueError(f"unknown stats format {format!r}")
    payload: Dict = {"format": format, "health": health}
    if format == "prometheus":
        payload["prometheus"] = to_prometheus()
    else:
        payload["metrics"] = snapshot()
    if include_events:
        payload["events"] = flight_events(
            limit=limit if limit is not None else 128
        )
    if include_spans:
        payload["spans"] = span_events(
            limit=limit if limit is not None else 512
        )
    return payload


def to_jsonl(registry: Optional[MetricsRegistry] = None) -> str:
    """Serialize the registry as JSON-lines (one metric per line)."""
    lines = [json.dumps(metric_to_dict(m), sort_keys=True)
             for m in _reg(registry).metrics()]
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`to_jsonl` output.

    The inverse of :func:`to_jsonl` up to metric ordering by kind of
    restoration: counters/gauges restore their value, histograms restore
    bucket counts, sum and extremes.
    """
    reg = MetricsRegistry()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        _restore_metric(reg, json.loads(line))
    return reg


def _restore_metric(reg: MetricsRegistry, record: Dict) -> None:
    """Materialize one :func:`metric_to_dict` record into ``reg``."""
    kind = record["kind"]
    name, labels, help_ = record["name"], record["labels"], record.get("help", "")
    if kind == "counter":
        reg.counter(name, help=help_, labels=labels)._restore(record["value"])
    elif kind == "gauge":
        reg.gauge(name, help=help_, labels=labels)._restore(record["value"])
    elif kind == "histogram":
        hist = reg.histogram(name, help=help_, labels=labels,
                             buckets=record["buckets"])
        minimum = record["min"] if record["min"] is not None else math.inf
        maximum = record["max"] if record["max"] is not None else -math.inf
        hist._restore(record["counts"], record["sum"], minimum, maximum)
    else:
        raise ValueError(f"unknown metric kind {kind!r} in snapshot")


def registry_from_snapshot(data: Dict) -> MetricsRegistry:
    """Rebuild a registry from a :func:`snapshot` dict.

    The inverse of :func:`snapshot`: every metric record under
    ``data["metrics"]`` is materialized with its value/bucket state, so
    a snapshot fetched over the wire (the ``stats`` probe) can be
    rendered with :func:`format_table` or :func:`to_prometheus` exactly
    as if it were local.

    Parameters
    ----------
    data:
        A dict of the :func:`snapshot` shape (``{"metrics": [...]}``).
    """
    reg = MetricsRegistry()
    for record in data.get("metrics", []):
        _restore_metric(reg, record)
    return reg


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_str(labels: Tuple[Tuple[str, str], ...], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels) + ([extra] if extra is not None else [])
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def to_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Serialize the registry in the Prometheus text exposition format.

    Label-variants of one metric name share a single ``# HELP``/``# TYPE``
    header; histograms emit cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``.
    """
    out: List[str] = []
    seen_headers = set()
    for metric in _reg(registry).metrics():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                out.append(f"# HELP {metric.name} {metric.help}")
            out.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            out.append(
                f"{metric.name}{_label_str(metric.labels)} {_format_value(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.bounds, cumulative[:-1]):
                le = _label_str(metric.labels, extra=("le", _format_value(bound)))
                out.append(f"{metric.name}_bucket{le} {int(count)}")
            le = _label_str(metric.labels, extra=("le", "+Inf"))
            out.append(f"{metric.name}_bucket{le} {int(cumulative[-1])}")
            out.append(
                f"{metric.name}_sum{_label_str(metric.labels)} {_format_value(metric.sum)}"
            )
            out.append(
                f"{metric.name}_count{_label_str(metric.labels)} {metric.count}"
            )
    return "\n".join(out) + ("\n" if out else "")


#: One Prometheus sample line: name, optional label block, value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')
_LABELS_BLOCK_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*")*$'
)


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}`` samples.

    Validates every non-comment line against the exposition grammar
    (raising ``ValueError`` on malformed lines), which is what the
    exporter round-trip tests lean on.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed Prometheus sample line: {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            if _LABELS_BLOCK_RE.match(raw) is None:
                raise ValueError(f"malformed label block: {raw!r}")
            for lm in _LABEL_RE.finditer(raw):
                value = lm.group("value").replace(r"\n", "\n")
                value = value.replace(r"\"", '"').replace(r"\\", "\\")
                labels.append((lm.group("key"), value))
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples[(match.group("name"), tuple(labels))] = value
    return samples


# ---------------------------------------------------------------------------
# Human-readable table
# ---------------------------------------------------------------------------
def format_table(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry as the ``--stats`` table.

    Spans lead (count, total, mean, max per stage), followed by
    counters, gauges and any other histograms.
    """
    reg = _reg(registry)
    metrics = reg.metrics()
    if not metrics:
        return "telemetry: no metrics recorded"

    spans = [m for m in metrics if isinstance(m, Histogram) and m.name == SPAN_SECONDS]
    counters = [m for m in metrics if isinstance(m, Counter)]
    gauges = [m for m in metrics if isinstance(m, Gauge)]
    histograms = [
        m for m in metrics if isinstance(m, Histogram) and m.name != SPAN_SECONDS
    ]

    def series_label(metric: Metric) -> str:
        if not metric.labels:
            return metric.name
        inner = ",".join(f"{k}={v}" for k, v in metric.labels)
        return f"{metric.name}{{{inner}}}"

    lines: List[str] = ["telemetry snapshot"]
    if spans:
        lines.append("  spans:")
        lines.append(f"    {'span':<28}{'count':>7}{'total s':>10}{'mean s':>10}{'max s':>10}")
        for span in spans:
            name = dict(span.labels).get("span", "?")
            lines.append(
                f"    {name:<28}{span.count:>7}{span.sum:>10.4f}"
                f"{span.mean:>10.5f}{span.max:>10.5f}"
            )
    hit_series = {
        m.labels_dict().get("cache", ""): m.value
        for m in counters if m.name == "repro_cache_hits_total"
    }
    miss_series = {
        m.labels_dict().get("cache", ""): m.value
        for m in counters if m.name == "repro_cache_misses_total"
    }
    caches = sorted(set(hit_series) | set(miss_series))
    if caches:
        lines.append("  caches:")
        lines.append(f"    {'cache':<28}{'hits':>8}{'misses':>8}{'hit ratio':>11}")
        for cache in caches:
            hits = hit_series.get(cache, 0)
            misses = miss_series.get(cache, 0)
            total = hits + misses
            ratio = f"{hits / total:>10.1%}" if total else f"{'n/a':>10}"
            lines.append(f"    {cache:<28}{hits:>8}{misses:>8} {ratio}")
    if counters:
        lines.append("  counters:")
        for counter in counters:
            lines.append(f"    {series_label(counter):<52}{counter.value:>12}")
    if gauges:
        lines.append("  gauges:")
        for gauge in gauges:
            lines.append(f"    {series_label(gauge):<52}{gauge.value:>12.2f}")
    if histograms:
        lines.append("  histograms:")
        for hist in histograms:
            lines.append(
                f"    {series_label(hist):<52}"
                f"count={hist.count} mean={hist.mean:.5f} max={hist.max:.5f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace tree rendering
# ---------------------------------------------------------------------------
def format_trace_tree(events: List[Dict], trace_id: Optional[str] = None) -> str:
    """Render span events as an indented parent→child tree.

    Spans whose ``parent_id`` is absent from the event set (the trace
    root, or spans whose parent lives in an unreachable process) become
    top-level rows.  Children sort by wall-clock start, so the tree
    reads in causal order.  Each row shows the span name, duration,
    and any tags; one fetch's client and server spans interleave into
    a single tree when both halves are present.

    Parameters
    ----------
    events:
        Span event dicts (the :func:`~repro.telemetry.tracing.span_events`
        / ``Span.to_dict`` shape).
    trace_id:
        Filter to one trace before rendering, or ``None`` for all.
    """
    if trace_id is not None:
        events = [e for e in events if e.get("trace_id") == trace_id]
    if not events:
        return "trace: no spans recorded"

    by_id = {e["span_id"]: e for e in events if e.get("span_id")}
    children: Dict[Optional[str], List[Dict]] = {}
    for event in events:
        parent = event.get("parent_id")
        key = parent if parent in by_id else None
        children.setdefault(key, []).append(event)
    for bucket in children.values():
        bucket.sort(key=lambda e: (e.get("start_time") or 0.0, e.get("name", "")))

    lines: List[str] = []
    trace_ids = sorted({e.get("trace_id") for e in events if e.get("trace_id")})
    for tid in trace_ids:
        lines.append(f"trace {tid}")

    def walk(event: Dict, depth: int) -> None:
        dur = event.get("duration_s")
        dur_text = f"{dur * 1e3:9.3f} ms" if dur is not None else "     open"
        tags = event.get("tags") or {}
        tag_text = ""
        if tags:
            inner = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
            tag_text = f"  [{inner}]"
        lines.append(f"  {'  ' * depth}{event.get('name', '?'):<{max(4, 30 - 2 * depth)}}"
                     f"{dur_text}{tag_text}")
        for child in children.get(event.get("span_id"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
