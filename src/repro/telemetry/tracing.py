"""Span tracing: nested, context-aware timing of pipeline stages.

A :class:`trace` context manager times one stage with the monotonic
clock (``time.perf_counter``) and records the duration into the
process-wide registry as the ``repro_span_seconds`` histogram, labeled
by span name.  The active-span stack lives in a :mod:`contextvars`
context variable, so nesting is correct in every execution model the
stack uses:

* plain synchronous code nests exactly as the old thread-local stack
  did (each thread starts from an empty context);
* concurrent asyncio tasks each get a *copy* of the context at task
  creation, so sessions multiplexed on one event loop can no longer
  interleave their spans;
* work run on another thread through ``contextvars.copy_context().run``
  inherits its parent task's open spans, so the wire server's
  compensation steps nest under the session that submitted them.

Distributed tracing on top of plain timing: every span carries a
``trace_id`` (shared by all spans of one logical operation, carried
across the wire in ``hello``/``resume`` messages), a unique ``span_id``
and a ``parent_id`` link, plus free-form ``tags`` (``session_id``,
``clip`` ...).  :class:`trace_context` plants an ambient trace for root
spans to join — that is how a server session links itself under the
client span that opened it.  Finished spans are appended to a bounded
process-wide :class:`SpanCollector`, exportable as JSON-lines and
served over the ``stats`` wire probe, so one fetch yields one linked
client+server tree.

Span names are dotted stage identifiers (``pipeline.profile``,
``engine.chunk``, ``net.session``); the hierarchy of one particular
run is captured on the :class:`Span` objects (``parent``, ``path``)
while the registry aggregates by name, keeping label cardinality
bounded no matter how deep traces nest.
"""

from __future__ import annotations

import secrets
import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter, time as wall_time
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry, registry
from . import metrics as _metrics

#: Histogram receiving every span duration, labeled ``span=<name>``.
SPAN_SECONDS = "repro_span_seconds"

#: Counter of spans that exited with an exception, labeled ``span=<name>``.
SPAN_ERRORS = "repro_span_errors_total"

#: Open spans of the current context, outermost first (immutable tuple —
#: copies across contexts/tasks are therefore always safe).
_STACK: "ContextVar[Tuple[Span, ...]]" = ContextVar("repro_span_stack", default=())

#: Ambient trace joined by root spans (set by :class:`trace_context`).
_AMBIENT: "ContextVar[Optional[Tuple[str, Optional[str]]]]" = ContextVar(
    "repro_trace_context", default=None
)


def new_trace_id() -> str:
    """A fresh 128-bit trace identifier (32 hex chars)."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 64-bit span identifier (16 hex chars)."""
    return secrets.token_hex(8)


def current_trace_id() -> Optional[str]:
    """The trace joined by spans opened now, or ``None`` outside a trace.

    Inside an open span this is that span's ``trace_id``; otherwise it
    is the ambient trace planted by :class:`trace_context`, if any.
    """
    stack = _STACK.get()
    if stack:
        return stack[-1].trace_id
    ambient = _AMBIENT.get()
    return ambient[0] if ambient is not None else None


def current_span_id() -> Optional[str]:
    """The innermost open span's ``span_id``, or ``None``."""
    stack = _STACK.get()
    return stack[-1].span_id if stack else None


class Span:
    """One timed region: name, hierarchy position, identity and duration.

    Attributes
    ----------
    name:
        The stage identifier given to :class:`trace`.
    parent:
        The span active in this context when this one opened (or ``None``).
    path:
        ``/``-joined names from the root span down to this one.
    duration_s:
        Elapsed monotonic seconds; ``None`` until the span closes.
    trace_id:
        Identifier shared by every span of one logical operation;
        inherited from the parent span or the ambient
        :class:`trace_context`, freshly generated for a standalone root.
    span_id / parent_id:
        This span's unique id and its parent's (``parent_id`` may name a
        remote span when the trace crossed the wire).
    tags:
        Free-form ``str -> str/num`` annotations (``session_id`` ...);
        ``None`` until the first :meth:`set_tag`.
    start_time:
        Wall-clock POSIX timestamp at open (for cross-process ordering).
    """

    __slots__ = ("name", "parent", "path", "duration_s", "trace_id",
                 "span_id", "parent_id", "tags", "start_time", "_started")

    def __init__(self, name: str, parent: Optional["Span"] = None):
        self.name = name
        self.parent = parent
        self.path = name if parent is None else f"{parent.path}/{name}"
        self.duration_s: Optional[float] = None
        self.span_id = new_span_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id: Optional[str] = parent.span_id
        else:
            ambient = _AMBIENT.get()
            if ambient is not None:
                self.trace_id, self.parent_id = ambient
            else:
                self.trace_id = new_trace_id()
                self.parent_id = None
        self.tags: Optional[Dict[str, object]] = None
        self.start_time = 0.0
        self._started = 0.0

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a root span)."""
        depth, span = 0, self.parent
        while span is not None:
            depth, span = depth + 1, span.parent
        return depth

    def set_tag(self, key: str, value) -> "Span":
        """Attach one ``key -> value`` annotation; returns self."""
        if self.tags is None:
            self.tags = {}
        self.tags[str(key)] = value
        return self

    def to_dict(self) -> Dict:
        """The span as a flat JSON-serializable event record."""
        record: Dict[str, object] = {
            "name": self.name,
            "path": self.path,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        return record

    def __repr__(self) -> str:
        dur = f"{self.duration_s:.6f}s" if self.duration_s is not None else "open"
        return f"Span({self.path}, {dur})"


class SpanCollector:
    """Bounded ring of finished span events (dicts, oldest dropped first).

    The metrics registry aggregates span durations by name; this
    collector keeps the most recent *individual* spans — identity,
    parentage, tags, timing — so a trace tree can be reassembled after
    the fact (``repro trace --wire``, the ``stats`` probe, e2e tests).
    Appends take a short lock; capacity bounds memory no matter how long
    a server runs.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: "deque[Dict]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum retained span events."""
        return self._events.maxlen

    def resize(self, capacity: int) -> None:
        """Change capacity, keeping the newest events."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        with self._lock:
            self._events = deque(self._events, maxlen=capacity)

    def record(self, event: Dict) -> None:
        """Append one finished span event."""
        with self._lock:
            self._events.append(event)

    def events(self, trace_id: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict]:
        """Retained events, oldest first (copies).

        ``trace_id`` filters to one trace; ``limit`` keeps only the
        newest N after filtering.
        """
        with self._lock:
            events = list(self._events)
        if trace_id is not None:
            events = [e for e in events if e.get("trace_id") == trace_id]
        if limit is not None:
            events = events[-limit:] if limit > 0 else []
        return [dict(e) for e in events]

    def clear(self) -> None:
        """Drop every retained event."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return f"SpanCollector({len(self)}/{self.capacity} spans)"


_COLLECTOR = SpanCollector()


def span_collector() -> SpanCollector:
    """The process-wide collector every finished span is appended to."""
    return _COLLECTOR


def span_events(trace_id: Optional[str] = None,
                limit: Optional[int] = None) -> List[Dict]:
    """Finished span events from the process-wide collector.

    ``trace_id`` filters to one trace; ``limit`` keeps the newest N.
    """
    return _COLLECTOR.events(trace_id=trace_id, limit=limit)


def clear_spans() -> None:
    """Drop all collected span events (test isolation helper)."""
    _COLLECTOR.clear()


class trace_context:
    """Plant an ambient trace for root spans opened in the body to join.

    ``with trace_context(trace_id=tid, parent_id=sid):`` makes every
    *root* span opened inside adopt ``tid`` as its trace and ``sid`` as
    its parent — the server-side half of cross-process linking (``tid``
    and ``sid`` arrive in the ``hello``/``resume`` wire message).  A
    ``None`` ``trace_id`` generates a fresh one, so un-traced clients
    still produce linked server-side trees.  Nested open spans are
    unaffected (they inherit from their parent span as always).

    Parameters
    ----------
    trace_id:
        Trace to join (``None`` generates a fresh id).
    parent_id:
        Remote parent span id for root spans, or ``None``.
    """

    __slots__ = ("trace_id", "parent_id", "_token")

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.parent_id = parent_id
        self._token = None

    def __enter__(self) -> "trace_context":
        """Set the ambient trace; returns self (``.trace_id`` resolved)."""
        self._token = _AMBIENT.set((self.trace_id, self.parent_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Restore the previous ambient trace."""
        if self._token is not None:
            _AMBIENT.reset(self._token)
            self._token = None
        return False


class trace:
    """Context manager timing one stage as a :class:`Span`.

    ``with trace("pipeline.profile") as span:`` opens a span on the
    current context's stack, times the body with ``perf_counter``, and
    on exit records the duration into ``repro_span_seconds{span=<name>}``
    and appends the finished span to the process-wide
    :class:`SpanCollector`.  When telemetry is disabled the body runs
    untimed and untracked (``span`` is ``None``), so a disabled trace
    costs one flag check.

    Parameters
    ----------
    name:
        Dotted stage identifier; becomes the ``span`` label value.
    registry:
        Registry to record into (the process-wide one by default).
    tags:
        Optional annotations copied onto the span at open.
    """

    __slots__ = ("name", "span", "_registry", "_tags")

    def __init__(self, name: str, registry: Optional[MetricsRegistry] = None,
                 tags: Optional[Dict[str, object]] = None):
        self.name = name
        self.span: Optional[Span] = None
        self._registry = registry
        self._tags = tags

    def __enter__(self) -> Optional[Span]:
        """Open the span; returns ``None`` when telemetry is disabled."""
        if not _metrics._ENABLED:
            return None
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        span = Span(self.name, parent=parent)
        if self._tags:
            for key, value in self._tags.items():
                span.set_tag(key, value)
        _STACK.set(stack + (span,))
        self.span = span
        span.start_time = wall_time()
        span._started = perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span, record its duration, and pop the stack."""
        span = self.span
        if span is None:
            return False
        span.duration_s = perf_counter() - span._started
        stack = _STACK.get()
        # Truncate back to (and excluding) this span; spans the body
        # leaked open are discarded so the stack cannot corrupt later
        # traces.  A span closed on a foreign context (not on this
        # stack) leaves the stack untouched.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                _STACK.set(stack[:i])
                break
        reg = self._registry if self._registry is not None else registry()
        reg.histogram(
            SPAN_SECONDS, help="Stage span durations in seconds.",
            labels={"span": span.name},
        ).observe(span.duration_s)
        if exc_type is not None:
            span.set_tag("error", True)
            reg.counter(
                SPAN_ERRORS, help="Spans that exited with an exception.",
                labels={"span": span.name},
            ).inc()
        _COLLECTOR.record(span.to_dict())
        self.span = None
        return False


def emit_span(
    name: str,
    duration_s: float,
    tags: Optional[Dict[str, object]] = None,
    registry_: Optional[MetricsRegistry] = None,
    start_time: Optional[float] = None,
) -> Span:
    """Record a pre-timed span without bracketing its body.

    For aggregate stage accounting on hot paths: accumulate
    ``perf_counter`` deltas in a plain float (nanoseconds of overhead
    per record), then emit *one* span per stage per session.  The span
    nests under the currently active span (or ambient
    :class:`trace_context`) exactly as a ``with trace(...)`` would,
    records into ``repro_span_seconds{span=<name>}`` and lands in the
    collector.

    Parameters
    ----------
    name:
        Dotted stage identifier.
    duration_s:
        The pre-measured duration (must be non-negative).
    tags:
        Optional annotations for the emitted span.
    registry_:
        Registry to record into (the process-wide one by default).
    start_time:
        Wall-clock POSIX start; defaults to ``now - duration_s``.

    Returns the emitted :class:`Span` (already closed).
    """
    if duration_s < 0:
        raise ValueError("duration_s must be non-negative")
    stack = _STACK.get()
    parent = stack[-1] if stack else None
    span = Span(name, parent=parent)
    if tags:
        for key, value in tags.items():
            span.set_tag(key, value)
    span.duration_s = float(duration_s)
    span.start_time = (start_time if start_time is not None
                       else wall_time() - duration_s)
    if not _metrics._ENABLED:
        return span
    reg = registry_ if registry_ is not None else registry()
    reg.histogram(
        SPAN_SECONDS, help="Stage span durations in seconds.",
        labels={"span": span.name},
    ).observe(span.duration_s)
    _COLLECTOR.record(span.to_dict())
    return span


def active_span() -> Optional[Span]:
    """The innermost open span of the current context, or ``None``."""
    stack = _STACK.get()
    return stack[-1] if stack else None


def span_stack() -> List[Span]:
    """The current context's open spans, outermost first (copy)."""
    return list(_STACK.get())


def spans_to_jsonl(events: Optional[Iterable[Dict]] = None,
                   trace_id: Optional[str] = None) -> str:
    """Serialize span events as JSON-lines (one span per line).

    ``events`` defaults to the process-wide collector's contents;
    ``trace_id`` filters to one trace.
    """
    import json

    if events is None:
        events = span_events(trace_id=trace_id)
    elif trace_id is not None:
        events = [e for e in events if e.get("trace_id") == trace_id]
    lines = [json.dumps(event, sort_keys=True) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")
