"""Metric primitives and the process-wide registry.

Three primitives cover the stack's needs:

* :class:`Counter` — monotonically increasing event count (cache hits,
  sessions opened, frames streamed).  ``inc`` is a plain attribute add,
  so instrumenting a hot loop costs nanoseconds.
* :class:`Gauge` — a value that goes up and down (cache bytes retained,
  last observed frames/sec).
* :class:`Histogram` — fixed-bucket distribution with numpy-backed
  bucket counts (span durations, per-chunk kernel times).  Buckets are
  cumulative-``le`` compatible with the Prometheus exposition format.

Metrics are identified by a *name* plus a frozen set of *labels*; the
:class:`MetricsRegistry` hands out one instance per ``(name, labels)``
pair, so any number of instrumentation sites share the same series.
Per-instance series (e.g. one cache object's hit counter) use a unique
label value and register themselves into the same registry.

The whole layer is default-on and disabled globally by
:func:`disable` — every record path checks one module-level flag and
returns immediately when it is off.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Process-wide on/off switch; flip through :func:`enable`/:func:`disable`.
_ENABLED = True

#: Default histogram buckets for durations in seconds: a 1-2.5-5 decade
#: ladder from 10 microseconds to 50 seconds (21 finite buckets).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    m * (10.0 ** e) for e in range(-5, 2) for m in (1.0, 2.5, 5.0)
)


def enable() -> None:
    """Turn telemetry recording on (the default state)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn all telemetry recording off.

    Counters, gauges, histograms and spans stop mutating; existing values
    freeze (including cache hit/miss statistics that read through to
    counters).  Re-enable with :func:`enable`.
    """
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether telemetry recording is currently on."""
    return _ENABLED


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named series with frozen labels.

    Parameters
    ----------
    name:
        Prometheus-style metric name (``[a-zA-Z_:][a-zA-Z0-9_:]*``).
    help:
        One-line human description, emitted as the ``# HELP`` comment.
    labels:
        Optional mapping of label name to value, frozen at creation.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels = _freeze_labels(labels)

    @property
    def key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """Registry identity: ``(name, frozen labels)``."""
        return (self.name, self.labels)

    def labels_dict(self) -> Dict[str, str]:
        """The labels as a plain dict (copy)."""
        return dict(self.labels)

    def _label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f"{k}={v!r}" for k, v in self.labels)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}{self._label_suffix()})"


class Counter(Metric):
    """Monotonically increasing event counter.

    ``inc`` is deliberately a plain attribute add (no lock): under
    CPython's GIL increments from one thread are exact, and the
    instrumented hot paths (cache lookups, per-frame adds) cannot afford
    synchronization.  Cross-thread increments are best-effort.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help=help, labels=labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative, got {amount}")
        self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def _restore(self, value: int) -> None:
        """Set the raw value (exporter parse-back only)."""
        self._value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}{self._label_suffix()}={self._value})"


class Gauge(Metric):
    """A value that can go up and down (bytes retained, frames/sec)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help=help, labels=labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        if not _ENABLED:
            return
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        if not _ENABLED:
            return
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    def _restore(self, value: float) -> None:
        """Set the raw value (exporter parse-back only)."""
        self._value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}{self._label_suffix()}={self._value:g})"


class Histogram(Metric):
    """Fixed-bucket distribution with numpy-backed counts.

    Parameters
    ----------
    buckets:
        Strictly increasing finite upper bounds; an implicit ``+Inf``
        overflow bucket is appended.  Defaults to
        :data:`DEFAULT_TIME_BUCKETS` (seconds).

    Observations also track count, sum, min and max, so exporters can
    report means and extremes without keeping raw samples.  ``observe``
    takes a short lock (it is called per *chunk*, not per pixel);
    ``observe_many`` amortizes it over a whole batch.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help=help, labels=labels)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_TIME_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if not all(np.isfinite(bounds)):
            raise ValueError("bucket bounds must be finite (the +Inf bucket is implicit)")
        self.bounds = bounds
        self._bounds_list = list(bounds)
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0
        self._min = np.inf
        self._max = -np.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not _ENABLED:
            return
        value = float(value)
        idx = bisect.bisect_left(self._bounds_list, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations (vectorized)."""
        if not _ENABLED:
            return
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=np.float64).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(self.bounds, arr, side="left")
        batch = np.bincount(idx, minlength=self._counts.size)
        with self._lock:
            self._counts += batch
            self._sum += float(arr.sum())
            self._count += arr.size
            self._min = min(self._min, float(arr.min()))
            self._max = max(self._max, float(arr.max()))

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def bucket_counts(self) -> np.ndarray:
        """Per-bucket counts including the ``+Inf`` overflow (copy)."""
        return self._counts.copy()

    def cumulative_counts(self) -> np.ndarray:
        """Prometheus-style cumulative ``le`` counts (copy)."""
        return np.cumsum(self._counts)

    def _restore(self, counts, total, minimum, maximum) -> None:
        """Set the raw state (exporter parse-back only)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != self._counts.shape:
            raise ValueError("restored bucket counts do not match bucket layout")
        self._counts = counts
        self._count = int(counts.sum())
        self._sum = float(total)
        self._min = float(minimum)
        self._max = float(maximum)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{self._label_suffix()}, "
            f"count={self._count}, mean={self.mean:g})"
        )


class MetricsRegistry:
    """Process-wide catalog of metrics, keyed by ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a key creates the metric, later calls return the same object (a
    kind mismatch raises ``TypeError``).  Creation takes a lock; the
    returned metric objects are then used lock-free, so instrumented
    call sites should cache them rather than re-looking them up in hot
    loops.
    """

    def __init__(self):
        self._metrics: "OrderedDict[Tuple, Metric]" = OrderedDict()
        self._lock = threading.RLock()
        #: Bumped by every :meth:`reset`, so holders of per-instance
        #: series know when to :meth:`register` them again.
        self.generation = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labels, **kwargs) -> Metric:
        key = (name, _freeze_labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get or create the :class:`Counter` for ``(name, labels)``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get or create the :class:`Gauge` for ``(name, labels)``."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create the :class:`Histogram` for ``(name, labels)``.

        ``buckets`` applies on first creation only; later calls return
        the existing histogram with its original bucket layout.
        """
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def register(self, metric: Metric) -> Metric:
        """Attach an externally created metric (per-instance series).

        Registering a key that already exists returns the *existing*
        metric unchanged when kinds agree (so idempotent re-registration
        is safe) and raises ``TypeError`` otherwise.
        """
        with self._lock:
            existing = self._metrics.get(metric.key)
            if existing is not None:
                if existing.kind != metric.kind:
                    raise TypeError(
                        f"metric {metric.name!r} already registered as {existing.kind}"
                    )
                return existing
            self._metrics[metric.key] = metric
            return metric

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Optional[Metric]:
        """Look up a metric, or ``None`` when absent."""
        with self._lock:
            return self._metrics.get((name, _freeze_labels(labels)))

    def metrics(self) -> List[Metric]:
        """Every registered metric, in registration order (copy)."""
        with self._lock:
            return list(self._metrics.values())

    def series(self, name: str) -> List[Metric]:
        """All label-variants of one metric name, in registration order."""
        with self._lock:
            return [m for m in self._metrics.values() if m.name == name]

    def reset(self) -> None:
        """Drop every registered metric (used for test isolation)."""
        with self._lock:
            self._metrics.clear()
            self.generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"


_GLOBAL_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation records to."""
    return _GLOBAL_REGISTRY


def reset_registry() -> None:
    """Clear the process-wide registry (test isolation helper).

    Metric objects already held by live instrumented objects (e.g. a
    cache's private counters) keep working; they are simply no longer
    listed until re-registered.
    """
    _GLOBAL_REGISTRY.reset()
