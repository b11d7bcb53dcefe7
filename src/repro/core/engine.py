"""Execution-engine selection for the profile→clip→compensate hot path.

The annotation pipeline can walk a clip two ways:

* ``"perframe"`` — the paper-literal scalar loop: one :class:`Frame` at a
  time.  Kept as the reference implementation and as the fallback for
  clips that mix frame resolutions.
* ``"chunked"`` — the default: ``(N, H, W, 3)`` uint8 batches flow through
  vectorized luminance/histogram kernels
  (:func:`~repro.core.analyzer.chunk_frame_stats`).  Bit-identical to the
  per-frame path, several times faster.  A pass with more than one
  chunk on a host with more than one core spreads its chunks over one
  persistent, process-wide ``ThreadPoolExecutor`` (the numpy kernels
  release the GIL); a single-chunk pass, or any pass on one core, runs
  inline in the calling thread.

Both produce byte-for-byte identical :class:`FrameStats`, so engine
choice is purely a throughput knob — the property tests in
``tests/core/test_engine.py`` and
``tests/streaming/test_serving_equivalence.py`` hold the engines to that
contract.

The thread pool is created lazily at first use and then *reused for the
lifetime of the process* — re-creating an executor per pass costs more
than the fan-out saves.  :func:`shutdown_pools` tears it down (tests);
a forked child drops the pool it inherited (its worker threads did not
survive the fork) and creates its own on first use.

Chunk sizing is autotuned from frame geometry by default
(:func:`~repro.video.chunks.autotune_chunk_size`): small frames get long
chunks, large frames get short ones, keeping the batched float64 working
set near a fixed byte budget.  Pass an explicit ``chunk_size`` to pin it.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from collections import deque
from collections.abc import Sized
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Iterable, List, Optional, Tuple, TypeVar, Union

from .. import telemetry
from ..video.chunks import DEFAULT_CHUNK_SIZE, autotune_chunk_size

#: Engine names accepted wherever an ``engine=`` knob is exposed.
ENGINE_KINDS = ("perframe", "chunked")

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved execution-engine settings.

    Attributes
    ----------
    kind:
        One of :data:`ENGINE_KINDS`.
    chunk_size:
        Frames per batch for the chunked engine.  ``None`` (the default)
        autotunes the span from frame geometry via
        :meth:`resolved_chunk_size`.
    """

    kind: str = "chunked"
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {self.kind!r}, expected one of {ENGINE_KINDS}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    # ------------------------------------------------------------------
    def resolved_chunk_size(self, frame_shape: Optional[Tuple[int, int]] = None) -> int:
        """The chunk span to use for a given ``(height, width)``.

        An explicit ``chunk_size`` wins; otherwise the autotuner picks the
        span from the frame geometry, falling back to
        :data:`~repro.video.chunks.DEFAULT_CHUNK_SIZE` when no geometry
        is known (e.g. an incremental frame stream before the first
        frame arrives).
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if frame_shape is None:
            return DEFAULT_CHUNK_SIZE
        return autotune_chunk_size(int(frame_shape[0]), int(frame_shape[1]))


#: Anything an ``engine=`` knob accepts: a kind name, a full config, or
#: ``None`` for the default (chunked).
EngineSpec = Union[None, str, EngineConfig]


def resolve_engine(spec: EngineSpec) -> EngineConfig:
    """Normalize an ``engine=`` argument into an :class:`EngineConfig`."""
    if spec is None:
        return EngineConfig()
    if isinstance(spec, EngineConfig):
        return spec
    if isinstance(spec, str):
        return EngineConfig(kind=spec)
    raise TypeError(
        f"engine must be None, a kind name, or an EngineConfig, got {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# The persistent chunk pool
# ---------------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None


def _cpu_count() -> int:
    return os.cpu_count() or 1


def shared_thread_pool() -> ThreadPoolExecutor:
    """The process-wide chunk pool (one worker per core), created lazily."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                _cpu_count(), thread_name_prefix="repro-engine"
            )
        return _POOL


def shutdown_pools(wait: bool = True) -> None:
    """Tear down the persistent chunk pool; it re-creates itself on next use."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=wait)


def _drop_pool_after_fork() -> None:
    # The child inherits the pool object but none of its worker threads,
    # so work submitted to it would never run.  Forget it (and a lock
    # some other parent thread may have held mid-fork).
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


atexit.register(shutdown_pools)
os.register_at_fork(after_in_child=_drop_pool_after_fork)


def _inline_map(kernel: Callable[[T], R], chunks: Iterable[T]) -> List[R]:
    return [kernel(chunk) for chunk in chunks]


def _pooled_map(kernel: Callable[[T], R], chunks: Iterable[T]) -> List[R]:
    """Map ``kernel`` over the shared pool, in order, with at most two
    chunks per worker in flight so a long clip is never materialized
    all at once."""
    pool = shared_thread_pool()
    window = 2 * _cpu_count()
    pending: Deque[Future] = deque()
    results: List[R] = []
    try:
        for chunk in chunks:
            if len(pending) >= window:
                results.append(pending.popleft().result())
            pending.append(pool.submit(kernel, chunk))
        while pending:
            results.append(pending.popleft().result())
    finally:
        for future in pending:
            future.cancel()
    return results


def map_chunks(
    config: EngineConfig, kernel: Callable[[T], R], chunks: Iterable[T]
) -> List[R]:
    """Apply ``kernel`` to every chunk; order is preserved.

    When the pass has more than one chunk and the host more than one
    core, the chunks run on the persistent shared thread pool; otherwise
    the map is a plain loop in the calling thread.

    When telemetry is enabled, every kernel invocation is timed into the
    ``repro_engine_chunk_seconds{kind=...}`` histogram and the pass as a
    whole updates chunk/frame counters plus the
    ``repro_engine_frames_per_sec{kind=...}`` gauge (frames over the
    pass's wall-clock time).  Frames are counted in the calling thread
    from the per-chunk results, which must then be sized (one entry per
    frame, as :func:`~repro.core.analyzer.chunk_frame_stats` returns).
    """
    chunks = iter(chunks)
    head = list(itertools.islice(chunks, 2))
    run = _pooled_map if len(head) > 1 and _cpu_count() > 1 else _inline_map
    chunks = itertools.chain(head, chunks)
    if not telemetry.enabled():
        return run(kernel, chunks)

    def timed(chunk: T) -> Tuple[R, float]:
        start = perf_counter()
        out = kernel(chunk)
        return out, perf_counter() - start

    wall_start = perf_counter()
    timings = run(timed, chunks)
    wall = perf_counter() - wall_start
    results = [out for out, _ in timings]

    reg = telemetry.registry()
    labels = {"kind": config.kind}
    reg.histogram(
        "repro_engine_chunk_seconds",
        help="Per-chunk kernel time under the execution engine.",
        labels=labels,
    ).observe_many([seconds for _, seconds in timings])
    reg.counter(
        "repro_engine_chunks_total", help="Chunks processed by the execution engine.",
        labels=labels,
    ).inc(len(timings))
    frames = sum(len(out) for out in results if isinstance(out, Sized))
    if frames:
        reg.counter(
            "repro_engine_frames_total", help="Frames processed by the execution engine.",
            labels=labels,
        ).inc(frames)
        if wall > 0.0:
            reg.gauge(
                "repro_engine_frames_per_sec",
                help="Throughput of the most recent engine pass.",
                labels=labels,
            ).set(frames / wall)
    return results
