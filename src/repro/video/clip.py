"""Video clips: ordered frame sequences with playback timing.

Three concrete containers are provided:

* :class:`VideoClip` — an eager, in-memory list of frames.  Convenient for
  tests and short sequences.
* :class:`LazyClip` — frames are synthesized on demand from a frame factory
  callable.  This is how the clip library keeps ten multi-hundred-frame
  titles cheap: a frame only exists while someone is looking at it, exactly
  like a streaming decoder.
* :class:`ArrayClip` — a single ``(N, H, W, 3)`` uint8 array.  The fastest
  substrate for the chunked execution engine: chunks are zero-copy slices.

All share the :class:`ClipBase` interface (``name``, ``fps``,
``frame_count``, ``frame(i)``, iteration, ``iter_chunks``), which is the
only surface the rest of the system depends on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .chunks import DEFAULT_CHUNK_SIZE, FrameChunk, chunk_spans
from .frame import Frame


class ClipBase:
    """Common interface for frame containers."""

    name: str
    fps: float

    @property
    def frame_count(self) -> int:
        raise NotImplementedError

    def frame(self, index: int) -> Frame:
        """Return frame ``index`` (0-based)."""
        raise NotImplementedError

    def frame_shape(self) -> Optional[Tuple[int, int]]:
        """``(height, width)`` of the first frame, probed as cheaply as
        the container allows (array-backed clips read metadata; lazy
        clips with a declared resolution never render a frame).  Returns
        ``None`` only for empty containers.  Drives the chunk-size
        autotuner; clips that mix resolutions are handled downstream by
        the :class:`~repro.video.chunks.HeterogeneousFrameError`
        fallback, so the first frame is a sufficient probe.
        """
        if self.frame_count < 1:
            return None
        shape = self.frame(0).pixels.shape
        return (int(shape[0]), int(shape[1]))

    # ------------------------------------------------------------------
    # Chunked access (the batched execution engine's entry point)
    # ------------------------------------------------------------------
    def iter_chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lead: Optional[int] = None,
        start: int = 0,
    ) -> Iterator[FrameChunk]:
        """Yield the clip as ``(N, H, W, 3)`` uint8 batches.

        The default implementation stacks ``frame(i)`` pixels; array- and
        list-backed clips override it with cheaper fast paths.  The last
        chunk carries the remainder, and ``chunk_size > frame_count``
        yields a single chunk.  A positive ``lead`` shrinks only the
        first chunk (see :func:`~repro.video.chunks.chunk_spans`), which
        streaming uses to cut time-to-first-frame; a positive ``start``
        begins mid-clip (mid-stream adaptation).  Raises
        :class:`~repro.video.chunks.HeterogeneousFrameError` if frames
        within one chunk mix resolutions.
        """
        for begin, stop in chunk_spans(self.frame_count, chunk_size,
                                       lead=lead, start=start):
            frames = [self.frame(i) for i in range(begin, stop)]
            yield FrameChunk.from_frames(frames, start=begin)

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Playback duration in seconds."""
        return self.frame_count / self.fps

    @property
    def frame_period(self) -> float:
        """Seconds between consecutive frames."""
        return 1.0 / self.fps

    def __len__(self) -> int:
        return self.frame_count

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.frame_count):
            yield self.frame(i)

    def frames(self) -> Iterator[Frame]:
        """Alias of iteration, for readability at call sites."""
        return iter(self)

    def timestamps(self) -> np.ndarray:
        """Presentation time of each frame, in seconds."""
        return np.arange(self.frame_count) / self.fps

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, frames={self.frame_count}, "
            f"fps={self.fps:g}, duration={self.duration:.1f}s)"
        )


class VideoClip(ClipBase):
    """An eager clip holding all frames in memory.

    Parameters
    ----------
    frames:
        The frame sequence.  Frame indices are rewritten to be contiguous.
    fps:
        Playback rate in frames per second.
    name:
        Human-readable identifier (used in benchmark tables).
    """

    def __init__(self, frames: Iterable[Frame], fps: float = 30.0, name: str = "clip"):
        self._frames: List[Frame] = []
        for i, frame in enumerate(frames):
            if not isinstance(frame, Frame):
                frame = Frame(frame)
            frame.index = i
            self._frames.append(frame)
        if not self._frames:
            raise ValueError("a clip must contain at least one frame")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        self.fps = float(fps)
        self.name = name

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def frame(self, index: int) -> Frame:
        if not 0 <= index < len(self._frames):
            raise IndexError(f"frame index {index} out of range [0, {len(self._frames)})")
        return self._frames[index]

    def subclip(self, start: int, stop: int, name: Optional[str] = None) -> "VideoClip":
        """Extract frames ``[start, stop)`` as a new clip."""
        if not 0 <= start < stop <= self.frame_count:
            raise ValueError(f"invalid subclip range [{start}, {stop})")
        frames = [self._frames[i].copy() for i in range(start, stop)]
        return VideoClip(frames, fps=self.fps, name=name or f"{self.name}[{start}:{stop}]")

    def iter_chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lead: Optional[int] = None,
        start: int = 0,
    ) -> Iterator[FrameChunk]:
        """Chunk the stored frame list directly (no index round-trips)."""
        for begin, stop in chunk_spans(self.frame_count, chunk_size,
                                       lead=lead, start=start):
            yield FrameChunk.from_frames(self._frames[begin:stop], start=begin)


class LazyClip(ClipBase):
    """A clip whose frames are produced on demand by a factory callable.

    Parameters
    ----------
    factory:
        ``factory(index) -> Frame``; must be deterministic so that repeated
        reads of the same index agree (the annotation pipeline reads each
        frame during profiling and again during compensation).
    frame_count, fps, name:
        Clip metadata.
    resolution:
        Optional ``(width, height)`` advertised without rendering a frame.
    """

    def __init__(
        self,
        factory: Callable[[int], Frame],
        frame_count: int,
        fps: float = 30.0,
        name: str = "clip",
        resolution: Optional[Tuple[int, int]] = None,
    ):
        if frame_count <= 0:
            raise ValueError(f"frame_count must be positive, got {frame_count}")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        self._factory = factory
        self._frame_count = int(frame_count)
        self.fps = float(fps)
        self.name = name
        self._resolution = resolution

    @property
    def frame_count(self) -> int:
        return self._frame_count

    @property
    def resolution(self) -> Optional[Tuple[int, int]]:
        return self._resolution

    def frame_shape(self) -> Optional[Tuple[int, int]]:
        """Use the declared resolution when given; render one frame otherwise."""
        if self._resolution is not None:
            width, height = self._resolution
            return (int(height), int(width))
        return super().frame_shape()

    def frame(self, index: int) -> Frame:
        if not 0 <= index < self._frame_count:
            raise IndexError(f"frame index {index} out of range [0, {self._frame_count})")
        frame = self._factory(index)
        frame.index = index
        return frame

    def materialize(self) -> VideoClip:
        """Render every frame into an eager :class:`VideoClip`."""
        return VideoClip(list(self), fps=self.fps, name=self.name)


class ArrayClip(ClipBase):
    """A clip backed by one contiguous ``(N, H, W, 3)`` uint8 array.

    The natural container for the chunked execution engine:
    :meth:`iter_chunks` hands out zero-copy slices of the backing array,
    and :meth:`frame` wraps a view (mutating a frame's pixels mutates the
    clip, exactly like the shared :class:`Frame` objects of a
    :class:`VideoClip`).

    Parameters
    ----------
    pixels:
        ``(N, H, W, 3)`` array.  ``uint8`` input is used as-is; float
        input in ``[0, 1]`` is quantized with the same rule as
        :class:`~repro.video.frame.Frame`.
    fps, name:
        Clip metadata.
    """

    def __init__(self, pixels: np.ndarray, fps: float = 30.0, name: str = "clip"):
        arr = np.asarray(pixels)
        if arr.ndim != 4 or arr.shape[3] != 3:
            raise ValueError(f"clip pixels must be (N, H, W, 3), got {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("a clip must contain at least one frame")
        if np.issubdtype(arr.dtype, np.floating):
            arr = np.round(np.clip(arr, 0.0, 1.0) * 255).astype(np.uint8)
        elif arr.dtype != np.uint8:
            arr = np.clip(arr, 0, 255).astype(np.uint8)
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        self._pixels = arr
        self.fps = float(fps)
        self.name = name

    @classmethod
    def from_clip(cls, clip: ClipBase, name: Optional[str] = None) -> "ArrayClip":
        """Materialize any clip into one contiguous pixel array."""
        batches = [chunk.pixels for chunk in clip.iter_chunks()]
        pixels = batches[0] if len(batches) == 1 else np.concatenate(batches)
        return cls(pixels, fps=clip.fps, name=name or clip.name)

    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        return self._pixels.shape[0]

    @property
    def pixels(self) -> np.ndarray:
        """The backing ``(N, H, W, 3)`` uint8 array (not a copy)."""
        return self._pixels

    @property
    def resolution(self) -> Tuple[int, int]:
        """``(width, height)`` shared by every frame."""
        return (self._pixels.shape[2], self._pixels.shape[1])

    def frame_shape(self) -> Tuple[int, int]:
        """Read straight off the backing array — no Frame materialized."""
        return (int(self._pixels.shape[1]), int(self._pixels.shape[2]))

    def frame(self, index: int) -> Frame:
        if not 0 <= index < self.frame_count:
            raise IndexError(
                f"frame index {index} out of range [0, {self.frame_count})"
            )
        return Frame(self._pixels[index], index=index)

    def iter_chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lead: Optional[int] = None,
        start: int = 0,
    ) -> Iterator[FrameChunk]:
        """Slice the backing array — no stacking, no copies."""
        for begin, stop in chunk_spans(self.frame_count, chunk_size,
                                       lead=lead, start=start):
            yield FrameChunk(self._pixels[begin:stop], start=begin)


def concatenate(clips: Sequence[ClipBase], name: str = "concat") -> VideoClip:
    """Join clips back-to-back into one eager clip.

    All clips must share the same fps; frame sizes may differ (the decoder
    model treats each frame independently), but in practice library clips
    share a resolution.
    """
    if not clips:
        raise ValueError("need at least one clip to concatenate")
    fps = clips[0].fps
    for clip in clips[1:]:
        if clip.fps != fps:
            raise ValueError("cannot concatenate clips with differing fps")
    frames: List[Frame] = []
    for clip in clips:
        frames.extend(frame.copy() for frame in clip)
    return VideoClip(frames, fps=fps, name=name)
