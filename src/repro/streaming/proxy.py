"""The transcoding proxy: on-the-fly annotation.

Figure 1 places an optional proxy between server and client: "a high-end
machine with the ability to process the video stream in real-time,
on-the-fly (example in videoconferencing).  Note that for our scheme
either the proxy or the server node suffices."

Unlike the server, the proxy cannot profile a whole clip in advance — live
content arrives frame by frame.  It therefore works in *chunks*: buffer a
window of frames, run the full annotation pipeline on the window, emit the
window's annotation packet followed by its compensated frames.  Chunking
trades a little optimality (scenes cannot span chunk boundaries) and adds
one chunk of latency, which the proxy-vs-server ablation benchmark
quantifies.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.engine import EngineSpec
from ..core.pipeline import AnnotatedStream, AnnotationPipeline
from ..core.policies import PolicySpec
from ..core.policy import SchemeParameters
from ..core.profile_cache import ProfileCache, shared_profile_cache
from ..display.devices import DeviceProfile
from ..telemetry import registry as telemetry_registry, trace
from ..video.clip import VideoClip
from ..video.frame import Frame
from .packets import MediaPacket, annotation_packet, frame_packet


class TranscodingProxy:
    """Annotates and compensates a live frame stream in fixed chunks.

    Parameters
    ----------
    device:
        The client's device profile (known from session negotiation).
    params:
        Scheme parameters; the scene rate limiter applies within chunks.
    chunk_frames:
        Buffered window length.  Must be at least the scene interval or
        every chunk degenerates to a single scene.
    engine:
        Execution engine (``None``, a kind name, or an
        :class:`~repro.core.engine.EngineConfig`) for each window's
        profiling pass *and* its compensation: ``"perframe"`` windows
        compensate through the per-frame reference path of
        :meth:`~repro.core.pipeline.AnnotatedStream.iter_chunks`, with
        byte-identical output.
    profile_cache:
        Content-keyed profile cache; defaults to the process-wide shared
        cache so that re-streaming identical content (or a co-resident
        server holding the same pixels) reuses the profiling pass.
    policy:
        The :class:`~repro.core.policies.BacklightPolicy` used per window
        (``None``, a registered name, or an instance).
    """

    def __init__(
        self,
        device: DeviceProfile,
        params: SchemeParameters = SchemeParameters(),
        chunk_frames: int = 60,
        engine: EngineSpec = None,
        profile_cache: Optional[ProfileCache] = None,
        policy: PolicySpec = None,
    ):
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        self.device = device
        self.params = params
        self.chunk_frames = chunk_frames
        if profile_cache is None:
            profile_cache = shared_profile_cache()
        self._pipeline = AnnotationPipeline(
            params, engine=engine, profile_cache=profile_cache, policy=policy
        )
        reg = telemetry_registry()
        self._windows_counter = reg.counter(
            "repro_proxy_windows_total", help="Live windows annotated by proxies.",
        )
        self._frames_counter = reg.counter(
            "repro_proxy_frames_total", help="Live frames transcoded by proxies.",
        )

    # ------------------------------------------------------------------
    def _chunks(self, frames: Iterable[Frame]) -> Iterator[List[Frame]]:
        chunk: List[Frame] = []
        for frame in frames:
            chunk.append(frame)
            if len(chunk) == self.chunk_frames:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def _windows(
        self, frames: Iterable[Frame], fps: float, name: str
    ) -> Iterator[AnnotatedStream]:
        """Annotate each buffered window into its own device stream."""
        for chunk in self._chunks(frames):
            with trace("proxy.window"):
                clip = VideoClip(chunk, fps=fps, name=name)
                stream = self._pipeline.build_stream(clip, self.device)
            self._windows_counter.inc()
            self._frames_counter.inc(len(chunk))
            yield stream

    def annotate_live(
        self, frames: Iterable[Frame], fps: float, name: str = "live"
    ) -> Iterator[Tuple[Frame, int, float]]:
        """Yield ``(compensated_frame, backlight_level, gain)`` per frame.

        The convenience form for in-process pipelines (no packets).
        Output frame indices are globally consecutive.
        """
        offset = 0
        for stream in self._windows(frames, fps, name):
            for chunk in stream.iter_chunks():
                for k in range(len(chunk)):
                    frame = Frame(chunk.pixels[k], index=offset + chunk.start + k)
                    yield frame, int(chunk.levels[k]), float(chunk.gains[k])
            offset += stream.frame_count

    def process(
        self, frames: Iterable[Frame], fps: float, name: str = "live"
    ) -> Iterator[MediaPacket]:
        """Packetized form: per chunk, one annotation packet then frames.

        Annotation packets carry a chunk-local device track; the client
        stitches consecutive chunks back together (frame packets carry
        global indices, so ordering is unambiguous).
        """
        seq = 0
        offset = 0
        for stream in self._windows(frames, fps, name):
            yield annotation_packet(seq, stream.track.to_bytes())
            seq += 1
            for chunk in stream.iter_chunks():
                for k in range(len(chunk)):
                    index = offset + chunk.start + k
                    frame = Frame(chunk.pixels[k], index=index)
                    yield frame_packet(seq, frame, frame_index=index)
                    seq += 1
            offset += stream.frame_count

    # ------------------------------------------------------------------
    def chunk_latency_s(self, fps: float) -> float:
        """Extra buffering delay the proxy introduces."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        return self.chunk_frames / fps
