"""The media server.

"The server stores media content and streams videos to clients upon user
requests" (Section 3).  On top of storage it owns the offline annotation
work: every registered clip is profiled once, and annotation tracks for
the prepared quality levels are computed (and cached) on demand.  When a
session opens, the device-independent track is bound to the client's
device profile and the stream is emitted as one annotation packet followed
by compensated frame packets.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..core.annotation import AnnotationTrack
from ..core.dvfs_annotation import DvfsAnnotator, DvfsTrack
from ..core.engine import EngineSpec
from ..core.pipeline import AnnotatedStream, AnnotationPipeline, ProfileResult
from ..core.policies import PolicySpec, get_policy, resolve_policy
from ..core.policy import QUALITY_LEVELS, SchemeParameters
from ..core.profile_cache import ProfileCache, shared_profile_cache
from ..display.ambient import as_ambient_trace, bind_with_ambient_trace
from ..display.devices import get_device
from ..telemetry import record_event, registry as telemetry_registry, trace
from ..video.clip import ClipBase
from ..video.codec import CodecModel
from .packets import MediaPacket, annotation_packet, frame_packet
from .session import (
    NegotiationError,
    SessionDescription,
    SessionRequest,
    snap_quality,
)


#: Frames in the shrunken first chunk of :meth:`MediaServer.stream_batches`.
#: Small enough that the opening compensate is a few milliseconds, large
#: enough that the per-batch overhead stays amortized.
LEAD_CHUNK_FRAMES = 8

#: Compensation chunk span used by :meth:`MediaServer.stream_batches`.
#: The in-process autotune targets float64-scratch residency and picks
#: long chunks; on the wire a chunk is also the unit a producer computes
#: before its session's socket sees any of it, so long chunks turn into
#: head-of-line bubbles (and long compute-slot holds under contention).
#: A client that keeps up waits out each chunk's compensation, so the
#: chunk also bounds the longest gap between the frames it sees.  Each
#: chunk flushes as one coalesced write (half the wire server's default
#: batch_records).
WIRE_CHUNK_FRAMES = 16

#: Bound of each server's record-CRC store (:attr:`MediaServer.record_crcs`).
#: An entry is a key (registration serial, frame index, transform key,
#: 28-byte header prefix) and one CRC: a few hundred bytes, so the store
#: holds at most a few MB however many bindings clients ask for.
RECORD_CRC_ENTRIES = 8192

#: Bound of each server's device-binding store (:attr:`MediaServer.bindings`).
#: An entry is one bound track, 1.7-5.3 KB for the library titles, so
#: the store holds at most ~1.5 MB.  256 covers the library's whole
#: dark-room space (10 titles x 5 qualities x 3 devices = 150) with room
#: for ambient bindings.  Requests name any ambient spec, so the bound,
#: not the request mix, caps the store.
BINDING_ENTRIES = 256

#: One mid-stream switch: ``(frame, quality, ambient_spec_or_None)``.
#: ``frame`` is the scene-boundary frame the new binding takes effect at.
Switch = Tuple[int, float, Optional[str]]


class ResumePoint(NamedTuple):
    """Where a resumed session restarts emission (:meth:`MediaServer.resume_point`).

    ``frame`` is the first frame to emit, ``records`` the number of data
    records (head, frames, re-bind annotations) that precede it in the
    uninterrupted stream, and ``switches`` how many switch-plan entries
    lie wholly behind it, re-bind annotation included.
    """

    frame: int
    records: int
    switches: int


class AdaptationControl:
    """Mid-stream adaptation mailbox between a session's control reader
    and its producer.

    The wire server's reader task deposits live ``requality`` requests
    with :meth:`request` (thread-safe, latest wins — a client stepping
    down twice between scene boundaries lands on the final target); the
    producer polls with :meth:`poll_request` between chunks and applies
    the switch at the next scene boundary.  ``plan`` seeds *scheduled*
    switches for resume replay: a resumed session moves the entries
    behind its resume point into :attr:`applied`
    (:meth:`fast_forward`) and replays each remaining switch at exactly
    its recorded frame, so the resumed stream is byte-identical.

    ``ack_builder``/``reject_builder`` are set by the transport layer
    (the streaming layer cannot import :mod:`repro.net`): they build the
    in-stream ``requality`` acknowledgement packet for live switches —
    plan replays emit no ack, matching the original stream's data
    records.
    """

    def __init__(self, plan: Sequence[Switch] = ()):
        self._lock = threading.Lock()
        self._request: Optional[Tuple[Optional[float], Optional[str]]] = None
        self._plan = deque(
            (int(frame), float(quality), ambient)
            for frame, quality, ambient in plan
        )
        self._applied: List[Switch] = []
        #: ``(frame, quality, ambient, plan) -> Optional[MediaPacket]``;
        #: the ack emitted in-stream when a live switch is applied.
        self.ack_builder: Optional[Callable] = None
        #: ``(frame, reason) -> Optional[MediaPacket]``; the rejection
        #: ack when a live request finds no scene boundary before the end.
        self.reject_builder: Optional[Callable] = None

    # -- reader side ---------------------------------------------------
    def request(self, quality: Optional[float] = None,
                ambient: Optional[str] = None) -> None:
        """Deposit a live adaptation request (latest value per field wins).

        Undelivered requests merge field-wise rather than replacing
        wholesale: a quality step followed by an ambient-only change
        before the producer polls must land as *both*, not lose the
        earlier step.
        """
        if quality is None and ambient is None:
            raise ValueError("a requality needs a quality and/or an ambient")
        with self._lock:
            prev_quality, prev_ambient = self._request or (None, None)
            self._request = (
                quality if quality is not None else prev_quality,
                ambient if ambient is not None else prev_ambient,
            )

    # -- producer side -------------------------------------------------
    def poll_request(self) -> Optional[Tuple[Optional[float], Optional[str]]]:
        """Take the pending live request, if any (clears it)."""
        with self._lock:
            req, self._request = self._request, None
            return req

    def next_planned(self, pos: int) -> Optional[Switch]:
        """Peek the next scheduled (replay) switch at or after ``pos``."""
        with self._lock:
            while self._plan and self._plan[0][0] < pos:
                self._plan.popleft()
            return self._plan[0] if self._plan else None

    def fast_forward(self, count: int) -> None:
        """Mark the first ``count`` plan entries as applied, without replay.

        A resume that seeks past a planned switch never re-emits it, but
        the switch is still part of the session: the binding in force,
        later acks and re-issued tokens must all carry it.
        """
        with self._lock:
            for _ in range(count):
                self._applied.append(self._plan.popleft())

    def switch_applied(self, frame: int, quality: float,
                       ambient: Optional[str], live: bool) -> List[MediaPacket]:
        """Record an applied switch; return the ack packets to emit.

        Plan replays (``live=False``) pop their plan entry and emit
        nothing; live switches return the transport-built ack (empty
        when no builder is attached, e.g. in-process use).
        """
        with self._lock:
            if not live and self._plan and self._plan[0][0] == frame:
                self._plan.popleft()
            self._applied.append((int(frame), float(quality), ambient))
            plan = tuple(self._applied) + tuple(self._plan)
        if live and self.ack_builder is not None:
            packet = self.ack_builder(frame, quality, ambient, plan)
            return [packet] if packet is not None else []
        return []

    def switch_missed(self, frame: int, reason: str) -> List[MediaPacket]:
        """A live request found no boundary left; return the rejection ack."""
        if self.reject_builder is None:
            return []
        packet = self.reject_builder(frame, reason)
        return [packet] if packet is not None else []

    # -- shared --------------------------------------------------------
    def switch_plan(self) -> Tuple[Switch, ...]:
        """Applied switches plus any still-scheduled replay entries."""
        with self._lock:
            return tuple(self._applied) + tuple(self._plan)

    @property
    def applied(self) -> Tuple[Switch, ...]:
        """Switches applied so far, oldest first."""
        with self._lock:
            return tuple(self._applied)


class MediaServer:
    """Stores clips, prepares annotations, serves annotated streams.

    Parameters
    ----------
    params:
        Scheme parameters shared by all prepared variants (quality is
        overridden per variant).
    qualities:
        The prepared quality levels (the paper's five, by default).
    dvfs_annotator:
        When given, every stream also carries a decode-complexity (DVFS)
        annotation track computed over the same scene partition
        (Section 3's frequency/voltage-scaling consumer).
    codec:
        Optional :class:`~repro.video.codec.CodecModel`; when given,
        frame packets are charged their *encoded* wire size on the
        network (the pixels still travel in-process for display).
    engine:
        Execution engine for the profiling pass (``None``, a kind name,
        or an :class:`~repro.core.engine.EngineConfig`).
    profile_cache:
        Content-keyed cache of profiling results.  Defaults to the
        process-wide shared cache, so every server (and quality sweep)
        profiles a given clip's pixels exactly once; pass a dedicated
        :class:`~repro.core.profile_cache.ProfileCache` to isolate.
    policy:
        The :class:`~repro.core.policies.BacklightPolicy` this server
        annotates with (``None``, a registered name, or an instance).
        Part of every track and profile cache key, so two servers running
        different policies on the same content never cross-serve.
    ambient:
        Optional serve-time ambient: an
        :class:`~repro.display.ambient.AmbientTrace`, condition, or spec
        string (``"office"`` or ``"0:dark-room,30:office"``).  When set,
        every session's device binding happens per scene against the
        trace's condition at the scene's start time — the simulated
        light-sensor loop — instead of the dark-room annotation-time
        bind.  ``None`` keeps the classic bind.

    A compensated frame record is the same bytes for every client that
    binds the same transform, so the server keeps each record's CRC32 in
    :attr:`record_crcs`, a :class:`~repro.core.profile_cache.ProfileCache`
    of :data:`RECORD_CRC_ENTRIES` entries.  Frame packets carry their
    key in ``crc_key``: the clip's registration serial (new whenever
    :meth:`add_clip` puts another object under the name), the frame
    index and the frame's transform key; the wire encoder adds the
    header prefix.

    Binding a track to a device is the same work for every session that
    asks for the same binding, so :attr:`bindings`, a
    :class:`~repro.core.profile_cache.ProfileCache` of
    :data:`BINDING_ENTRIES` entries, keeps each bound
    :class:`~repro.core.annotation.DeviceAnnotationTrack`.  The key is the clip's name and
    registration serial, the quality, the policy key, the device and
    the ambient trace, so an opening, a switch or a resume that binds
    again is a lookup.
    """

    def __init__(
        self,
        params: SchemeParameters = SchemeParameters(),
        qualities: Tuple[float, ...] = QUALITY_LEVELS,
        dvfs_annotator: Optional[DvfsAnnotator] = None,
        codec: Optional[CodecModel] = None,
        engine: EngineSpec = None,
        profile_cache: Optional[ProfileCache] = None,
        policy: PolicySpec = None,
        ambient=None,
    ):
        if not qualities:
            raise ValueError("server needs at least one quality level")
        self.params = params
        self.qualities = tuple(sorted(qualities))
        self.ambient = None if ambient is None else as_ambient_trace(ambient)
        self.dvfs_annotator = dvfs_annotator
        self.codec = codec
        self.engine = engine
        self.profile_cache = (
            profile_cache if profile_cache is not None else shared_profile_cache()
        )
        self.policy = resolve_policy(policy)
        #: Record CRCs by (serial, frame, transform key, header prefix).
        self.record_crcs = ProfileCache(
            max_entries=RECORD_CRC_ENTRIES, kind="record-crc"
        )
        #: Bound device tracks by (name, serial, quality, policy key,
        #: device, ambient trace).
        self.bindings = ProfileCache(max_entries=BINDING_ENTRIES, kind="bind")
        # name -> (clip, registration serial)
        self._clips: Dict[str, Tuple[ClipBase, int]] = {}
        self._clip_serials = itertools.count(1)
        self._encoded: Dict[str, object] = {}
        self._profiles: Dict[str, ProfileResult] = {}
        self._tracks: Dict[Tuple, AnnotationTrack] = {}
        self._dvfs_tracks: Dict[str, DvfsTrack] = {}
        self._session_ids = itertools.count(1)
        reg = telemetry_registry()
        self._sessions_counter = reg.counter(
            "repro_server_sessions_total", help="Sessions negotiated by media servers.",
        )
        self._track_requests_counter = reg.counter(
            "repro_server_track_requests_total",
            help=("Annotation-track requests served (cached or computed); "
                  "build_stream makes one only on a binding-store miss."),
        )
        self._streams_counter = reg.counter(
            "repro_server_streams_total", help="Annotated streams emitted to clients.",
        )
        self._frames_streamed_counter = reg.counter(
            "repro_server_frames_streamed_total",
            help="Compensated frame packets emitted to clients.",
        )

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def add_clip(self, clip: ClipBase) -> None:
        """Register a clip in the catalog (idempotent by name).

        Re-registering a name with a *different* clip object drops every
        name-keyed derivative (profile, tracks, encoded sizes), so stale
        annotations can never be served for replaced content, and draws
        a new registration serial, so no record CRC computed for the old
        object is reused.  The shared
        content-keyed profile cache makes the common same-pixels case
        cheap: the fresh profile lookup hits by fingerprint.
        """
        existing = self._clips.get(clip.name)
        if existing is not None:
            if existing[0] is clip:
                return
            self._profiles.pop(clip.name, None)
            self._dvfs_tracks.pop(clip.name, None)
            self._encoded.pop(clip.name, None)
            for key in [k for k in self._tracks if k[0] == clip.name]:
                del self._tracks[key]
        self._clips[clip.name] = (clip, next(self._clip_serials))

    def catalog(self) -> Tuple[str, ...]:
        """Names of all registered clips, sorted."""
        return tuple(sorted(self._clips))

    def get_clip(self, name: str) -> ClipBase:
        """Look up a clip by name; NegotiationError if absent."""
        return self._registration(name)[0]

    def _registration(self, name: str) -> Tuple[ClipBase, int]:
        """``(clip, registration serial)`` under ``name``; NegotiationError
        if absent."""
        try:
            return self._clips[name]
        except KeyError:
            raise NegotiationError(f"clip {name!r} not in catalog") from None

    def _clip_serial(self, name: str, clip: ClipBase) -> Optional[int]:
        """The registration serial of ``clip`` under ``name``, or ``None``
        when the name no longer holds that object."""
        registered, serial = self._clips.get(name, (None, None))
        return serial if registered is clip else None

    # ------------------------------------------------------------------
    # Annotation preparation (cached)
    # ------------------------------------------------------------------
    def profile(self, clip_name: str) -> ProfileResult:
        """Profile a clip once; later calls hit the cache.

        Two cache tiers: a name-keyed dict for repeat lookups on this
        server (no hashing), backed by the content-keyed
        :attr:`profile_cache` shared across quality variants, device
        bindings, servers and sweeps.
        """
        if clip_name not in self._profiles:
            clip = self.get_clip(clip_name)
            pipeline = AnnotationPipeline(
                self.params,
                engine=self.engine,
                profile_cache=self.profile_cache,
                policy=self.policy,
            )
            self._profiles[clip_name] = pipeline.profile(clip)
        return self._profiles[clip_name]

    def annotation_track(self, clip_name: str, quality: float) -> AnnotationTrack:
        """The device-independent track for one prepared variant."""
        if quality not in self.qualities:
            raise NegotiationError(
                f"quality {quality} is not a prepared variant {self.qualities}"
            )
        self._track_requests_counter.inc()
        key = (clip_name, quality, self.policy.key())
        if key not in self._tracks:
            clip = self.get_clip(clip_name)
            profile = self.profile(clip_name)
            pipeline = AnnotationPipeline(
                self.params.with_quality(quality),
                engine=self.engine,
                policy=self.policy,
            )
            self._tracks[key] = pipeline.annotate(clip, profile=profile)
        return self._tracks[key]

    def dvfs_track(self, clip_name: str) -> DvfsTrack:
        """The decode-complexity track for a clip (cached)."""
        if clip_name not in self._dvfs_tracks:
            if self.dvfs_annotator is None:
                raise NegotiationError("server was built without DVFS annotation")
            clip = self.get_clip(clip_name)
            profile = self.profile(clip_name)
            self._dvfs_tracks[clip_name] = self.dvfs_annotator.annotate_with_profile(
                clip, profile
            )
        return self._dvfs_tracks[clip_name]

    def encoded_clip(self, clip_name: str):
        """Encoded-size metadata for a clip (cached; requires a codec)."""
        if self.codec is None:
            raise NegotiationError("server was built without a codec model")
        if clip_name not in self._encoded:
            self._encoded[clip_name] = self.codec.encode(self.get_clip(clip_name))
        return self._encoded[clip_name]

    # ------------------------------------------------------------------
    # Archives (annotated content on disk)
    # ------------------------------------------------------------------
    def export_archive(self, clip_name: str, path) -> None:
        """Write a clip plus all prepared annotation variants to disk."""
        from .archive import save_archive

        clip = self.get_clip(clip_name)
        tracks = {q: self.annotation_track(clip_name, q) for q in self.qualities}
        dvfs = self.dvfs_track(clip_name) if self.dvfs_annotator is not None else None
        save_archive(path, clip, tracks, dvfs_track=dvfs)

    def add_archive(self, path) -> str:
        """Load annotated content from disk, seeding the caches.

        Returns the clip name.  No profiling happens: the archive's
        tracks are trusted (they were produced by an equivalent server).
        """
        from .archive import load_archive

        clip, tracks, dvfs = load_archive(path)
        self.add_clip(clip)
        for quality, track in tracks.items():
            # Keyed under the *producing* policy (recorded in the track),
            # which may differ from this server's own policy.
            self._tracks[(clip.name, quality, get_policy(track.policy).key())] = track
        if dvfs is not None:
            self._dvfs_tracks[clip.name] = dvfs
        return clip.name

    # ------------------------------------------------------------------
    # Sessions and streaming
    # ------------------------------------------------------------------
    def open_session(self, request: SessionRequest) -> SessionDescription:
        """Negotiate a session: validate, snap quality, assign an id."""
        clip = self.get_clip(request.clip_name)
        quality = snap_quality(request.quality, self.qualities)
        self._sessions_counter.inc()
        return SessionDescription(
            session_id=next(self._session_ids),
            clip_name=clip.name,
            quality=quality,
            device_name=request.capabilities.device_name,
            fps=clip.fps,
            frame_count=clip.frame_count,
        )

    def build_stream(
        self,
        session: SessionDescription,
        quality: Optional[float] = None,
        ambient: Optional[str] = None,
    ) -> AnnotatedStream:
        """Materialize the annotated stream object for a session.

        ``quality`` overrides the session's negotiated quality and
        ``ambient`` (a spec string) overrides the server-wide ambient
        trace — mid-stream ``requality`` re-binds by calling this with
        the post-switch values; the default call reproduces the opening
        binding exactly.  With no ambient anywhere the binding is the
        classic dark-room :meth:`AnnotationTrack.bind`, bit-identical to
        the pre-adaptation server.  The bound track comes from
        :attr:`bindings` when an earlier session bound the same way.
        """
        clip, serial = self._registration(session.clip_name)
        device = get_device(session.device_name)
        effective_quality = session.quality if quality is None else quality
        ambient_trace = (
            as_ambient_trace(ambient) if ambient is not None else self.ambient
        )
        key = (session.clip_name, serial, effective_quality,
               self.policy.key(), device.name, ambient_trace)
        bound = self.bindings.get(key)
        if bound is None:
            track = self.annotation_track(session.clip_name, effective_quality)
            if ambient_trace is not None:
                bound = bind_with_ambient_trace(
                    track, device, ambient_trace, fps=clip.fps
                )
            else:
                bound = track.bind(device)
            self.bindings.put(key, bound)
        record_event("policy_bind", session_id=session.session_id,
                     policy=self.policy.name, device=session.device_name)
        # The cached profile's exact histograms let the stream derive
        # clipped fractions without per-chunk pixel reductions.
        return AnnotatedStream(
            clip=clip, track=bound, device=device,
            profile=self._profiles.get(session.clip_name), engine=self.engine,
        )

    def _head_records(self, clip_name: str) -> int:
        """Data records in a stream's head: the annotation, plus DVFS."""
        has_dvfs = (
            self.dvfs_annotator is not None or clip_name in self._dvfs_tracks
        )
        return 2 if has_dvfs else 1

    def _wire_sizes(self, clip_name: str):
        """Per-frame encoded sizes when the server models a codec."""
        if self.codec is None:
            return None
        return self.encoded_clip(clip_name).frame_bytes

    def _stream_setup(self, session: SessionDescription):
        """Shared stream preamble: ``(annotated, head_packets, seq, wire_sizes)``.

        ``head_packets`` is the annotation packet (plus the DVFS track
        when present) and ``seq`` the first frame packet's sequence
        number.  Used by both :meth:`stream` and :meth:`stream_batches`.
        """
        with trace("server.stream"):
            annotated = self.build_stream(session)
        self._streams_counter.inc()
        head = [annotation_packet(0, annotated.track.to_bytes())]
        seq = self._head_records(session.clip_name)
        if seq > 1:
            head.append(
                annotation_packet(1, self.dvfs_track(session.clip_name).to_bytes())
            )
        return annotated, head, seq, self._wire_sizes(session.clip_name)

    def resume_point(
        self,
        session: SessionDescription,
        offset: int,
        plan: Sequence[Switch] = (),
    ) -> Optional[ResumePoint]:
        """Map a resume offset (data records held) to where emission restarts.

        A session's data records are its head (1 record, 2 with a DVFS
        track), then frames ``[0, f1)``, the re-bind annotation at
        ``f1``, frames ``[f1, f2)`` and so on for each ``(f, quality,
        ambient)`` entry of ``plan`` (strictly increasing frames, as
        resume tokens guarantee; entries at or past the clip's end never
        apply).  Returns ``None`` when the offset falls inside the head,
        which must then be re-emitted and filtered.  An offset past the
        end maps to the end, with ``records`` the full stream's total.
        """
        records = self._head_records(session.clip_name)
        if offset < records:
            return None
        frame_count = self.get_clip(session.clip_name).frame_count
        frame = passed = 0
        for boundary, _, _ in plan:
            if boundary >= frame_count or offset < records + boundary - frame:
                break
            records += boundary - frame
            frame = boundary
            if offset == records:  # the re-bind annotation is next
                return ResumePoint(frame, records, passed)
            records += 1
            passed += 1
        more = min(offset - records, frame_count - frame)
        return ResumePoint(frame + more, records + more, passed)

    def stream(self, session: SessionDescription) -> Iterator[MediaPacket]:
        """Emit the session's packets: annotation first, then frames.

        Frames are compensated server-side ("to reduce the load on the
        client device at runtime, the compensation of the frames ... is
        performed at either the server or the intermediary proxy node")
        by :meth:`AnnotatedStream.iter_chunks
        <repro.core.pipeline.AnnotatedStream.iter_chunks>`, which owns
        both the batched kernel and the per-frame path (the
        ``"perframe"`` engine's reference emission, and clips that mix
        frame resolutions).  This is the flattened :meth:`stream_batches`
        loop at the autotuned chunk span, with no lead chunk.
        """
        annotated, head, seq, wire_sizes = self._stream_setup(session)
        yield from head
        for batch in self._emit_batches(
            session, annotated, 0, seq, wire_sizes,
            lead_chunk_frames=None, wire_chunk_frames=None,
            adaptation=AdaptationControl(),
        ):
            yield from batch

    def stream_batches(
        self,
        session: SessionDescription,
        lead_chunk_frames: Optional[int] = LEAD_CHUNK_FRAMES,
        wire_chunk_frames: Optional[int] = WIRE_CHUNK_FRAMES,
        adaptation: Optional[AdaptationControl] = None,
        *,
        start: Optional[int] = None,
    ) -> Iterator[List[MediaPacket]]:
        """Emit the session's packets as wire-oriented batches.

        Same packet sequence as :meth:`stream` (same payload bytes, same
        sequence numbers), grouped for the network send path: the head
        (annotation packets) is yielded first on its own, so it can hit
        the wire while the first frame chunk is still compensating; each
        subsequent batch is the frame packets of one chunk from
        :meth:`AnnotatedStream.iter_chunks
        <repro.core.pipeline.AnnotatedStream.iter_chunks>` — batched or
        per-frame alike, so every engine groups the same way.  The first chunk is
        shrunk to ``lead_chunk_frames`` frames so time-to-first-frame is
        bounded by a small compensate, not a full chunk.  Chunks span
        ``wire_chunk_frames`` frames (``None`` falls back to the
        in-process autotune): short spans keep the compute a producer
        runs between socket writes — and its compute-slot hold under
        contention — bounded, trading a little batching amortization for
        pipeline smoothness.

        With an :class:`AdaptationControl`, mid-stream ``requality``
        switches are honored: at the next scene boundary after a request
        the session re-binds (new quality and/or ambient) and the stream
        continues with an in-stream ack (live switches only) plus a
        fresh annotation packet carrying the full new device track —
        byte-identical to a fresh fetch's head annotation at the new
        binding.  Frame sequence numbers continue unbroken
        (``seq_base + frame_index``), and nothing is replayed.

        ``start`` resumes emission at that frame with no head: the
        session binds once, to the binding in force there — the last
        switch in ``adaptation.applied`` (see
        :meth:`AdaptationControl.fast_forward` and :meth:`resume_point`),
        else the opening one — and the lead chunk starts at ``start``.
        Every record from there on is byte-identical to the same record
        of the uninterrupted stream.  Each frame packet's pixels are
        their own buffer, valid after the generator advances.
        """
        if adaptation is None:
            adaptation = AdaptationControl()
        if start is None:
            annotated, head, seq, wire_sizes = self._stream_setup(session)
            yield head
            start = 0
        else:
            annotated = None  # bound lazily, to the binding in force
            self._streams_counter.inc()
            seq = self._head_records(session.clip_name)
            wire_sizes = self._wire_sizes(session.clip_name)
        yield from self._emit_batches(
            session, annotated, start, seq, wire_sizes,
            lead_chunk_frames, wire_chunk_frames, adaptation,
        )

    def _emit_batches(
        self,
        session: SessionDescription,
        stream: Optional[AnnotatedStream],
        start: int,
        seq_base: int,
        wire_sizes,
        lead_chunk_frames: Optional[int],
        wire_chunk_frames: Optional[int],
        adaptation: AdaptationControl,
    ) -> Iterator[List[MediaPacket]]:
        """The frame-emission loop behind :meth:`stream_batches` and :meth:`stream`.

        Emits segments of the current binding's stream from ``start``,
        polling the control for live requests between chunks and for
        scheduled (resume-replay) switches between segments.  A switch
        truncates the in-flight chunk at the boundary frame (chunk
        re-slicing is bit-safe), re-binds via :meth:`build_stream`, and
        emits ``[ack?, annotation]`` before the next segment — so the
        post-switch frames and annotation bytes match a fresh fetch at
        the new binding exactly.  ``stream`` is ``None`` on a resume: it
        is bound on first use, to the last applied switch's binding.
        Each frame packet carries its :attr:`record_crcs` key.
        """
        frame_count = self.get_clip(session.clip_name).frame_count
        applied = adaptation.applied
        quality = applied[-1][1] if applied else session.quality
        ambient: Optional[str] = applied[-1][2] if applied else None
        pos = start
        lead = lead_chunk_frames
        # (frame, quality, ambient, live) once a switch is scheduled.
        pending: Optional[Tuple[int, float, Optional[str], bool]] = None

        def retarget(req, base_quality, base_ambient):
            """A live request's binding; unset fields keep the base's."""
            return (
                base_quality if req[0] is None
                else snap_quality(req[0], self.qualities),
                base_ambient if req[1] is None else str(req[1]),
            )

        def resolve_request(req, at: int):
            # Strictly after the last applied switch: a request polled
            # right at that boundary must not re-bind it a second time.
            done = adaptation.applied
            after = done[-1][0] + 1 if done else 0
            boundary = stream.next_scene_start(max(at, after))
            return (boundary, *retarget(req, quality, ambient), True)

        while pos < frame_count:
            if pending is None:
                planned = adaptation.next_planned(pos)
                if planned is not None:
                    pending = (planned[0], planned[1], planned[2], False)
            emitted_to = pos
            due = pending is not None and pending[0] <= pos
            if not due and stream is None:
                with trace("server.stream"):
                    stream = self.build_stream(
                        session, quality=quality, ambient=ambient
                    )
            if not due:
                serial = self._clip_serial(session.clip_name, stream.clip)
                for chunk in stream.iter_chunks(
                    chunk_size=wire_chunk_frames,
                    lead=lead,
                    start=pos,
                ):
                    lead = None
                    if pending is None:
                        req = adaptation.poll_request()
                        if req is not None:
                            pending = resolve_request(req, chunk.start)
                    if pending is not None and chunk.start >= pending[0]:
                        break
                    stop = (
                        chunk.stop if pending is None
                        else min(chunk.stop, pending[0])
                    )
                    keys = stream.transform_keys(chunk.start, stop)
                    batch = []
                    for k in range(stop - chunk.start):
                        i = chunk.start + k
                        wire = (
                            int(wire_sizes[i])
                            if wire_sizes is not None else None
                        )
                        batch.append(frame_packet(
                            seq_base + i, chunk.frame(k),
                            frame_index=i, wire_bytes=wire,
                            crc_key=(
                                None if serial is None
                                else (serial, i, keys[k])
                            ),
                        ))
                    self._frames_streamed_counter.inc(len(batch))
                    yield batch
                    emitted_to = stop
                    if pending is not None and stop >= pending[0]:
                        break
                else:
                    emitted_to = frame_count
            pos = emitted_to
            if pending is not None and pending[0] <= pos < frame_count:
                if pending[3]:
                    # Latest wins up to the boundary itself: a request
                    # that arrived after this switch was scheduled
                    # retargets it instead of waiting a whole scene.
                    req = adaptation.poll_request()
                    if req is not None:
                        pending = (pending[0], *retarget(req, *pending[1:3]),
                                   True)
                boundary, quality, ambient, live = pending
                with trace("server.rebind"):
                    stream = self.build_stream(
                        session, quality=quality, ambient=ambient
                    )
                record_event(
                    "session_requality", session_id=session.session_id,
                    frame=boundary, quality=quality,
                    ambient=ambient, replay=not live,
                )
                acks = adaptation.switch_applied(boundary, quality, ambient, live)
                yield list(acks) + [
                    annotation_packet(seq_base + pos, stream.track.to_bytes())
                ]
                pending = None
        if pending is not None and pending[3]:
            tail = adaptation.switch_missed(
                frame_count, "no scene boundary before end of stream"
            )
            if tail:
                yield list(tail)
