"""Mid-stream adaptation (``requality``) tests.

The acceptance path of the adaptation control plane: a live session is
switched to a different quality and/or ambient bind **without tearing
down the connection** — the server re-binds at the next scene boundary
and replays nothing.  Covered here:

* wire vocabulary: ``requality`` request/ack round-trips and the
  switch plan carried by portable resume tokens;
* the :class:`~repro.streaming.server.AdaptationControl` mailbox;
* the :class:`~repro.net.client.BatteryClient` state machine (battery
  drain → quality steps, light sensor → ambient re-binds), driven by
  *modeled* playback time so every run is deterministic;
* end to end: post-switch frames byte-identical to a fresh fetch at the
  target binding, with no reconnect — through a direct socket, through
  :class:`LossyTransport` (reconnect-with-resume replays the switch
  plan), and across a fleet shard;
* resume seeks: a resume at any data-record offset starts emission
  there, under the binding in force, byte-identical to the
  uninterrupted stream — and the plan a re-issued token carries stays
  complete after a seek;
* hostile tokens: decoding never raises and never yields an unordered
  plan; adoption rejects plans this server could not have produced.

Live switches need production paced against the client (otherwise a
tiny clip is fully produced before the request arrives): the fetch
clients report progress, so a session writes at most the progress
window past them and computes at most one step ahead of its writes.
Whether a request lands is decided without timing in
``TestRequalityRace``: a gated server holds production at a known frame
while the request arrives.
"""

import asyncio
import base64
import functools
import json
import random
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DvfsAnnotator
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    BatteryClient,
    FaultSpec,
    FetchOptions,
    LossyTransport,
    MESSAGE_KINDS,
    ServeConfig,
    decode_control,
    decode_portable_token,
    encode_portable_token,
    encode_requality,
    encode_requality_ack,
)
from repro.net.client import _FetchProgress
from repro.net.codec import encode_packet_bytes, open_records
from repro.net.messages import (
    PROGRESS_EVERY,
    encode_hello,
    encode_progress,
    encode_resume,
)
from repro.player import DecoderModel
from repro.power import Battery
from repro.streaming import server as streaming_server_module
from repro.streaming import (
    AdaptationControl,
    ClientCapabilities,
    MediaServer,
    NegotiationError,
    PacketType,
    SessionRequest,
)
from repro.telemetry import flight_events, registry
from repro.video import (
    ArrayClip,
    LazyClip,
    SceneSpec,
    ScriptedClipFactory,
    VideoClip,
)

DEVICE_NAME = "ipaq5555"
CLIP = "adaptclip"
FRAMES = 120
FPS = 30.0
TARGET_QUALITY = 0.2

#: One record per write, as the adaptation workloads serve.  The
#: progress window, not this config, bounds how far a reporting
#: client's session writes ahead of its reads.
PACED = ServeConfig(batch_records=1, batch_bytes=1)

#: Drains a 0.004 Wh pack at 20 W: all four default SOC thresholds are
#: crossed within the first modeled second of playback, so the client
#: requests the bottom of the ladder early in the stream.
TINY_BATTERY = dict(
    battery_trace="0:20",
    battery=Battery(capacity_wh=0.004, rated_power_w=1.5),
)


def _adaptive_clip():
    """Ten 12-frame scenes (alternating dark/bright) at 30 fps."""
    return _scene_clip([12] * 10)


def _scene_clip(lengths):
    """Alternating dark/bright scenes of the given lengths at 48x36."""
    scenes = [
        SceneSpec("dark", n, {"background": 0.15 + 0.01 * i,
                              "highlight": 0.6, "glow_level": 0.3})
        if i % 2 == 0 else
        SceneSpec("bright", n, {"background": 0.85, "variation": 0.08})
        for i, n in enumerate(lengths)
    ]
    factory = ScriptedClipFactory(scenes, resolution=(48, 36), seed=11)
    return LazyClip(factory, frame_count=factory.frame_count, fps=FPS,
                    name=CLIP, resolution=(48, 36))


def _media():
    server = MediaServer()
    server.add_clip(_adaptive_clip())
    return server


def _battery_client(device, cls=BatteryClient, **overrides):
    kwargs = dict(TINY_BATTERY)
    kwargs.update(
        max_retries=0,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.0,
        rng=random.Random(0),
    )
    kwargs.update(overrides)
    return cls(device, **kwargs)


def _plain_client(device, **overrides):
    kwargs = dict(max_retries=0, backoff_base_s=0.01, backoff_max_s=0.05,
                  jitter_s=0.0, rng=random.Random(0))
    kwargs.update(overrides)
    return AsyncMobileClient(device, **kwargs)


def _frame_bytes(result):
    return {
        p.frame_index: p.frame.pixels.tobytes()
        for p in result.packets if p.ptype is PacketType.FRAME
    }


def _annotations(result):
    return [bytes(p.payload) for p in result.packets
            if p.ptype is PacketType.ANNOTATION]


def _assert_post_switch_identical(adaptive, reference, boundary):
    """Frames from ``boundary`` on must match the reference fetch."""
    mine, ref = _frame_bytes(adaptive), _frame_bytes(reference)
    assert sorted(mine) == list(range(FRAMES))  # frame-seq continuity
    post = [i for i in range(FRAMES) if i >= boundary]
    assert post, "switch landed after the last frame"
    for i in post:
        assert mine[i] == ref[i], f"frame {i} differs post-switch"
    # The re-bound annotation is the reference session's head annotation.
    assert _annotations(adaptive)[-1] == _annotations(reference)[0]


# ---------------------------------------------------------------------------
# wire vocabulary


class TestRequalityMessages:
    def test_kind_registered(self):
        assert "requality" in MESSAGE_KINDS

    def test_request_round_trip(self):
        packet = encode_requality(quality=0.15, ambient="office", seq=3)
        message = decode_control(packet)
        assert message.kind == "requality"
        info = message.requality
        assert info.is_request
        assert info.quality == 0.15
        assert info.ambient == "office"

    def test_request_needs_a_change(self):
        with pytest.raises(ValueError):
            encode_requality()

    def test_ack_round_trip(self):
        packet = encode_requality_ack(
            True, 45, quality=0.2, ambient="office", token="tok", seq=0
        )
        info = decode_control(packet).requality
        assert not info.is_request
        assert info.applied is True
        assert (info.frame, info.quality, info.ambient, info.token) == (
            45, 0.2, "office", "tok"
        )

    def test_reject_round_trip(self):
        info = decode_control(
            encode_requality_ack(False, 119, error="no boundary left", seq=0)
        ).requality
        assert info.applied is False
        assert info.error == "no boundary left"

    def test_portable_token_carries_switch_plan(self):
        plan = ((45, 0.2, None), (57, 0.2, "office"))
        token = encode_portable_token(CLIP, 0.0, DEVICE_NAME, switches=plan)
        info = decode_portable_token(token)
        assert info.switches == plan
        assert info.quality == 0.0  # opening quality, not the target


# ---------------------------------------------------------------------------
# the mailbox


class TestAdaptationControl:
    def test_latest_request_wins_and_poll_clears(self):
        control = AdaptationControl()
        control.request(quality=0.1)
        control.request(quality=0.2, ambient="office")
        assert control.poll_request() == (0.2, "office")
        assert control.poll_request() is None

    def test_pending_requests_merge_field_wise(self):
        # A quality step must survive a later ambient-only request (and
        # vice versa) when both land before the producer polls.
        control = AdaptationControl()
        control.request(quality=0.2)
        control.request(ambient="office")
        assert control.poll_request() == (0.2, "office")
        control.request(ambient="sunlight")
        control.request(quality=0.05)
        assert control.poll_request() == (0.05, "sunlight")

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            AdaptationControl().request()

    def test_plan_peek_and_expiry(self):
        control = AdaptationControl(plan=[(10, 0.2, None), (20, 0.2, "office")])
        assert control.next_planned(0) == (10, 0.2, None)
        assert control.next_planned(11) == (20, 0.2, "office")
        assert control.next_planned(21) is None

    def test_live_switch_emits_ack_and_extends_plan(self):
        control = AdaptationControl()
        seen = []
        control.ack_builder = lambda frame, quality, ambient, plan: (
            seen.append((frame, quality, ambient, plan)) or "ACK"
        )
        packets = control.switch_applied(45, 0.2, "office", live=True)
        assert packets == ["ACK"]
        assert seen == [(45, 0.2, "office", ((45, 0.2, "office"),))]
        assert control.switch_plan() == ((45, 0.2, "office"),)

    def test_replay_switch_emits_nothing(self):
        control = AdaptationControl(plan=[(45, 0.2, None)])
        control.ack_builder = lambda *a: "ACK"
        assert control.switch_applied(45, 0.2, None, live=False) == []
        assert control.next_planned(0) is None
        assert control.switch_plan() == ((45, 0.2, None),)


# ---------------------------------------------------------------------------
# the client state machine (modeled time — no sockets)


def _progress(quality=0.0, frames_seen=0):
    progress = _FetchProgress()
    progress.session = SimpleNamespace(quality=quality, fps=FPS)
    progress.frames_seen = frames_seen
    return progress


class TestBatteryClientModel:
    def test_state_of_charge_decreases(self, device):
        client = _battery_client(device)
        socs = [client.state_of_charge(t) for t in (0.0, 0.3, 0.6, 10.0)]
        assert socs[0] == pytest.approx(1.0)
        assert all(b <= a for a, b in zip(socs, socs[1:]))
        assert socs[-1] == 0.0

    def test_no_battery_trace_means_full_charge(self, device):
        client = BatteryClient(device, ambient_trace="office")
        assert client.state_of_charge(1e6) == 1.0

    def test_validation(self, device):
        with pytest.raises(ValueError):
            BatteryClient(device, soc_thresholds=(1.5,))
        with pytest.raises(ValueError):
            BatteryClient(device, quality_ladder=())

    def test_steps_down_ladder_as_battery_drains(self, device):
        client = _battery_client(device)
        progress = _progress(quality=0.0)
        assert client._advise(progress) is None  # t=0: full charge
        # By frame 60 (t=2 s) the tiny pack is flat: one request straight
        # to the bottom of the ladder.
        progress.frames_seen = 60
        assert client._advise(progress) == (TARGET_QUALITY, None)
        # Crossings are edge-triggered: no repeat requests.
        progress.frames_seen = 90
        assert client._advise(progress) is None

    def test_never_steps_above_opening_quality(self, device):
        client = _battery_client(device)
        progress = _progress(quality=TARGET_QUALITY)  # already at the bottom
        progress.frames_seen = 60
        assert client._advise(progress) is None

    def test_resume_resends_an_unacknowledged_request(self, device):
        # A request still unapplied when the connection dies is gone on
        # the server; the client asks again on the resumed connection.
        client = _battery_client(device)
        progress = _progress(quality=0.0)
        progress.frames_seen = 60
        assert client._advise(progress) == (TARGET_QUALITY, None)
        # An ack for an earlier, smaller step does not confirm it ...
        client._handle_requality_ack(decode_control(
            encode_requality_ack(True, 45, quality=0.1, seq=0)
        ).requality, progress)
        progress.frames_seen = 61
        assert client._advise(progress) is None
        # ... so a resume re-sends it, once.
        progress.resumes += 1
        assert client._advise(progress) == (TARGET_QUALITY, None)
        client._handle_requality_ack(decode_control(
            encode_requality_ack(True, 57, quality=TARGET_QUALITY, seq=0)
        ).requality, progress)
        progress.resumes += 1
        assert client._advise(progress) is None

    def test_ambient_change_requests_rebind_once(self, device):
        client = BatteryClient(device, ambient_trace="0:dark-room,1:office")
        progress = _progress()
        assert client._advise(progress) is None  # still dark
        progress.frames_seen = int(1.5 * FPS)
        assert client._advise(progress) == (None, "office")
        progress.frames_seen = int(2.0 * FPS)
        assert client._advise(progress) is None  # edge-triggered


class TestFetchOptionsClient:
    def test_traces_build_battery_client(self, device):
        options = FetchOptions(battery_trace="0:2.5", ambient_trace="office")
        client = options.client(device)
        assert isinstance(client, BatteryClient)
        assert client.load_trace is not None
        assert client.ambient_trace is not None

    def test_plain_options_build_plain_client(self, device):
        client = FetchOptions().client(device)
        assert not isinstance(client, BatteryClient)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FetchOptions(battery_trace="nonsense")
        with pytest.raises(ValueError):
            FetchOptions(ambient_trace="0:office,0:sunlight")

    def test_serve_config_validates_ambient(self):
        with pytest.raises(ValueError):
            ServeConfig(ambient="x:office")


# ---------------------------------------------------------------------------
# end to end


def _counter(name):
    metric = registry().get(name)
    return 0 if metric is None else metric.value


def test_battery_requality_byte_identical_no_reconnect(device):
    """The tentpole guarantee on a direct socket.

    A battery-driven client opens at the best quality; its modeled pack
    drains within a second, so it requests the bottom of the ladder
    mid-stream.  The switch applies at a scene boundary, nothing is
    replayed, and every post-switch frame is byte-identical to a fresh
    fetch at the target quality.
    """

    async def run():
        async with AnnotationStreamServer(_media(), config=PACED) as server:
            host, port = server.address
            before = _counter("repro_requality_total")
            adaptive = await _battery_client(device).fetch(
                host, port, CLIP, 0.0
            )
            reference = await _plain_client(device).fetch(
                host, port, CLIP, TARGET_QUALITY
            )
            return adaptive, reference, before

    adaptive, reference, before = asyncio.run(run())
    assert adaptive.attempts == 1  # no reconnect
    applied = [r for r in adaptive.requalities if r.applied]
    assert applied, "no requality landed — pacing broke?"
    assert applied[-1].quality == TARGET_QUALITY
    assert applied[-1].token, "applied ack must re-issue the resume token"
    _assert_post_switch_identical(adaptive, reference, applied[-1].frame)
    assert _counter("repro_requality_total") >= before + 1
    kinds = {e["kind"] for e in flight_events()}
    assert {"requality_request", "session_requality"} <= kinds


def test_ambient_requality_matches_ambient_session(device):
    """An ambient re-bind converges on the serve-time ambient session.

    The client's light sensor switches dark-room → office one modeled
    second in; post-switch output must be byte-identical to a session
    served with ``ServeConfig(ambient="office")`` from the start.
    """

    async def run():
        async with AnnotationStreamServer(_media(), config=PACED) as server:
            host, port = server.address
            client = BatteryClient(
                device, ambient_trace="0:dark-room,1:office",
                max_retries=0, jitter_s=0.0, rng=random.Random(0),
            )
            adaptive = await client.fetch(host, port, CLIP, 0.0)
        office = PACED.replace(ambient="office")
        async with AnnotationStreamServer(_media(), config=office) as server:
            reference = await _plain_client(device).fetch(
                *server.address, CLIP, 0.0
            )
        return adaptive, reference

    adaptive, reference = asyncio.run(run())
    applied = [r for r in adaptive.requalities if r.applied]
    assert applied and applied[-1].ambient == "office"
    _assert_post_switch_identical(adaptive, reference, applied[-1].frame)


class _CountingBatteryClient(BatteryClient):
    """A battery client that counts the records it has advised on and
    the requests it has asked for, in the same step."""

    seen = asked = 0

    def _advise(self, progress):
        advice = super()._advise(progress)
        self.seen = progress.frames_seen
        if advice is not None:
            self.asked += 1
        return advice


def test_requality_survives_lossy_transport(device):
    """Reconnect-with-resume replays the switch plan byte-identically.

    Production holds before frame 40 until the server has counted every
    request the client asked for by then (its battery crosses every
    threshold within the first modeled second, 30 frames), so the last
    switch lands at the scene start at or after 40.  The relay kills the
    connection after 80 records, past that switch and its ack; the
    client resumes with the re-issued token, the server replays the
    remainder under the switch plan, and the reassembled stream still
    matches the fresh fetch at the target quality post-switch.
    """
    gate = 40
    media = _GatedMedia(gate=gate)
    media.add_clip(_adaptive_clip())
    spec = FaultSpec(kill_after_records=80, seed=3)

    async def run():
        async with AnnotationStreamServer(media, config=PACED) as server:
            async with LossyTransport(*server.address, spec=spec) as lossy:
                client = _battery_client(device, cls=_CountingBatteryClient,
                                         max_retries=8)
                fetch = asyncio.ensure_future(
                    client.fetch(*lossy.address, CLIP, 0.0)
                )
                await _wait_for(lambda: client.seen >= gate)
                await _wait_for(lambda: _counter("repro_requality_total")
                                == client.asked)
                media.release.set()
                adaptive = await asyncio.wait_for(fetch, timeout=30.0)
            reference = await _plain_client(device).fetch(
                *server.address, CLIP, TARGET_QUALITY
            )
            return adaptive, reference, client.asked

    adaptive, reference, asked = asyncio.run(run())
    assert asked >= 1
    assert adaptive.resumes >= 1, "the relay should have forced a resume"
    applied = [r for r in adaptive.requalities if r.applied]
    assert applied and applied[-1].quality == TARGET_QUALITY
    assert applied[-1].frame <= _scene_start_at_or_after(media, gate)
    _assert_post_switch_identical(adaptive, reference, applied[-1].frame)


def _fleet_catalog():
    """Picklable catalog factory for the fleet workers."""
    return _media()


def test_requality_across_fleet_shard(device):
    """The requality loop works through the fleet router.

    The connection is pinned to the owning shard, so mid-stream requests
    ride the same duplex path; the adapted stream must match a fresh
    router fetch at the target quality post-switch.
    """
    from repro.fleet import FleetCoordinator

    async def run():
        async with FleetCoordinator(_fleet_catalog, shards=2, config=PACED,
                                    health_interval_s=0.2) as fleet:
            host, port = fleet.address
            adaptive = await _battery_client(device, max_retries=2).fetch(
                host, port, CLIP, 0.0
            )
            reference = await _plain_client(device, max_retries=2).fetch(
                host, port, CLIP, TARGET_QUALITY
            )
            return adaptive, reference

    adaptive, reference = asyncio.run(run())
    applied = [r for r in adaptive.requalities if r.applied]
    assert applied and applied[-1].quality == TARGET_QUALITY
    _assert_post_switch_identical(adaptive, reference, applied[-1].frame)


# ---------------------------------------------------------------------------
# the requality race, decided without timing


class _GatedMedia(MediaServer):
    """A server whose streams hold before producing frame ``gate``.

    Once every frame before ``gate`` is out, the batch generator sets
    ``held`` and blocks on ``release`` before it computes the next
    group, so a test can land a request at a known point of production.
    """

    def __init__(self, gate):
        super().__init__()
        self.gate = gate
        self.held = threading.Event()
        self.release = threading.Event()
        #: The adaptation control of the latest stream.
        self.adaptation = None

    def stream_batches(self, session, *args, **kwargs):
        self.adaptation = kwargs.get("adaptation")
        groups = super().stream_batches(session, *args, **kwargs)
        next_frame = 0
        try:
            while True:
                if next_frame == self.gate and not self.held.is_set():
                    self.held.set()
                    assert self.release.wait(timeout=30.0)
                try:
                    group = next(groups)
                except StopIteration:
                    return
                frames = [p.frame_index for p in group
                          if p.ptype is PacketType.FRAME]
                if frames:
                    next_frame = frames[-1] + 1
                yield group
        finally:
            groups.close()


async def _wait_for(predicate):
    deadline = asyncio.get_running_loop().time() + 30.0
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


def _gated_requality(media, device, ahead=b""):
    """Fetch with one request sent while production is held at the
    gate (after the bytes ``ahead``, in the same write); returns the
    in-stream ``requality`` acks."""

    async def run():
        async with AnnotationStreamServer(media, config=ServeConfig()) as server:
            conn = await open_records(*server.address)
            request = SessionRequest(CLIP, 0.0, ClientCapabilities(device.name))
            conn.write(encode_packet_bytes(encode_hello(request)))
            await conn.drain()

            async def read_all():
                records = []
                while (packet := await conn.read_packet()) is not None:
                    records.append(packet)
                return records

            reading = asyncio.ensure_future(read_all())
            await _wait_for(media.held.is_set)
            conn.write(ahead + encode_packet_bytes(
                encode_requality(quality=TARGET_QUALITY)
            ))
            await conn.drain()
            await _wait_for(lambda: _counter("repro_requality_total") == 1)
            media.release.set()
            records = await asyncio.wait_for(reading, timeout=30.0)
            await conn.close()
        return records

    records = asyncio.run(run())
    assert decode_control(records[-1]).kind == "end"
    return [decode_control(p).requality for p in records[1:-1]
            if p.ptype is PacketType.CONTROL]


def _scene_start_at_or_after(media, frame):
    session = media.open_session(
        SessionRequest(CLIP, 0.0, ClientCapabilities(DEVICE_NAME))
    )
    return media.build_stream(session).next_scene_start(frame)


class TestRequalityRace:
    """A request counted before production reaches frame ``F`` lands at
    the first scene start at or after ``F``; one with no scene start
    left, or one that arrives after production polled for the last
    time, is rejected at ``frame_count``."""

    def test_request_lands_at_next_scene_start_of_unproduced_frame(self, device):
        media = _GatedMedia(gate=40)
        media.add_clip(_adaptive_clip())
        boundary = _scene_start_at_or_after(media, 40)
        assert 40 <= boundary < FRAMES
        acks = _gated_requality(media, device)
        assert len(acks) == 1
        assert acks[0].applied is True
        assert acks[0].frame == boundary
        assert acks[0].quality == TARGET_QUALITY

    def test_request_past_last_boundary_rejected_at_frame_count(self, device):
        media = _GatedMedia(gate=104)
        media.add_clip(_scene_clip([12] * 8 + [24]))
        assert _scene_start_at_or_after(media, 104) == FRAMES
        acks = _gated_requality(media, device)
        assert len(acks) == 1
        assert acks[0].applied is False
        assert acks[0].frame == FRAMES

    def test_request_after_last_poll_rejected_at_frame_count(self, device):
        """Production is held once every frame is out, so the request
        lands after the stream's last poll; it is answered before
        ``end``, not dropped."""
        media = _GatedMedia(gate=FRAMES)
        media.add_clip(_adaptive_clip())
        acks = _gated_requality(media, device)
        assert len(acks) == 1
        assert acks[0].applied is False
        assert acks[0].frame == FRAMES


#: Requests in the burst of the per-session memory-bound test.
BURST = 3000


def test_thousands_of_requests_keep_one_session_bounded(device, monkeypatch):
    """A session flooded with requests of distinct ambient specs keeps
    its per-session state bounded: the mailbox holds one request (the
    burst of :data:`BURST` lands as its latest spec, at one boundary),
    the switch plan never outgrows the clip's scenes, and the binding
    store stays within its bound."""
    # One entry: each switch's new binding evicts the one before it.
    monkeypatch.setattr(streaming_server_module, "BINDING_ENTRIES", 1)
    gate = 40
    media = _GatedMedia(gate=gate)
    media.add_clip(_adaptive_clip())
    scenes = len(media.annotation_track(CLIP, 0.0).scenes)
    boundary = _scene_start_at_or_after(media, gate)

    def ambient(k):
        return f"{k / 10000:.4f}"

    async def run():
        async with AnnotationStreamServer(media, config=PACED) as server:
            conn = await open_records(*server.address)
            request = SessionRequest(CLIP, 0.0, ClientCapabilities(device.name))
            conn.write(encode_packet_bytes(encode_hello(request, progress=True)))
            await conn.drain()

            async def read_all():
                """Report progress; after the burst's ack, ask for a new
                ambient at every frame."""
                acks, data, late = [], 0, BURST
                while (packet := await conn.read_packet(30.0)) is not None:
                    if packet.ptype is PacketType.CONTROL:
                        message = decode_control(packet)
                        if message.kind == "requality":
                            acks.append(message.requality)
                        continue
                    data += 1
                    if data % PROGRESS_EVERY == 0:
                        conn.write(encode_packet_bytes(encode_progress(data)))
                    if acks and packet.ptype is PacketType.FRAME:
                        conn.write(encode_packet_bytes(
                            encode_requality(ambient=ambient(late))
                        ))
                        late += 1
                return acks, late - BURST

            reading = asyncio.ensure_future(read_all())
            await _wait_for(media.held.is_set)
            conn.write(b"".join(
                encode_packet_bytes(encode_requality(ambient=ambient(k)))
                for k in range(BURST)
            ))
            await conn.drain()
            await _wait_for(lambda: _counter("repro_requality_total") == BURST)
            media.release.set()
            acks, late = await asyncio.wait_for(reading, timeout=30.0)
            await conn.close()
        return acks, late

    acks, late = asyncio.run(run())
    assert late > 0
    applied = [a for a in acks if a.applied]
    assert (applied[0].frame, applied[0].ambient) == (boundary,
                                                      ambient(BURST - 1))
    assert len(applied) <= scenes
    control = media.adaptation
    assert len(control.switch_plan()) <= scenes
    pending = control.poll_request()
    assert pending is None or len(pending) == 2
    assert control.poll_request() is None
    assert len(media.bindings) == 1
    assert media.bindings.evictions == len(applied)


def test_request_with_unparseable_ambient_is_dropped(device):
    """A live request whose ambient spec does not parse is dropped when
    it arrives, not at the re-bind: the session keeps streaming, the
    valid request after it lands, and the stream ends with ``end``."""
    media = _GatedMedia(gate=40)
    media.add_clip(_adaptive_clip())
    acks = _gated_requality(media, device, ahead=encode_packet_bytes(
        encode_requality(ambient="not-a-light-level")
    ))
    assert len(acks) == 1
    assert acks[0].applied is True
    assert (acks[0].quality, acks[0].ambient) == (TARGET_QUALITY, None)
    assert _counter("repro_requality_total") == 1


# ---------------------------------------------------------------------------
# resume seeks to the client's record offset

#: Resume-matrix setups: plain, with a switch plan, a two-record DVFS
#: head, the per-frame engine, and a clip that mixes frame resolutions.
SEEK_SETUPS = ("static", "plan", "dvfs", "perframe", "mixed")

#: Wire server for seek tests: a forged token carries the switch plan.
ADOPTING = ServeConfig()


@pytest.fixture(scope="module")
def adaptive_pixels():
    """The adaptive clip rendered once, ``(FRAMES, 36, 48, 3)`` uint8."""
    return ArrayClip.from_clip(_adaptive_clip()).pixels


def _seek_clip(setup, pixels):
    if setup != "mixed":
        return ArrayClip(pixels, fps=FPS, name=CLIP)
    # The second half at a smaller resolution: chunked emission falls
    # back to per-frame compensation there.
    frames = [pixels[i] for i in range(FRAMES // 2)]
    frames += [pixels[i, :30, :40] for i in range(FRAMES // 2, FRAMES)]
    return VideoClip([f.copy() for f in frames], fps=FPS, name=CLIP)


def _seek_setup(setup, pixels):
    """``(media, plan)`` for one resume-matrix setup."""
    if setup == "dvfs":
        media = MediaServer(dvfs_annotator=DvfsAnnotator(
            decoder=DecoderModel(reference_pixels=48 * 36)
        ))
    elif setup == "perframe":
        media = MediaServer(engine="perframe")
    else:
        media = MediaServer()
    media.add_clip(_seek_clip(setup, pixels))
    if setup == "static":
        return media, ()
    stream = media.build_stream(media.open_session(_seek_request()))
    first = stream.next_scene_start(1)
    third = stream.next_scene_start(stream.next_scene_start(first + 1) + 1)
    return media, ((first, TARGET_QUALITY, None), (third, 0.1, "office"))


def _seek_request():
    return SessionRequest(CLIP, 0.0, ClientCapabilities(DEVICE_NAME))


def _data_records(batches):
    """Wire bytes of every data record (each encoded before advancing)."""
    return [
        encode_packet_bytes(p)
        for batch in batches for p in batch
        if p.ptype is not PacketType.CONTROL
    ]


@pytest.mark.parametrize("setup", SEEK_SETUPS)
def test_seek_matches_uninterrupted_stream_at_every_offset(setup,
                                                           adaptive_pixels):
    """In process, at every offset: ``resume_point`` + ``fast_forward``
    + ``stream_batches(start=)`` emit exactly the uninterrupted stream's
    remaining data records, and the plan ends complete."""
    media, plan = _seek_setup(setup, adaptive_pixels)
    session = media.open_session(_seek_request())
    full = _data_records(
        media.stream_batches(session, adaptation=AdaptationControl(plan))
    )
    head = 2 if setup == "dvfs" else 1
    assert len(full) == head + FRAMES + len(plan)
    for offset in range(len(full) + 3):
        point = media.resume_point(session, offset, plan)
        if offset < head:
            assert point is None, offset
            continue
        assert point.records == min(offset, len(full)), offset
        control = AdaptationControl(plan)
        control.fast_forward(point.switches)
        got = _data_records(media.stream_batches(
            session, adaptation=control, start=point.frame
        ))
        assert got == full[point.records:], offset
        assert control.switch_plan() == plan, offset


async def _resume_records(address, token, offset, requality=None):
    """Resume ``token`` at ``offset`` over a raw socket.

    Returns ``(data record bytes, end info, requality acks)``; a
    ``requality`` request, when given, rides in the same write as the
    resume, so it reaches the server before the stream's first frame.
    """
    conn = await open_records(*address)
    try:
        payload = encode_packet_bytes(encode_resume(token, offset))
        if requality is not None:
            payload += encode_packet_bytes(encode_requality(quality=requality))
        conn.write(payload)
        await conn.drain()
        opened = decode_control(await conn.read_packet(10.0))
        assert opened.kind == "session", opened
        assert opened.resumed_at == offset
        records, acks = [], []
        while True:
            packet = await conn.read_packet(10.0)
            assert packet is not None, "stream ended without an end message"
            if packet.ptype is not PacketType.CONTROL:
                records.append(encode_packet_bytes(packet))
                continue
            message = decode_control(packet)
            if message.kind == "end":
                return records, message.end, acks
            if message.kind == "requality":
                acks.append(message.requality)
    finally:
        await conn.close()


def _seek_offsets(total, head, rebind_records):
    """0, inside/just past the head, around each re-bind annotation
    record, the last frame, the end and past it."""
    offsets = {0, head - 1, head, total - 1, total, total + 4}
    for record in rebind_records:
        offsets |= {record - 1, record, record + 1}
    return sorted(o for o in offsets if o >= 0)


@pytest.mark.parametrize("setup", SEEK_SETUPS)
def test_resume_offset_byte_identity_on_the_wire(setup, adaptive_pixels):
    """The wire resume matrix: every listed offset resumes onto exactly
    the uninterrupted stream's remaining records, with full-stream
    ``end`` totals — nothing the client holds is sent again."""
    media, plan = _seek_setup(setup, adaptive_pixels)
    token = encode_portable_token(CLIP, 0.0, DEVICE_NAME, switches=plan)
    head = 2 if setup == "dvfs" else 1
    session = media.open_session(_seek_request())
    kinds = [
        p.ptype for batch in media.stream_batches(
            session, adaptation=AdaptationControl(plan)
        ) for p in batch
    ]
    rebinds = [i for i, kind in enumerate(kinds)
               if i >= head and kind is PacketType.ANNOTATION]
    assert len(rebinds) == len(plan)

    async def run():
        async with AnnotationStreamServer(media, config=ADOPTING) as server:
            full, end, _ = await _resume_records(server.address, token, 0)
            results = {}
            for offset in _seek_offsets(len(full), head, rebinds):
                results[offset] = await _resume_records(
                    server.address, token, offset
                )
            return full, end, results

    full, end, results = asyncio.run(run())
    assert (end.packet_count, end.frame_count) == (len(full), FRAMES)
    assert len(full) == len(kinds)
    for offset, (records, resumed_end, _) in results.items():
        assert records == full[offset:], offset
        assert resumed_end == end, offset


def test_second_resume_after_seek_keeps_the_plan_complete(adaptive_pixels):
    """A live switch applied after a seek re-issues a token whose plan
    still holds the switch the seek passed over, so a second resume — on
    a replica that adopts the token — replays the same bytes."""
    media, plan = _seek_setup("plan", adaptive_pixels)
    first_switch = plan[:1]
    token = encode_portable_token(
        CLIP, 0.0, DEVICE_NAME, switches=first_switch
    )
    offset = 1 + first_switch[0][0] + 1 + 3  # head, frames, re-bind, 3 more

    async def run():
        async with AnnotationStreamServer(media, config=PACED) as server:
            records, end, acks = await _resume_records(
                server.address, token, offset, requality=0.05
            )
        applied = [ack for ack in acks if ack.applied]
        assert len(applied) == 1, acks
        reissued = applied[0].token
        async with AnnotationStreamServer(_media(), config=ADOPTING) as replica:
            full, full_end, _ = await _resume_records(
                replica.address, reissued, 0
            )
            second = full_end.packet_count - 7  # past both re-binds
            tail, tail_end, _ = await _resume_records(
                replica.address, reissued, second
            )
        return records, end, applied[0], full, full_end, second, tail, tail_end

    records, end, ack, full, full_end, second, tail, tail_end = asyncio.run(run())
    switches = decode_portable_token(ack.token).switches
    assert switches == first_switch + ((ack.frame, 0.05, None),)
    assert first_switch[0][0] < ack.frame < second - 3
    # The first resume already matched the plan the token now records.
    assert records == full[offset:]
    assert end == full_end
    assert tail == full[second:]
    assert tail_end == full_end


def test_two_requests_straddling_a_boundary_rebind_once_each():
    """A request polled right after a switch at boundary ``b`` lands on
    the next boundary after ``b`` — never a second re-bind at ``b``."""
    media = _media()
    session = media.open_session(_seek_request())
    control = AdaptationControl()
    annotations = []
    frames = 0
    for batch in media.stream_batches(session, adaptation=control):
        for packet in batch:
            if packet.ptype is PacketType.ANNOTATION:
                annotations.append(packet.seq)
            elif packet.ptype is PacketType.FRAME:
                frames += 1
        if frames and len(annotations) == 1:
            control.request(quality=TARGET_QUALITY)  # before the boundary
        elif len(annotations) == 2 and len(control.applied) == 1:
            control.request(quality=0.1)  # right after the switch
    boundaries = [frame for frame, _, _ in control.applied]
    assert len(boundaries) == 2
    assert boundaries[0] < boundaries[1]
    assert annotations[1:] == [1 + b for b in boundaries]
    assert frames == FRAMES


# ---------------------------------------------------------------------------
# hostile portable tokens


def _forged(body):
    raw = json.dumps(body).encode("utf-8")
    encoded = base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")
    return f"p1.{encoded}"


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 200),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from("cqds"), inner, max_size=4),
    max_leaves=12,
)
_entry = st.one_of(
    st.tuples(st.integers(-3, 200), st.floats(allow_nan=True),
              st.one_of(st.none(), st.sampled_from(
                  ["office", "0:dark-room,1:office", "bogus", "-1", "nan", ""]
              ))).map(list),
    _json,
)


_hostile_tokens = st.one_of(
    st.text(max_size=40),
    st.builds(lambda body: _forged(body), _json),
    st.builds(
        lambda plan: _forged({"c": CLIP, "q": 0.0, "d": DEVICE_NAME,
                              "s": plan}),
        st.one_of(st.lists(_entry, max_size=6), _json),
    ),
    st.builds(
        lambda c, q, d, plan: _forged({"c": c, "q": q, "d": d, "s": plan}),
        st.sampled_from([CLIP, "nosuchclip"]),
        st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, 0.1, 0.2])),
        st.sampled_from([DEVICE_NAME, "nosuchdevice"]),
        st.lists(st.tuples(st.integers(0, FRAMES + 2),
                           st.sampled_from([0.05, 0.1, 0.2, 0.37]),
                           st.sampled_from([None, "office"])).map(list),
                 max_size=4),
    ),
)


@settings(max_examples=200, deadline=None)
@given(token=_hostile_tokens)
def test_decode_portable_token_never_raises_or_disorders(token):
    info = decode_portable_token(token)
    if info is None:
        return
    frames = [frame for frame, _, _ in info.switches]
    assert all(isinstance(frame, int) and frame >= 0 for frame in frames)
    assert all(b > a for a, b in zip(frames, frames[1:]))
    assert all(np.isfinite(q) for _, q, _ in info.switches)


@functools.lru_cache(maxsize=None)
def _token_server():
    """One wire server for the hostile-token property (never started)."""
    return AnnotationStreamServer(_media())


@settings(max_examples=200, deadline=None)
@given(token=_hostile_tokens, received=st.integers(0, 400))
def test_open_session_gives_a_session_or_negotiation_error(token, received):
    """Whatever a resume carries, the server either opens a session
    whose plan it could have issued, or refuses with NegotiationError."""
    server = _token_server()
    message = decode_control(encode_resume(token, received))
    try:
        session, issued, skip, plan = server._open_session(message)
    except NegotiationError:
        return
    assert skip == received
    assert all(frame < FRAMES and quality in server.media_server.qualities
               for frame, quality, _ in plan)
    info = decode_portable_token(issued)
    assert (info.clip_name, info.quality, info.device_name, info.switches) \
        == (session.clip_name, session.quality, session.device_name, plan)


@pytest.mark.parametrize("plan", [
    ((24, 0.2, None), (24, 0.1, None)),  # repeated frame
    ((36, 0.2, None), (24, 0.1, None)),  # out of order
    ((-1, 0.2, None),),                  # negative
    ((24, 0.2, "no-such-light"),),       # ambient spec does not parse
    ((24, float("nan"), None),),         # non-finite quality
])
def test_decode_rejects_malformed_plans(plan):
    token = _forged({"c": CLIP, "q": 0.0, "d": DEVICE_NAME,
                     "s": [list(entry) for entry in plan]})
    assert decode_portable_token(token) is None


@pytest.mark.parametrize("plan", [
    ((FRAMES, 0.2, None),),   # at the clip's end: could never apply
    ((24, 0.37, None),),      # not a prepared quality
])
def test_adoption_rejects_plans_this_server_never_issues(plan):
    token = encode_portable_token(CLIP, 0.0, DEVICE_NAME, switches=plan)
    assert decode_portable_token(token) is not None

    async def run():
        async with AnnotationStreamServer(_media(), config=ADOPTING) as server:
            conn = await open_records(*server.address)
            conn.write(encode_packet_bytes(encode_resume(token, 0)))
            await conn.drain()
            reply = decode_control(await conn.read_packet(5.0))
            await conn.close()
            return reply

    reply = asyncio.run(run())
    assert reply.kind == "error"
    assert "resume token" in reply.error
