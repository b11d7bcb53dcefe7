"""The config-object API: ServeConfig / FetchOptions, portable tokens.

Pins the serve/fetch surface:

* :class:`~repro.net.config.ServeConfig` validates once, is frozen and
  picklable, and parameterizes the server exactly like the old kwargs;
* the retired loose-kwarg spellings raise a plain ``TypeError``;
* :class:`~repro.net.config.FetchOptions` is the one definition behind
  the facade fetch family;
* resume tokens are a pure function of the stream: they round-trip,
  reject tampering and the earlier suffixed form, and let a *different*
  or restarted server continue a session byte-identically — the fleet
  failover primitive.
"""

import asyncio
import pickle
import random

import numpy as np
import pytest

from repro.api import StreamingService, fetch_stream_sync
from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    FetchOptions,
    ServeConfig,
    decode_portable_token,
    encode_portable_token,
    encode_packet_bytes,
)
from repro.net.codec import open_records
from repro.net.messages import decode_control, encode_hello, encode_resume
from repro.streaming import (
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.telemetry import registry
from repro.video import ArrayClip

FAST_PARAMS = SchemeParameters(quality=0.05, min_scene_interval_frames=5)
QUALITY = 0.05


def _clip(name="configclip", frames=24, height=16, width=12, seed=11):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(frames, height, width, 3), dtype=np.uint8
    )
    return ArrayClip(pixels, fps=24.0, name=name)


def _media_server(*clips):
    server = MediaServer(
        params=FAST_PARAMS, profile_cache=ProfileCache(max_entries=8)
    )
    for clip in clips:
        server.add_clip(clip)
    return server


def _reference(media, clip_name, quality=QUALITY):
    request = SessionRequest(clip_name, quality, ClientCapabilities("ipaq5555"))
    return list(media.stream(media.open_session(request)))


class TestServeConfig:
    def test_defaults_match_old_signature_defaults(self):
        config = ServeConfig()
        assert config.max_sessions is None
        assert config.accept_queue == 0
        assert config.portable_tokens is True  # accepted, has no effect
        assert config.batch_records == 32
        assert config.batch_bytes == 1 << 20

    @pytest.mark.parametrize("kwargs", [
        {"batch_records": 0},
        {"batch_bytes": 0},
        {"compute_slots": 0},
        {"hello_timeout_s": 0.0},
        {"max_sessions": 0},
        {"accept_queue": -1},
        {"accept_timeout_s": 0.0},
        {"busy_retry_after_s": -0.1},
        {"ambient": "no-such-light"},
        {"drain_timeout_s": 0.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_frozen_and_replace_revalidates(self):
        config = ServeConfig(batch_records=8)
        with pytest.raises(AttributeError):
            config.batch_records = 4
        assert config.replace(batch_records=16).batch_records == 16
        assert config.batch_records == 8  # original untouched
        with pytest.raises(ValueError):
            config.replace(batch_records=0)

    def test_resolved_compute_slots(self):
        assert ServeConfig(compute_slots=3).resolved_compute_slots() == 3
        assert ServeConfig().resolved_compute_slots() >= 1

    def test_picklable(self):
        config = ServeConfig(max_sessions=4, portable_tokens=True)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_server_mirrors_config(self):
        media = _media_server(_clip())
        config = ServeConfig(max_sessions=2, accept_queue=1, compute_slots=2)
        server = AnnotationStreamServer(media, config=config)
        assert server.config is config
        assert server.max_sessions == 2
        assert server.accept_queue == 1
        assert server.compute_slots == 2

    def test_queue_depth_accepted_and_ignored(self):
        """``queue_depth`` is an inert field: any value is accepted and
        the server has no send queue for it to bound."""
        media = _media_server(_clip())
        for depth in (0, 1, 32):
            server = AnnotationStreamServer(
                media, config=ServeConfig(queue_depth=depth)
            )
            assert not hasattr(server, "queue_depth")


class TestLegacyServeShim:
    """The pre-``ServeConfig`` loose-kwarg spelling finished its
    deprecation cycle: config objects are the only way in."""

    def test_unknown_kwarg_raises_type_error(self):
        media = _media_server(_clip())
        for kwargs in ({"bogus_knob": 1}, {"batch_records": 4}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                AnnotationStreamServer(media, **kwargs)
        service = StreamingService(params=FAST_PARAMS)
        with pytest.raises(TypeError, match="unexpected keyword"):
            service.serve(max_sessions=3)

    def test_config_path_does_not_warn(self, recwarn):
        media = _media_server(_clip())
        AnnotationStreamServer(media, config=ServeConfig(batch_records=4))
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_facade_serve_accepts_config(self):
        service = StreamingService(params=FAST_PARAMS)
        service.add_clip(_clip())
        server = service.serve(config=ServeConfig(max_sessions=3))
        assert server.max_sessions == 3


class TestFetchOptions:
    @pytest.mark.parametrize("kwargs", [
        {"connect_timeout_s": 0.0},
        {"read_timeout_s": 0.0},
        {"max_retries": -1},
        {"backoff_base_s": -0.1},
        {"backoff_max_s": -0.1},
        {"jitter_s": -0.1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FetchOptions(**kwargs)

    def test_client_carries_options(self, device):
        rng = random.Random(7)
        options = FetchOptions(
            connect_timeout_s=1.0, read_timeout_s=2.0, max_retries=2,
            backoff_base_s=0.01, backoff_max_s=0.5, jitter_s=0.0,
            rng=rng, resume=False,
        )
        client = options.client(device)
        assert client.connect_timeout_s == 1.0
        assert client.read_timeout_s == 2.0
        assert client.max_retries == 2
        assert client.resume is False

    def test_replace(self):
        options = FetchOptions(max_retries=1)
        assert options.replace(max_retries=3).max_retries == 3
        with pytest.raises(ValueError):
            options.replace(max_retries=-1)

    def test_fetch_family_round_trip(self, device):
        """One server round trip through the facade and the options."""
        clip = _clip(name="fetchfam")
        media = _media_server(clip)
        reference = _reference(media, clip.name)
        service = StreamingService(params=FAST_PARAMS)
        service.add_clip(clip)
        options = FetchOptions(max_retries=1, jitter_s=0.0,
                               rng=random.Random(0))

        async def run():
            async with AnnotationStreamServer(media) as server:
                host, port = server.address
                via_options = await service.fetch(
                    host, port, clip.name, QUALITY, device, options=options
                )
                via_defaults = await service.fetch(
                    host, port, clip.name, QUALITY, device
                )
                return via_options, via_defaults

        via_options, via_defaults = asyncio.run(run())
        assert len(via_options.packets) == len(reference)
        assert len(via_defaults.packets) == len(reference)

    def test_unknown_fetch_kwarg_raises_type_error(self, device):
        with pytest.raises(TypeError, match="unexpected keyword"):
            fetch_stream_sync("127.0.0.1", 1, "clip", QUALITY, device,
                              bogus_knob=1)


class TestPortableTokens:
    def test_round_trip(self):
        token = encode_portable_token("someclip", 0.15, "ipaq5555")
        info = decode_portable_token(token)
        assert info is not None
        assert info.clip_name == "someclip"
        assert info.quality == 0.15
        assert info.device_name == "ipaq5555"
        request = info.to_request()
        assert request.clip_name == "someclip"

    def test_tokens_are_a_pure_function_of_the_stream(self, device):
        """Two independently built servers issue identical tokens for the
        same request and the same switch plan."""
        clip = _clip(name="pureclip")
        plan = ((6, 0.1, None), (12, 0.1, "office"))
        hello = decode_control(encode_hello(
            SessionRequest(clip.name, QUALITY, ClientCapabilities(device.name))
        ))
        planned = encode_portable_token(clip.name, QUALITY, device.name,
                                        switches=plan)
        resume = decode_control(encode_resume(planned, 3))
        servers = [
            AnnotationStreamServer(_media_server(_clip(name="pureclip")))
            for _ in range(2)
        ]
        fresh = [server._open_session(hello)[1] for server in servers]
        resumed = [server._open_session(resume)[1] for server in servers]
        assert fresh[0] == fresh[1]
        assert fresh[0] == encode_portable_token(clip.name, QUALITY, device.name)
        assert resumed == [planned, planned]
        assert decode_portable_token(planned).switches == plan

    @pytest.mark.parametrize("token", [
        "deadbeef" * 4,                      # opaque random token
        "p2.e30.abcd",                       # future version
        "p1.!!!not-base64!!!.abcd",          # bad encoding
        "p1.e30.abcd",                       # the earlier suffixed form
        "p1.e30",                            # valid b64, missing keys
        "p1.onlytwo",                        # not base64 JSON
        "",
    ])
    def test_undecodable_tokens_return_none(self, token):
        assert decode_portable_token(token) is None

    def test_server_issues_portable_tokens_when_configured(self, device):
        """Every server issues the same portable token; the
        ``portable_tokens`` field is accepted and has no effect."""
        clip = _clip(name="portclip")
        media = _media_server(clip)

        async def run(config):
            async with AnnotationStreamServer(media, config=config) as server:
                conn = await open_records(*server.address)
                request = SessionRequest(
                    clip.name, QUALITY, ClientCapabilities(device.name)
                )
                conn.write(encode_packet_bytes(encode_hello(request)))
                await conn.drain()
                first = await conn.read_packet(5.0)
                conn.abort()
                return decode_control(first)

        tokens = [
            asyncio.run(run(config)).token
            for config in (ServeConfig(portable_tokens=True),
                           ServeConfig(portable_tokens=False), ServeConfig())
        ]
        assert decode_portable_token(tokens[0]) is not None
        assert tokens == [tokens[0]] * 3

    def test_foreign_server_adopts_token_byte_identically(self, device):
        """The failover primitive: a replica that never saw the session
        continues it from the portable token alone, byte-identically."""
        clip = _clip(name="adoptclip", frames=30)
        media_a = _media_server(clip)
        media_b = _media_server(_clip(name="adoptclip", frames=30))
        reference = _reference(media_a, clip.name)
        config = ServeConfig()
        received = 7

        async def drain_stream(conn):
            packets = []
            while True:
                packet = await conn.read_packet(10.0)
                if packet is None:
                    break
                message = None
                if packet.ptype is PacketType.CONTROL:
                    message = decode_control(packet)
                    if message.kind == "end":
                        break
                    continue
                packets.append(packet)
            return packets

        async def run():
            async with AnnotationStreamServer(media_a, config=config) as a:
                conn = await open_records(*a.address)
                request = SessionRequest(
                    clip.name, QUALITY, ClientCapabilities(device.name)
                )
                conn.write(encode_packet_bytes(encode_hello(request)))
                await conn.drain()
                session_msg = decode_control(await conn.read_packet(5.0))
                token = session_msg.token
                head = []
                while len(head) < received:
                    packet = await conn.read_packet(10.0)
                    if packet.ptype is not PacketType.CONTROL:
                        head.append(packet)
                conn.abort()  # "shard death"
            # Server A is gone; resume against a fresh process-equivalent.
            async with AnnotationStreamServer(media_b, config=config) as b:
                conn = await open_records(*b.address)
                conn.write(encode_packet_bytes(encode_resume(token, received)))
                await conn.drain()
                resumed = decode_control(await conn.read_packet(5.0))
                assert resumed.kind == "session"
                assert resumed.resumed_at == received
                tail = await drain_stream(conn)
                await conn.close()
                return head, tail

        head, tail = asyncio.run(run())
        got = head + tail
        assert len(got) == len(reference)
        for mine, ref in zip(got, reference):
            assert mine.ptype is ref.ptype
            assert mine.seq == ref.seq
            if ref.ptype is PacketType.ANNOTATION:
                assert mine.payload == ref.payload
            elif ref.ptype is PacketType.FRAME:
                assert np.array_equal(mine.frame.pixels, ref.frame.pixels)
        resumed = registry().get("repro_net_resumed_sessions_total")
        assert resumed is not None and resumed.value == 1

    def test_restarted_server_resumes_byte_identically(self, device):
        """The issuing server is closed; a new server over the same
        catalog honors its token and continues the stream
        byte-identically, with no state carried between the two."""
        clip = _clip(name="restartclip", frames=30)
        media = _media_server(clip)
        reference = [encode_packet_bytes(p) for p in _reference(media, clip.name)]
        received = 9

        async def records(conn):
            got = []
            while True:
                packet = await conn.read_packet(10.0)
                if packet.ptype is not PacketType.CONTROL:
                    got.append(encode_packet_bytes(packet))
                elif decode_control(packet).kind == "end":
                    return got

        async def run():
            request = SessionRequest(
                clip.name, QUALITY, ClientCapabilities(device.name)
            )
            async with AnnotationStreamServer(media) as first:
                conn = await open_records(*first.address)
                conn.write(encode_packet_bytes(encode_hello(request)))
                await conn.drain()
                token = decode_control(await conn.read_packet(5.0)).token
                head = (await records(conn))[:received]
                await conn.close()
            async with AnnotationStreamServer(media) as second:
                conn = await open_records(*second.address)
                conn.write(encode_packet_bytes(encode_resume(token, received)))
                await conn.drain()
                resumed = decode_control(await conn.read_packet(5.0))
                tail = await records(conn)
                await conn.close()
            return token, resumed, head, tail

        token, resumed, head, tail = asyncio.run(run())
        assert resumed.kind == "session"
        assert resumed.resumed_at == received
        assert resumed.token == token
        assert head + tail == reference

    @pytest.mark.parametrize("token", [
        encode_portable_token("legacyclip", QUALITY, "ipaq5555") + ".0123abcd",
        "feedface",
        "p1.",
    ])
    def test_legacy_and_undecodable_tokens_answered_with_error(self, token):
        """The earlier ``p1.<body>.<suffix>`` form and any other token
        that does not decode get ``error``; a client then refetches."""
        media = _media_server(_clip(name="legacyclip"))

        async def run():
            async with AnnotationStreamServer(media) as server:
                conn = await open_records(*server.address)
                conn.write(encode_packet_bytes(encode_resume(token, 0)))
                await conn.drain()
                message = decode_control(await conn.read_packet(5.0))
                await conn.close()
                return message

        message = asyncio.run(run())
        assert message.kind == "error"
        assert "resume token" in message.error
