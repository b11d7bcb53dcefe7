"""The progress window: a session writes at most ``PROGRESS_WINDOW`` data
records past the count its client last reported.

A client opts in with ``progress: true`` in its opening record and then
reports what it holds.  Covered here:

* a stalled client — it reads 4 records, then stops for 0.5 s — has
  at most the window written to it, at 64x48 (where socket buffers
  alone held the whole clip) and at 320x240, and still gets the whole
  stream byte-identically once it reads on;
* a client without the flag is served as before, with socket
  backpressure only;
* the wait ends when the client's reports stop (its half-close) and
  when the server closes;
* the window's own rules: a count never moves backwards nor past what
  was written;
* ``AsyncMobileClient`` opts in, and its fetch reports progress and
  records the ``net.window.wait`` span.
"""

import asyncio
import random

import pytest

from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    ServeConfig,
    decode_control,
    encode_packet_bytes,
)
from repro.net.codec import open_records
from repro.net.messages import (
    PROGRESS_EVERY,
    PROGRESS_WINDOW,
    encode_hello,
    encode_progress,
)
from repro.net.server import _ProgressWindow
from repro.streaming import (
    AdaptationControl,
    ClientCapabilities,
    MediaServer,
    PacketType,
    SessionRequest,
)
from repro.streaming.server import WIRE_CHUNK_FRAMES
from repro.telemetry import registry, span_events
from repro.video import LazyClip, SceneSpec, ScriptedClipFactory

DEVICE = "ipaq5555"
CLIP = "windowclip"
QUALITY = 0.1
#: One record per write, as the adaptation workloads serve.
PACED = ServeConfig(batch_records=1, batch_bytes=1)
#: The largest step a session writes at once: a wire chunk of frames
#: plus a re-bind annotation.
STEP = WIRE_CHUNK_FRAMES + 1
WAIT_S = 30.0


def _media(resolution, frames):
    scenes = [
        SceneSpec("dark" if i % 2 == 0 else "bright", 12,
                  {"background": 0.2 if i % 2 == 0 else 0.8})
        for i in range(frames // 12)
    ]
    factory = ScriptedClipFactory(scenes, resolution=resolution, seed=5)
    media = MediaServer()
    media.add_clip(LazyClip(factory, frame_count=factory.frame_count,
                            fps=24.0, name=CLIP, resolution=resolution))
    return media


def _request():
    return SessionRequest(CLIP, QUALITY, ClientCapabilities(DEVICE))


def _reference(media):
    """Wire bytes of every data record of the in-process stream."""
    session = media.open_session(_request())
    return [
        encode_packet_bytes(packet)
        for batch in media.stream_batches(session,
                                          adaptation=AdaptationControl())
        for packet in batch
        if packet.ptype is not PacketType.CONTROL
    ]


def _data_written():
    """Data records the server wrote: all records but ``session``."""
    return registry().get("repro_net_records_sent_total").value - 1


async def _stalled_fetch(media, progress, config=PACED, stall_s=0.5):
    """Open a session, read 4 records, stall; returns the data records
    written by the end of the stall and the records of the whole
    stream, read on afterwards (reporting like AsyncMobileClient when
    ``progress``)."""
    async with AnnotationStreamServer(media, config=config) as server:
        conn = await open_records(*server.address)
        try:
            conn.write(encode_packet_bytes(
                encode_hello(_request(), progress=progress)
            ))
            records = [await conn.read_packet(WAIT_S) for _ in range(4)]
            await asyncio.sleep(stall_s)
            written = _data_written()
            held = sum(p.ptype is not PacketType.CONTROL for p in records)
            while records[-1].ptype is not PacketType.CONTROL or (
                    decode_control(records[-1]).kind != "end"):
                packet = await conn.read_packet(WAIT_S)
                assert packet is not None, "server closed before end"
                records.append(packet)
                held += packet.ptype is not PacketType.CONTROL
                if progress and packet.ptype is not PacketType.CONTROL \
                        and held % PROGRESS_EVERY == 0:
                    conn.write(encode_packet_bytes(encode_progress(held)))
        finally:
            await conn.close()
    return written, records


def _check_stream(media, records):
    assert decode_control(records[0]).kind == "session"
    end = decode_control(records[-1])
    assert end.kind == "end"
    data = [encode_packet_bytes(p) for p in records[1:-1]
            if p.ptype is not PacketType.CONTROL]
    assert data == _reference(media)
    assert end.end.packet_count == len(data)


@pytest.mark.parametrize("resolution,frames", [((64, 48), 240),
                                               ((320, 240), 96)])
def test_stalled_client_has_at_most_the_window_written(resolution, frames):
    """Nothing was reported (3 data records held), so at most the window
    is written, whatever the socket buffers would hold."""
    media = _media(resolution, frames)
    written, records = asyncio.run(_stalled_fetch(media, progress=True))
    assert frames + 1 > PROGRESS_WINDOW + STEP
    assert written <= PROGRESS_WINDOW
    _check_stream(media, records)


def test_client_without_the_flag_still_gets_the_whole_stream():
    media = _media((64, 48), 240)
    _, records = asyncio.run(_stalled_fetch(media, progress=False))
    _check_stream(media, records)


def test_half_close_ends_the_wait():
    """A client that opted in but stops reporting (its EOF) is served to
    the end under socket backpressure."""
    media = _media((64, 48), 120)

    async def run():
        async with AnnotationStreamServer(media, config=PACED) as server:
            conn = await open_records(*server.address)
            conn.write(encode_packet_bytes(
                encode_hello(_request(), progress=True)
            ))
            conn.write_eof()
            records = []
            while (packet := await conn.read_packet(WAIT_S)) is not None:
                records.append(packet)
            await conn.close()
            return records

    _check_stream(media, asyncio.run(run()))


def test_close_cancels_a_waiting_session():
    media = _media((64, 48), 120)

    async def run():
        server = AnnotationStreamServer(media, config=PACED)
        await server.start()
        conn = await open_records(*server.address)
        conn.write(encode_packet_bytes(encode_hello(_request(), progress=True)))
        await conn.read_packet(WAIT_S)  # session
        loop = asyncio.get_running_loop()
        deadline = loop.time() + WAIT_S
        while _data_written() < PROGRESS_WINDOW - STEP:
            assert loop.time() < deadline
            await asyncio.sleep(0.01)
        await asyncio.wait_for(server.close(), 5.0)
        assert server.active_sessions == 0 and not server._tasks
        conn.abort()

    asyncio.run(run())


class TestWindowRules:
    def test_window_holds_a_step_and_the_lag_of_a_report(self):
        """Else a client that read everything would wait for a report
        it never sends."""
        assert PROGRESS_WINDOW >= STEP + PROGRESS_EVERY - 1

    def test_count_never_moves_backwards_nor_past_written(self):
        window = _ProgressWindow(received=5)
        window.written = 40
        window.report(30)
        assert window.received == 30
        window.report(12)
        assert window.received == 30
        window.report(10 ** 9)
        assert window.received == 40

    def test_wait_returns_within_the_window_and_after_close(self):
        async def run():
            window = _ProgressWindow(received=0)
            await asyncio.wait_for(window.wait(PROGRESS_WINDOW), 1.0)
            waiting = asyncio.ensure_future(window.wait(PROGRESS_WINDOW + 8))
            await asyncio.sleep(0.01)
            assert not waiting.done()
            window.written = 8
            window.report(8)
            await asyncio.wait_for(waiting, 1.0)
            waiting = asyncio.ensure_future(window.wait(10 ** 6))
            await asyncio.sleep(0.01)
            assert not waiting.done()
            window.close()
            await asyncio.wait_for(waiting, 1.0)

        asyncio.run(run())


def test_async_client_reports_progress_and_the_wait_is_traced(device):
    media = _media((64, 48), 120)

    async def run():
        async with AnnotationStreamServer(media, config=PACED) as server:
            client = AsyncMobileClient(device, max_retries=0,
                                       rng=random.Random(0))
            return await client.fetch(*server.address, CLIP, QUALITY)

    result = asyncio.run(run())
    data = len(result.packets)
    assert data == 121
    reports = registry().get("repro_net_progress_reports_total").value
    assert 1 <= reports <= data // PROGRESS_EVERY
    names = {e["name"] for e in span_events(trace_id=result.trace_id)}
    assert "net.window.wait" in names
