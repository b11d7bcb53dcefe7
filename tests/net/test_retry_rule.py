"""The client's retry rule: reconnect at once after a productive drop.

An attempt that delivered at least one data record and holds a resume
token is followed by an immediate reconnect; backoff counts the
consecutive attempts that cannot resume (they delivered nothing, or the
retry would refetch from scratch), and a ``busy`` still waits at least
its retry-after hint.  Every test records the client's sleeps
instead of timing them.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.core import ProfileCache, SchemeParameters
from repro.net import (
    AnnotationStreamServer,
    AsyncMobileClient,
    FaultSpec,
    LossyTransport,
    StreamFetchError,
)
from repro.net.client import ServerBusyError
from repro.streaming import MediaServer, PacketType
from repro.video import ArrayClip

BASE_S = 0.5


@pytest.fixture
def sleeps(monkeypatch):
    """Every ``asyncio.sleep`` delay, in call order (the sleeps still run)."""
    recorded = []
    real_sleep = asyncio.sleep

    async def recording_sleep(delay, *args, **kwargs):
        recorded.append(delay)
        return await real_sleep(0, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", recording_sleep)
    return recorded


class _ScriptedClient(AsyncMobileClient):
    """A client whose attempts follow a script of ``(data records,
    error)`` outcomes; every attempt fails, so the fetch runs them all.
    An attempt that delivers data has negotiated a session, which
    carries ``token`` (kept only when the client resumes)."""

    def __init__(self, device, script, resume=True, token="p1.scripted"):
        super().__init__(device, max_retries=len(script) - 1,
                         backoff_base_s=BASE_S, backoff_max_s=60.0,
                         jitter_s=0.0, rng=random.Random(0), resume=resume)
        self.script = list(script)
        self.token = token
        self.attempts = 0

    async def _fetch_once(self, host, port, clip_name, quality, progress,
                          attempt=0):
        delivered, error = self.script[attempt]
        self.attempts += 1
        if delivered:
            progress.session = "negotiated"
            progress.token = self.token if self.resume else None
        progress.delivered += delivered
        raise error


def _run_script(device, script, **kwargs):
    client = _ScriptedClient(device, script, **kwargs)
    with pytest.raises(StreamFetchError):
        asyncio.run(client.fetch("127.0.0.1", 9, "clip", 0.1))
    assert client.attempts == len(script)
    return client


def _drop():
    return ConnectionResetError("relay killed the connection")


def _busy(retry_after_s):
    return ServerBusyError("server busy", retry_after_s=retry_after_s)


def test_drops_after_data_reconnect_without_sleeping(device, sleeps):
    _run_script(device, [(3, _drop()), (1, _drop()), (7, _drop())])
    assert sleeps == []


def test_drops_before_any_data_back_off(device, sleeps):
    client = _run_script(device, [(0, _drop())] * 4)
    assert sleeps == [client.backoff_s(0), client.backoff_s(1),
                      client.backoff_s(2)]
    assert sleeps == [BASE_S, 2 * BASE_S, 4 * BASE_S]


def test_backoff_restarts_after_a_productive_attempt(device, sleeps):
    _run_script(device, [
        (0, _drop()), (0, _drop()),  # backoff(0), backoff(1)
        (5, _drop()),                # productive: at once
        (0, _drop()), (0, _drop()),  # backoff(0) again, then backoff(1)
        (0, _drop()),
    ])
    assert sleeps == [BASE_S, 2 * BASE_S, BASE_S, 2 * BASE_S]


@pytest.mark.parametrize("kwargs", [{"resume": False}, {"token": None}],
                         ids=["resume-off", "no-token"])
def test_drops_after_data_that_cannot_resume_back_off(device, sleeps, kwargs):
    """Without a token to resume with, every retry refetches the whole
    stream, so a productive drop sleeps like an empty one."""
    _run_script(device, [(3, _drop()), (5, _drop()), (7, _drop())], **kwargs)
    assert sleeps == [BASE_S, 2 * BASE_S]


def test_busy_waits_at_least_its_retry_after(device, sleeps):
    _run_script(device, [
        (0, _busy(3.0)),   # hint above backoff(0)
        (0, _busy(0.1)),   # hint below backoff(1)
        (4, _drop()),      # productive: at once
        (0, _busy(2.0)),   # after a productive attempt: hint over backoff(0)
        (0, _drop()),
    ])
    assert sleeps == [3.0, 2 * BASE_S, 2.0]


def test_relay_kill_after_data_resumes_without_sleeping(device, sleeps):
    """Over the wire: a relay kill mid-stream is followed by the resume
    at once, even with a half-second backoff base."""
    pixels = np.random.default_rng(5).integers(
        0, 256, size=(40, 48, 36, 3), dtype=np.uint8
    )
    clip = ArrayClip(pixels, fps=24.0, name="retryclip")
    media = MediaServer(
        params=SchemeParameters(quality=0.05, min_scene_interval_frames=5),
        profile_cache=ProfileCache(max_entries=4),
    )
    media.add_clip(clip)

    async def run():
        async with AnnotationStreamServer(media) as server:
            spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
            async with LossyTransport(*server.address, spec) as lossy:
                client = AsyncMobileClient(
                    device, backoff_base_s=BASE_S, jitter_s=0.0,
                    max_retries=2, rng=random.Random(0),
                )
                return await client.fetch(*lossy.address, clip.name, 0.05)

    fetched = asyncio.run(run())
    assert fetched.attempts == 2
    assert fetched.resumes == 1
    assert sum(p.ptype is PacketType.FRAME for p in fetched.packets) == 40
    assert sleeps == []


def test_relay_kill_without_resume_sleeps_the_backoff(device, sleeps):
    """Over the wire: with ``resume=False`` the retry after a mid-stream
    kill refetches the stream from scratch, after ``backoff_s(0)``."""
    pixels = np.random.default_rng(5).integers(
        0, 256, size=(40, 48, 36, 3), dtype=np.uint8
    )
    clip = ArrayClip(pixels, fps=24.0, name="retryclip")
    media = MediaServer(
        params=SchemeParameters(quality=0.05, min_scene_interval_frames=5),
        profile_cache=ProfileCache(max_entries=4),
    )
    media.add_clip(clip)

    async def run():
        async with AnnotationStreamServer(media) as server:
            spec = FaultSpec(kill_after_records=5, max_faults=1, seed=3)
            async with LossyTransport(*server.address, spec) as lossy:
                client = AsyncMobileClient(
                    device, backoff_base_s=BASE_S, jitter_s=0.0,
                    max_retries=2, rng=random.Random(0), resume=False,
                )
                return await client.fetch(*lossy.address, clip.name, 0.05)

    fetched = asyncio.run(run())
    assert fetched.attempts == 2
    assert fetched.resumes == 0
    assert sum(p.ptype is PacketType.FRAME for p in fetched.packets) == 40
    assert sleeps == [BASE_S]
