"""Load generator, correctness gate and metric derivation.

One process drives the server-side tree (:class:`Host`) over at most
``nproc`` connections in a closed loop: each connection starts its next
session only when the previous stream is complete, the way a viewer
waits for a clip.  Timed sessions get only cheap checks (frame count,
record order, the client's own ``end``-total check); the byte-for-byte
comparison against the in-process reference runs after the timed phase.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import server_stats
from repro.display import get_device
from repro.net import (
    AsyncMobileClient,
    BatteryClient,
    FaultSpec,
    LossyTransport,
    encode_packet_bytes,
)
from repro.power import Battery
from repro.streaming import (
    AdaptationControl,
    MobileClient,
    PacketType,
    annotation_packet,
    frame_packet,
)
from repro.telemetry import SPAN_SECONDS, registry, snapshot
from repro.video import Frame

from .workloads import HostSpec, Session, build_media, schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPUS = os.cpu_count() or 1
#: Closed-loop viewers: one per core, at most two.
CONNECTIONS = max(1, min(2, CPUS))
#: Server set-ups per untraced run; setup_s reports their median.
SETUP_REPEATS = 3
#: Every Nth timed session keeps its whole stream for the byte-for-byte
#: gate (warm_qvga instead re-fetches each variant it served: its
#: 320x240 streams are too large to keep).
RETAIN_EVERY = {"cold_ingest": 16, "adapt_resume": 4}
FETCH = dict(max_retries=3, backoff_base_s=0.01, backoff_max_s=0.1,
             jitter_s=0.0)
STARTUP_TIMEOUT_S = 120.0
#: Lets relayed connections finish closing before their relays stop.
RELAY_GRACE_S = 0.2
#: The modeled pack BatteryClient drains on adapt_resume: at 8-12 W
#: every state-of-charge threshold is crossed inside the 10 s clip.
BATTERY = dict(capacity_wh=0.02, rated_power_w=1.5)


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong result)."""


class WrongStream(Exception):
    """A delivered stream failed the in-timed checks."""


# ----------------------------------------------------------------------
# The server-side process tree
# ----------------------------------------------------------------------
def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process (Linux procfs)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Host:
    """The server-side process (plus its shards on adapt_resume).

    A plain child interpreter, not a ``multiprocessing`` one: the
    ``spawn`` start method also launches a resource-tracker process
    that outlives the benchmark.  Control messages travel over a
    socket pair wrapped in a :class:`~multiprocessing.connection.Connection`.
    """

    def __init__(self, spec: HostSpec):
        ours, theirs = socket.socketpair()
        path = [os.path.join(ROOT, "src"), ROOT]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from perfbench.workloads import host_process; "
                 "host_process(sys.argv[1:])",
                 str(theirs.fileno()), spec.workload, str(spec.seed),
                 str(spec.seconds), str(int(spec.traced))],
                pass_fds=[theirs.fileno()], cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._conn = Connection(ours.detach())
        self.port: Optional[int] = None
        self.shard_ports: List[int] = []
        self.pids: List[int] = [self.process.pid]

    def wait_ready(self) -> None:
        if not self._conn.poll(STARTUP_TIMEOUT_S):
            raise BenchError("server side did not come up")
        try:
            message = self._conn.recv()
        except EOFError:
            raise BenchError("server side exited before it was ready") from None
        if message[0] != "ready":
            raise BenchError(f"server side failed to start: {message[1]}")
        _, self.port, shards = message
        self.shard_ports = [port for port, _ in shards]
        self.pids += [pid for _, pid in shards]

    @property
    def stats_ports(self) -> List[int]:
        """Every registry on the server side: router/server, then shards."""
        return [self.port] + self.shard_ports

    def cpu_s(self) -> List[float]:
        """CPU seconds per process, in ``pids`` order."""
        return [_proc_cpu_s(pid) for pid in self.pids]

    def stop(self) -> None:
        """Ask the server side to shut down; kill it if it does not."""
        try:
            self._conn.send("stop")
        except OSError:
            pass
        try:
            self.process.wait(30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._conn.close()


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one fetch delivered, as the load generator saw it."""

    session: Session
    ok: bool = False
    error: str = ""
    wall_s: float = math.inf
    ttff_s: float = math.inf
    max_gap_s: float = math.inf
    frames: int = 0
    records: int = 0
    attempts: int = 0
    resumes: int = 0
    #: applied switches as (frame, quality, ambient), in order
    applied: List[Tuple[int, float, Optional[str]]] = field(default_factory=list)
    #: annotation records as (frames delivered before it, payload)
    heads: List[Tuple[int, bytes]] = field(default_factory=list)
    #: one seeded frame as (index, pixel bytes), checked after the phase
    sample: Optional[Tuple[int, bytes]] = None
    packets: Optional[list] = None
    description: object = None


def _client(s: Session):
    device = get_device(s.device)
    rng = random.Random(0)
    if s.battery_w is None:
        return AsyncMobileClient(device, rng=rng, **FETCH)
    return BatteryClient(
        device,
        battery_trace=f"0:{s.battery_w:.3f}",
        battery=Battery(**BATTERY),
        ambient_trace=f"0:dark-room,{s.office_at_s:.3f}:office",
        rng=rng,
        **FETCH,
    )


def _check_stream(result, s: Session) -> None:
    """The in-timed checks: frame count and record order."""
    session = result.session
    if result.frame_count != session.frame_count:
        raise WrongStream(
            f"{s.clip}: {result.frame_count} frames of {session.frame_count}")
    index = 0
    for packet in result.packets:
        if packet.ptype is PacketType.FRAME:
            if packet.frame_index != index:
                raise WrongStream(f"{s.clip}: frame {packet.frame_index} "
                                  f"arrived in place of {index}")
            index += 1
        elif packet.ptype is not PacketType.ANNOTATION:
            raise WrongStream(f"{s.clip}: control record among data")


async def fetch(host: str, port: int, s: Session, retain: bool,
                relays: list, sample_at: Optional[int] = None) -> Outcome:
    """Run one scheduled session; never raises for a failed fetch.

    A session with a kill point goes through its own
    :class:`LossyTransport`, appended to ``relays``: the caller closes
    it once the relayed connections have wound down.
    """
    out = Outcome(session=s)
    started = time.perf_counter()
    try:
        client = _client(s)
        if s.kill_after is not None:
            relay = LossyTransport(host, port, FaultSpec(
                kill_after_records=s.kill_after, max_faults=1))
            relays.append(relay)
            host, port = await relay.start()
        result = await client.fetch(host, port, s.clip, s.quality)
        wall = time.perf_counter() - started
        _check_stream(result, s)
    except Exception as exc:  # noqa: BLE001 - a failed session is counted
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.ok = True
    out.wall_s = wall
    out.description = result.session
    out.ttff_s = result.latency.ttff_s
    out.max_gap_s = result.latency.max_gap_s
    out.frames = result.frame_count
    out.records = len(result.packets)
    out.attempts = result.attempts
    out.resumes = result.resumes
    out.applied = [(r.frame, r.quality, r.ambient)
                   for r in result.requalities if r.applied]
    frames = 0
    for packet in result.packets:
        if packet.ptype is PacketType.ANNOTATION:
            out.heads.append((frames, packet.payload))
        else:
            if frames == sample_at:
                out.sample = (frames, packet.frame.pixels.tobytes())
            frames += 1
    if retain:
        out.packets = result.packets
    return out


@dataclass
class Phase:
    """One closed-loop phase: its sessions and what it cost."""

    name: str
    outcomes: List[Outcome]
    wall_s: float
    server_cpu_s: List[float]
    client_cpu_s: float
    exhausted: bool = False
    retries: float = 0.0
    sheds: float = 0.0
    server_stats: Optional[dict] = None
    client_stats: Optional[dict] = None

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def frames(self) -> int:
        return sum(o.frames for o in self.outcomes)


def _client_counters() -> Tuple[float, float]:
    """This process's client retry and busy-shed totals so far."""
    reg = registry()
    return tuple(
        getattr(reg.get(name), "value", 0.0)
        for name in ("repro_net_client_retries_total",
                     "repro_net_client_busy_total")
    )


async def _scrape(host: Host) -> List[dict]:
    return [(await server_stats("127.0.0.1", port))["metrics"]
            for port in host.stats_ports]


async def run_phase(host: Host, spec: HostSpec, name: str,
                    seconds: Optional[float], traced: bool = False) -> Phase:
    """Drive ``CONNECTIONS`` closed loops over the phase's schedule.

    ``seconds=None`` runs the (finite) schedule to its end; otherwise no
    session starts after the deadline and the phase ends when the last
    one completes.  ``traced`` brackets the phase with ``server_stats``
    scrapes of every server-side registry and of this process's own.
    """
    items = schedule(spec, name)
    rng = random.Random(f"{spec.workload}:{spec.seed}:{name}:checks")
    every = RETAIN_EVERY.get(spec.workload)
    offset = rng.randrange(every) if every else 0
    outcomes: List[Outcome] = []
    relays: list = []
    exhausted = False
    counter = 0

    async def viewer(deadline):
        nonlocal exhausted, counter
        while deadline is None or time.perf_counter() < deadline:
            try:
                s = next(items)
            except StopIteration:
                exhausted = seconds is not None
                return
            k = counter
            counter += 1
            sample_at = (random.Random(f"{spec.seed}:{k}").randrange(64)
                         if spec.workload == "warm_qvga" else None)
            outcomes.append(await fetch(
                "127.0.0.1", host.port, s,
                retain=every is not None and k % every == offset,
                relays=relays, sample_at=sample_at,
            ))

    before = await _scrape(host) if traced else None
    client_before = snapshot() if traced else None
    retries0, sheds0 = _client_counters()
    cpu0 = host.cpu_s()
    client0 = time.process_time()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds
    try:
        await asyncio.gather(*(viewer(deadline) for _ in range(CONNECTIONS)))
        wall = time.perf_counter() - started
        client_cpu = time.process_time() - client0
        cpu = [b - a for a, b in zip(cpu0, host.cpu_s())]
        await asyncio.sleep(RELAY_GRACE_S if relays else 0.0)
    finally:
        for relay in relays:
            await relay.close()
    retries1, sheds1 = _client_counters()
    phase = Phase(name, outcomes, wall, cpu, client_cpu, exhausted,
                  retries1 - retries0, sheds1 - sheds0)
    if traced:
        after = await _scrape(host)
        phase.server_stats = _diff_many(before, after)
        phase.client_stats = _diff(client_before, snapshot())
    return phase


def start_host(spec: HostSpec) -> Tuple[Host, float, Phase]:
    """Launch the server side and warm it; returns the set-up seconds.

    Set-up spans process launch to ready plus the untimed warm-up
    sessions, so work moved from serving into set-up shows.
    """
    started = time.perf_counter()
    host = Host(spec)
    try:
        host.wait_ready()
        warm = asyncio.run(run_phase(host, spec, "warmup", None))
    except BaseException:
        host.stop()
        raise
    return host, time.perf_counter() - started, warm


# ----------------------------------------------------------------------
# Telemetry snapshots
# ----------------------------------------------------------------------
def _key(metric: dict) -> Tuple:
    return (metric["name"], tuple(sorted(metric["labels"].items())))


def _diff(before: dict, after: dict) -> Dict[Tuple, Tuple[float, float]]:
    """``{(name, labels): (value-or-sum delta, count delta)}``."""
    old = {_key(m): m for m in before["metrics"]}
    out = {}
    for m in after["metrics"]:
        prev = old.get(_key(m))
        if "value" in m:
            base = prev["value"] if prev else 0.0
            out[_key(m)] = (m["value"] - base, 0)
        else:
            out[_key(m)] = (m["sum"] - (prev["sum"] if prev else 0.0),
                            m["count"] - (prev["count"] if prev else 0))
    return out


def _diff_many(before: List[dict], after: List[dict]):
    """Sum the per-process deltas of several registries."""
    total: Dict[Tuple, Tuple[float, float]] = {}
    for b, a in zip(before, after):
        for key, (value, count) in _diff(b, a).items():
            v, c = total.get(key, (0.0, 0))
            total[key] = (v + value, c + count)
    return total


class Stats:
    """Read counters and span totals out of a snapshot delta."""

    def __init__(self, delta):
        self.delta = delta

    def value(self, name: str) -> float:
        """Change of a counter or gauge, summed over its label sets."""
        return sum(value for (metric, _), (value, _) in self.delta.items()
                   if metric == name)

    def span(self, name: str) -> Tuple[float, int]:
        """``(total seconds, count)`` of one span name."""
        return self.delta.get((SPAN_SECONDS, (("span", name),)), (0.0, 0))

    def count(self, name: str) -> int:
        """Observation count of an unlabeled histogram."""
        return self.delta.get((name, ()), (0.0, 0))[1]


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _digest(packets) -> Tuple[str, List[str], List[bytes]]:
    """Wire-byte digest of a data stream, plus per-frame digests and heads."""
    whole = hashlib.blake2b(digest_size=16)
    frames, heads = [], []
    for packet in packets:
        if packet.ptype is PacketType.CONTROL:
            continue
        body = encode_packet_bytes(packet)
        whole.update(body)
        if packet.ptype is PacketType.FRAME:
            frames.append(hashlib.blake2b(
                packet.frame.pixels.tobytes(), digest_size=16).hexdigest())
        else:
            heads.append(packet.payload)
    return whole.hexdigest(), frames, heads


def reference(media, description, applied=()) -> Tuple[str, List[str], List[bytes]]:
    """The in-process reference stream's digests for one delivered session.

    ``MediaServer.stream`` for a static session; for an adapted one,
    ``stream_batches`` replaying the switches the session applied.
    Each packet is digested before the next is produced, so reused
    chunk buffers are read before they are overwritten.
    """
    device = get_device(description.device_name)
    request = MobileClient(device).request(description.clip_name,
                                           description.quality)
    session = media.open_session(request)
    if not applied:
        return _digest(media.stream(session))
    groups = media.stream_batches(session,
                                  adaptation=AdaptationControl(plan=applied))
    return _digest(packet for group in groups for packet in group)


def _replayed_plan(media, description, heads, bound: dict):
    """The switch plan a delivered adapted stream followed, or ``None``.

    Each re-bind annotation record is matched against the bound track of
    every (quality, ambient) the clients can ask for.  The session's own
    acks are not enough: a switch applied on a connection the relay
    killed is replayed silently on resume, ack never delivered.
    """
    plan = []
    for frame, payload in heads[1:]:
        for quality in media.qualities:
            for ambient in (None, "office"):
                key = (description.clip_name, description.device_name,
                       quality, ambient)
                if key not in bound:
                    bound[key] = media.build_stream(
                        description, quality=quality, ambient=ambient,
                    ).track.to_bytes()
                if bound[key] == payload:
                    plan.append((frame, quality, ambient))
                    break
            else:
                continue
            break
        else:
            return None
    return tuple(plan)


def verify(spec: HostSpec, host: Host, outcomes: List[Outcome]) -> List[str]:
    """Byte-for-byte gate after the timed phase; returns the mismatches.

    Retained sessions compare whole streams; an adapted one is compared
    with a replay of the switch plan it followed, which must include
    every switch the session saw acknowledged.  On warm_qvga each served
    (title, quality, device) is fetched once more and compared whole,
    and every timed session's annotation records and sampled frame are
    compared with that variant's reference.
    """
    ok = [o for o in outcomes if o.ok]
    names = sorted({o.session.clip for o in ok
                    if o.packets is not None or spec.workload == "warm_qvga"})
    if not names:
        return []
    media = build_media(HostSpec(spec.workload, spec.seed, spec.seconds), names)
    errors = []
    bound = {}
    for o in ok:
        if o.packets is None:
            continue
        label = f"{o.session.clip} q={o.session.quality} {o.session.device}"
        plan = _replayed_plan(media, o.description, o.heads, bound)
        if plan is None or not set(o.applied) <= set(plan):
            errors.append(f"{label}: re-bind records match no requested binding")
            continue
        want, _, _ = reference(media, o.description, plan)
        if _digest(o.packets)[0] != want:
            errors.append(f"{label}: stream differs from reference")
    if spec.workload != "warm_qvga":
        return errors
    variants = {}
    for o in ok:
        variants.setdefault((o.session.clip, o.session.quality,
                             o.session.device), o.description)
    for combo, description in sorted(variants.items()):
        check = asyncio.run(fetch("127.0.0.1", host.port, Session(*combo),
                                  retain=True, relays=[]))
        if not check.ok:
            errors.append(f"{combo}: verification fetch failed: {check.error}")
            continue
        want, frames, heads = reference(media, description)
        if _digest(check.packets)[0] != want:
            errors.append(f"{combo}: stream differs from reference")
        for o in ok:
            if (o.session.clip, o.session.quality, o.session.device) != combo:
                continue
            if [h for _, h in o.heads] != heads:
                errors.append(f"{combo}: annotation records differ")
            index, pixels = o.sample
            if hashlib.blake2b(pixels, digest_size=16).hexdigest() != frames[index]:
                errors.append(f"{combo}: frame {index} differs")
    return errors


# ----------------------------------------------------------------------
# Quality guard: modeled backlight energy
# ----------------------------------------------------------------------
_STUB = Frame(np.zeros((1, 1, 3), dtype=np.uint8))


def backlight_saved(o: Outcome, memo: dict) -> float:
    """Backlight energy saved versus full backlight, for one session.

    The delivered annotation records are played through the client's
    playback model (``repro.player`` backlight control) with stub frame
    records in the delivered positions; the applied levels are priced
    by the device's backlight power model.
    """
    key = (o.session.device, o.frames, tuple(o.heads))
    if key not in memo:
        device = get_device(o.session.device)
        packets = []
        heads = list(o.heads)
        seq = 0
        for i in range(o.frames + 1):
            while heads and heads[0][0] == i:
                packets.append(annotation_packet(seq, heads.pop(0)[1]))
                seq += 1
            if i < o.frames:
                packets.append(frame_packet(seq, _STUB, frame_index=i))
                seq += 1
        played = MobileClient(device).play_stream(o.description, packets)
        power = device.backlight.power(played.applied_levels)
        memo[key] = 1.0 - float(np.mean(power)) / float(device.backlight.power(255))
    return memo[key]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def tail(values) -> Tuple[str, float, int]:
    """The highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            index = min(len(values) - 1, int(math.ceil(pct / 100.0 * len(values))) - 1)
            return f"p{pct:g}", values[index], len(values)
    return "max", values[-1] if values else math.nan, len(values)


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, float]:
    """The user-visible metrics of one timed phase.

    A failed session counts as missing every latency metric (its
    latency is infinite in the medians).
    """
    frames = phase.frames or 1
    memo = {}
    return {
        "ttff_p50_ms": 1e3 * _median(o.ttff_s for o in phase.outcomes),
        "session_p50_ms": 1e3 * _median(o.wall_s for o in phase.outcomes),
        "max_gap_p50_ms": 1e3 * _median(o.max_gap_s for o in phase.outcomes),
        "frames_per_s": phase.frames / phase.wall_s,
        "server_cpu_ms_per_frame": 1e3 * sum(phase.server_cpu_s) / frames,
        "client_cpu_ms_per_frame": 1e3 * phase.client_cpu_s / frames,
        "backlight_saved_frac": float(np.mean(
            [backlight_saved(o, memo) for o in phase.ok]
        )) if phase.ok else math.nan,
        "setup_s": _median(setups),
    }
