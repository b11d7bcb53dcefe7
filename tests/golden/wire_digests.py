"""Frozen SHA-256 digests of complete wire streams.

Each case streams one session through :class:`~repro.streaming.server.MediaServer`
and the real wire codec the way the TCP server's producer does (head,
then frame batches, encoded through the server's record-CRC store; a
resume seeks with
:meth:`~repro.streaming.server.MediaServer.resume_point` and drops the
records the client already holds), and digests the encoded data records
(annotations, frames) plus the closing ``end`` record.  Every base stream
is encoded twice back to back, once filling the store and once served
from it; the case's digest is the two digests joined by ``!=`` when
they differ, so either pass moving fails the comparison.  The digests in
``wire_digests.json`` were recorded from the code, so they share no code
with what they check: any change to a digest is a change to the served
bytes or to the wire format.

The cases:

* every library title at 64×48, ``duration_scale=0.05``, × the five
  quality levels × the three devices × the policies ``clip-quality``,
  ``hebs`` and ``spatial`` (the *base* streams);
* per title and policy, at one quality/device: resumes at 10/50/90% of
  the data records, a two-switch plan (a quality step, then an ambient
  re-bind) plus its resumes at the same offsets, and a serve-time
  ambient trace;

each under both engines.

Check the committed file (what ``tests/golden/test_wire_digests.py``
does) or, after a deliberate change to the output, rewrite it::

    PYTHONPATH=src python -m tests.golden.wire_digests            # compare
    PYTHONPATH=src python -m tests.golden.wire_digests --accept   # rewrite
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import ENGINE_KINDS, ProfileCache, QUALITY_LEVELS
from repro.display.devices import DEVICE_REGISTRY
from repro.net.codec import encode_packet
from repro.net.messages import encode_end
from repro.streaming import ClientCapabilities, MediaServer, PacketType, SessionRequest
from repro.streaming.server import AdaptationControl, Switch
from repro.video import PAPER_CLIP_NAMES, ClipBase, make_clip

#: Where the frozen digests live.
DIGESTS_PATH = Path(__file__).with_name("wire_digests.json")

RESOLUTION = (64, 48)
DURATION_SCALE = 0.05
POLICIES = ("clip-quality", "hebs", "spatial")
DEVICES = tuple(sorted(DEVICE_REGISTRY))
#: Resume offsets, as fractions of a stream's data records.
RESUME_FRACTIONS = (0.1, 0.5, 0.9)
#: The quality/device the resume, plan and ambient cases run at.
VARIANT_QUALITY = QUALITY_LEVELS[2]
VARIANT_DEVICE = "ipaq5555"
#: The plan's quality step, and the serve-time ambient trace (dark room,
#: then office light from 0.3 s, inside every title at this scale).
PLAN_QUALITY = QUALITY_LEVELS[-1]
PLAN_AMBIENT = "office"
SERVE_AMBIENT = "0:dark-room,0.3:office"


def _library() -> List[ClipBase]:
    """The titles, rendered once: every server below shares the frames."""
    return [make_clip(name, resolution=RESOLUTION,
                      duration_scale=DURATION_SCALE).materialize()
            for name in PAPER_CLIP_NAMES]


def _server(library: Sequence[ClipBase], policy: str, engine: str,
            ambient: Optional[str] = None) -> MediaServer:
    # A private profile cache per server: the content-keyed shared cache
    # would let one engine serve another's profiling results.
    media = MediaServer(engine=engine, policy=policy, ambient=ambient,
                        profile_cache=ProfileCache())
    for clip in library:
        media.add_clip(clip)
    return media


def stream_records(
    media: MediaServer,
    clip: str,
    quality: float,
    device: str,
    plan: Sequence[Switch] = (),
    skip: int = 0,
) -> Iterator[bytes]:
    """The encoded data records a connection resuming at ``skip`` receives,
    then its ``end`` record."""
    session = media.open_session(
        SessionRequest(clip, quality, ClientCapabilities(device))
    )
    adaptation = AdaptationControl(plan=plan)
    packet_count = frame_count = 0
    start = None
    point = media.resume_point(session, skip, adaptation.switch_plan())
    if point is not None:
        adaptation.fast_forward(point.switches)
        packet_count, frame_count, start = point.records, point.frame, point.frame
    sent = 0
    for group in media.stream_batches(session, adaptation=adaptation, start=start):
        for packet in group:
            if packet_count >= skip:
                yield b"".join(
                    bytes(part) for part in encode_packet(packet, media.record_crcs)
                )
                sent += 1
            packet_count += 1
            if packet.ptype is PacketType.FRAME:
                frame_count += 1
    end = encode_end(packet_count, frame_count, seq=sent + 1)
    yield b"".join(bytes(part) for part in encode_packet(end))


def _digest(records: Iterator[bytes]) -> Tuple[str, int]:
    sha = hashlib.sha256()
    count = 0
    for record in records:
        sha.update(record)
        count += 1
    return sha.hexdigest(), count - 1  # data records, without the end


def _plan(media: MediaServer, clip: str) -> Tuple[Switch, ...]:
    """A quality step at the first scene start after a third of the clip,
    then an ambient re-bind at the first after two thirds."""
    session = media.open_session(
        SessionRequest(clip, VARIANT_QUALITY, ClientCapabilities(VARIANT_DEVICE))
    )
    annotated = media.build_stream(session)
    count = annotated.frame_count
    first = annotated.next_scene_start(count // 3)
    second = annotated.next_scene_start(max(first + 1, 2 * count // 3))
    return ((first, PLAN_QUALITY, None),
            (second, PLAN_QUALITY, PLAN_AMBIENT))


def compute_digests() -> Dict[str, str]:
    """Every case's digest, keyed by a readable case id."""
    library = _library()
    digests: Dict[str, str] = {}
    for engine in ENGINE_KINDS:
        for policy in POLICIES:
            media = _server(library, policy, engine)
            prefix = f"{engine}/{policy}"
            for clip in PAPER_CLIP_NAMES:
                for quality in QUALITY_LEVELS:
                    for device in DEVICES:
                        filled, hit = (
                            _digest(stream_records(media, clip, quality, device))[0]
                            for _ in range(2)
                        )
                        digests[f"{prefix}/{clip}/q{quality}/{device}"] = (
                            filled if filled == hit else f"{filled}!={hit}"
                        )
                variant = f"{prefix}/{clip}/q{VARIANT_QUALITY}/{VARIANT_DEVICE}"
                plan = _plan(media, clip)
                for label, switches in (("", ()), ("/plan", plan)):
                    key, records = _digest(stream_records(
                        media, clip, VARIANT_QUALITY, VARIANT_DEVICE, switches
                    ))
                    if switches:
                        digests[f"{variant}{label}"] = key
                    for fraction in RESUME_FRACTIONS:
                        skip = int(records * fraction)
                        digests[f"{variant}{label}/resume{skip}"], _ = _digest(
                            stream_records(media, clip, VARIANT_QUALITY,
                                           VARIANT_DEVICE, switches, skip)
                        )
            ambient = _server(library, policy, engine, ambient=SERVE_AMBIENT)
            for clip in PAPER_CLIP_NAMES:
                digests[f"{prefix}/{clip}/q{VARIANT_QUALITY}/{VARIANT_DEVICE}"
                        f"/ambient"], _ = _digest(stream_records(
                            ambient, clip, VARIANT_QUALITY, VARIANT_DEVICE))
    return digests


def load_digests() -> Dict[str, str]:
    """The committed digests."""
    return json.loads(DIGESTS_PATH.read_text())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--accept", action="store_true",
                        help=f"rewrite {DIGESTS_PATH.name} with the current digests")
    args = parser.parse_args(argv)
    digests = compute_digests()
    if args.accept:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
        return 0
    frozen = load_digests() if DIGESTS_PATH.exists() else {}
    changed = sorted(k for k in digests.keys() | frozen.keys()
                     if digests.get(k) != frozen.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(digests)} digests, {len(changed)} differ from {DIGESTS_PATH.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
