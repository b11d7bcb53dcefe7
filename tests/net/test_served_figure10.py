"""Figure 10 on served bytes.

Library titles served by a :class:`MediaServer` over TCP, fetched with
:class:`AsyncMobileClient` at every quality level and played through the
DAQ chain, must give exactly the rows :func:`repro.experiments.figure10`
computes in-process for the same clips, scale and run-id rule.
"""

import asyncio
import random

from repro import experiments
from repro.core import QUALITY_LEVELS, SchemeParameters
from repro.display import ipaq_5555
from repro.net import AnnotationStreamServer, AsyncMobileClient
from repro.player import DecoderModel
from repro.streaming import MediaServer, MobileClient
from repro.video import make_clip

NAMES = ("catwoman", "ice_age")
SCALE = dict(resolution=(48, 36), duration_scale=0.08)


def _fetch_all(media, device):
    async def run():
        async with AnnotationStreamServer(media) as server:
            client = AsyncMobileClient(device, rng=random.Random(0))
            return {
                name: [await client.fetch(*server.address, name, quality)
                       for quality in QUALITY_LEVELS]
                for name in NAMES
            }

    return asyncio.run(run())


def test_served_rows_equal_figure10():
    device = ipaq_5555()
    media = MediaServer(params=SchemeParameters())
    for name in NAMES:
        media.add_clip(make_clip(name, **SCALE))
    player = MobileClient(device, decoder=DecoderModel(reference_pixels=320 * 240))
    served = {
        name: [
            experiments.measured_savings(
                player.play_stream(fetched.session, fetched.packets), run
            )
            for run, fetched in enumerate(fetches)
        ]
        for name, fetches in _fetch_all(media, device).items()
    }
    assert served == experiments.figure10(device, names=NAMES, **SCALE).rows
