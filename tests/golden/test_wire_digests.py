"""The served wire bytes match the digests frozen in ``wire_digests.json``.

A failure means the output or the wire format changed.  If the change is
deliberate, regenerate with
``PYTHONPATH=src python -m tests.golden.wire_digests --accept`` and say
in CHANGES.md why the bytes moved.
"""

from .wire_digests import compute_digests, load_digests


def test_wire_streams_match_frozen_digests():
    frozen = load_digests()
    current = compute_digests()
    assert current.keys() == frozen.keys()
    changed = sorted(k for k in frozen if current[k] != frozen[k])
    assert not changed, f"{len(changed)} streams changed, e.g. {changed[:5]}"
