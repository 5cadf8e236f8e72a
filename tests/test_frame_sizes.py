"""A frame's size is its payload's compact, key-sorted JSON, byte for byte.

``Message`` sizes frames with one prebuilt encoder; these tests hold it to
``json.dumps(payload, separators=(",", ":"), sort_keys=True)`` for every
frame kind the protocol sends in a remote ``rd``/``in_`` cycle and in each
model-checker template, faults and churn included.
"""

import json

import pytest

import repro
from repro.check.explorer import TEMPLATES, Perturbations, run_schedule
from repro.errors import SerializationError
from repro.leasing import GenerousPolicy
from repro.net.message import Message
from repro.tuples import Pattern, Tuple


def _dumps_size(payload):
    return len(json.dumps(payload, separators=(",", ":"), sort_keys=True))


@pytest.fixture
def frames(monkeypatch):
    """``(kind, size, json.dumps size)`` of every frame built, at build time."""
    seen = []
    build = Message.__init__

    def spy(self, src, dst, payload, sent_at):
        build(self, src, dst, payload, sent_at)
        seen.append((self.kind, self.size, _dumps_size(payload)))

    monkeypatch.setattr(Message, "__init__", spy)
    return seen


def _mispriced(frames):
    return [frame for frame in frames if frame[1] != frame[2]]


def test_origin_and_eight_peers_frames_are_priced_as_json(frames):
    with repro.connect("sim", seed=3) as rt:
        policy = GenerousPolicy(max_duration=2e9)
        origin = rt.node("origin", policy=policy)
        peers = [rt.node(f"p{i}", policy=policy) for i in range(8)]
        names = [node.name for node in [origin] + peers]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rt.set_visible(a, b)
        for i in range(6):
            job = Tuple("job", i, "é" * i, float(i) / 3, b"\x00\xff")
            peers[i % 8].out(job, 600.0)
            assert origin.rd(Pattern("job", i, str, float, bytes)) == job
            assert origin.in_(Pattern("job", i, str, float, bytes)) == job
    assert {"discover", "discover_ack", "query", "query_reply", "cancel",
            "claim_accept", "rel_ack"} <= {kind for kind, _, _ in frames}
    assert not _mispriced(frames)


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_checker_template_frames_are_priced_as_json(frames, template):
    run_schedule(template, 1, Perturbations(), monitored=False)
    assert frames
    assert not _mispriced(frames)


def test_a_payload_json_cannot_represent_is_refused():
    with pytest.raises(SerializationError):
        Message("a", "b", {"kind": "x", "bad": object()}, 0.0)
    with pytest.raises(SerializationError):
        Message("a", "b", {"kind": "x", "bad": {1, 2}}, 0.0)
