"""A frame's size is its payload's compact, key-sorted JSON, byte for byte.

``Message`` sizes frames with one prebuilt encoder that does not sort the
keys; these tests hold it to
``json.dumps(payload, separators=(",", ":"), sort_keys=True)`` for every
frame kind the protocol sends in a remote ``rd``/``in_`` cycle and in each
model-checker template, faults and churn included, and for arbitrary
JSON payloads: key order never changes a compact encoding's length.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# Arbitrary payloads: sizing without sorting is the sorted length
# ----------------------------------------------------------------------
keys = st.text(max_size=8) | st.text(st.characters(min_codepoint=0x80),
                                     min_size=1, max_size=4)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64).map(lambda i: i ** 3),   # far past 64 bits
    st.floats(),
    st.sampled_from([1e-7, 1e22, -0.0, 5e-324, 1.7976931348623157e308]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80)),              # non-ASCII only
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=20)
payloads = st.dictionaries(keys, json_values, max_size=6)

NON_JSON = (object(), {1, 2}, b"bytes", 1j, frozenset())
#: A payload with one value JSON cannot represent, at any depth.
poisoned = st.recursive(
    st.sampled_from(NON_JSON),
    lambda inner: st.one_of(
        st.tuples(st.lists(json_values, max_size=3), inner,
                  st.integers(0, 3)).map(
            lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
        st.tuples(st.dictionaries(keys, json_values, max_size=3), keys,
                  inner).map(lambda t: {**t[0], t[1]: t[2]})),
    max_leaves=4,
).flatmap(lambda bad: st.tuples(payloads, keys).map(
    lambda t: {**t[0], t[1]: bad}))


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_a_frame_is_sized_as_its_sorted_compact_json(payload):
    assert Message("a", "b", payload, 0.0).size == _dumps_size(payload)


@settings(max_examples=100, deadline=None)
@given(poisoned)
def test_a_non_json_value_at_any_depth_is_refused(payload):
    with pytest.raises(SerializationError):
        Message("a", "b", payload, 0.0)
