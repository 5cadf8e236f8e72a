"""Property tests for the encodings: the JSON forms and the binary
storage codec must agree.

Hypothesis generates arbitrary tuples and patterns from the value model
(nested tuples, bytes fields, unicode strings, huge ints, Range specs,
ANY wildcards) and asserts that

* each encoding round-trips to an **equal** value (type-strict
  Tuple/Pattern equality, so ``1`` vs ``True`` vs ``1.0`` confusions are
  caught);
* the JSON form and the binary storage codec agree on tuples
  (decode(binary) == decode(json));
* ``encoded_size`` is exactly the compact JSON length (the number the
  network prices latency and leases price storage with), and a frame's
  size comes from that one encoding;
* the one-pass JSON writers, and the aio frame codec built on them,
  write byte for byte what ``json.dumps`` writes for the list forms;
* the binary blob format is pinned by blobs 5.x wrote.

Floats are restricted to finite values: the JSON wire cannot carry
NaN/Infinity portably, so the model's codecs never need to agree there.
"""

from __future__ import annotations

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message
from repro.runtime.aio import _JsonFrames
from repro.tuples.model import ANY, Actual, Formal, Pattern, Range, Tuple
from repro.tuples.serialization import (
    decode_pattern,
    decode_tuple,
    decode_tuple_binary,
    encode_pattern,
    encode_tuple,
    encode_tuple_binary,
    _pattern_json,
    _tuple_json,
    encoded_size,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),  # beyond 64-bit
    finite_floats,
    st.text(max_size=40),
    st.binary(max_size=40),
)

field_values = st.recursive(
    scalars,
    lambda children: st.lists(children, min_size=1, max_size=4).map(Tuple.of),
    max_leaves=12,
)

tuples = st.lists(field_values, min_size=1, max_size=6).map(Tuple.of)


def _range_spec(bounds):
    lo, hi = bounds
    if lo is None and hi is None:
        lo = 0.0
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Range(lo, hi)


range_bound = st.one_of(st.none(), st.integers(-1000, 1000),
                        finite_floats.filter(lambda x: abs(x) < 1e308))

specs = st.one_of(
    field_values.map(Actual),
    st.sampled_from([bool, int, float, str, bytes, Tuple]).map(Formal),
    st.just(ANY),
    st.tuples(range_bound, range_bound).map(_range_spec),
)

patterns = st.lists(specs, min_size=1, max_size=6).map(Pattern.of)


# ----------------------------------------------------------------------
# Tuples
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(tuples)
def test_tuple_roundtrip_agreement(tup):
    via_json = decode_tuple(json.loads(json.dumps(encode_tuple(tup))))
    via_binary = decode_tuple_binary(encode_tuple_binary(tup))
    assert via_json == tup
    assert via_binary == tup
    assert via_binary == via_json


@settings(max_examples=200, deadline=None)
@given(tuples)
def test_tuple_encoded_size_matches_wire(tup):
    # The size is the canonical compact-JSON length of the tag lists.
    assert encoded_size(tup) == len(
        json.dumps(encode_tuple(tup), separators=(",", ":"),
                   sort_keys=True, default=str).encode("utf-8"))


@settings(max_examples=100, deadline=None)
@given(tuples)
def test_tuple_field_types_preserved(tup):
    # Type strictness end to end: True must not come back as 1, 1 not as 1.0.
    decoded = decode_tuple_binary(encode_tuple_binary(tup))

    def same_types(a, b):
        assert type(a) is type(b)
        if isinstance(a, Tuple):
            for fa, fb in zip(a.fields, b.fields):
                same_types(fa, fb)

    same_types(tup, decoded)


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(patterns)
def test_pattern_roundtrip_agreement(pattern):
    via_json = decode_pattern(json.loads(json.dumps(encode_pattern(pattern))))
    assert via_json == pattern


@settings(max_examples=100, deadline=None)
@given(patterns, tuples)
def test_codecs_agree_on_matching(pattern, tup):
    # The decisive property: a pattern shipped over the wire admits
    # exactly the same tuples as the original, stored ones included.
    from repro.tuples.matching import matches

    p_json = decode_pattern(json.loads(json.dumps(encode_pattern(pattern))))
    t_bin = decode_tuple_binary(encode_tuple_binary(tup))
    expected = matches(pattern, tup)
    assert matches(p_json, t_bin) == expected


# ----------------------------------------------------------------------
# Storage records and frame payloads
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(-(2 ** 53), 2 ** 53), finite_floats,
              st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10,
)

# ----------------------------------------------------------------------
# Frames: one encoding gives the size; damage is caught on every copy
# ----------------------------------------------------------------------
frame_payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(json_values, tuples.map(encode_tuple),
              patterns.map(encode_pattern)),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(frame_payloads)
def test_frame_size_and_checksum_agree_with_the_codec(payload):
    msg = Message("a", "b", payload, 0.0)
    assert msg.size == encoded_size(payload)
    copy = msg.copy_for("c", 0.0)
    assert copy.size == msg.size
    assert copy.verify()
    copy.corrupt()      # the network drops a frame that fails verify()
    assert not copy.verify() and msg.verify()


# ----------------------------------------------------------------------
# The one-pass writers: json.dumps of the list forms, byte for byte
# ----------------------------------------------------------------------
# Unlike the round-trip strategies above, NaN and the infinities are in:
# json.dumps writes them, so the writers must write them alike.
wide_fields = st.recursive(
    st.one_of(scalars, st.floats()),
    lambda children: st.lists(children, min_size=1, max_size=4).map(Tuple.of),
    max_leaves=12,
)
wide_tuples = st.lists(wide_fields, min_size=1, max_size=6).map(Tuple.of)
wide_patterns = st.lists(st.one_of(specs, wide_fields.map(Actual)),
                         min_size=1, max_size=6).map(Pattern.of)


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(wide_tuples, wide_patterns)
def test_one_pass_writers_match_json_dumps(tup, pattern):
    assert _tuple_json(tup) == _compact(encode_tuple(tup))
    assert _pattern_json(pattern) == _compact(encode_pattern(pattern))


@settings(max_examples=200, deadline=None)
@given(wide_tuples, wide_patterns)
def test_encoded_size_is_the_list_forms_length(tup, pattern):
    assert encoded_size(tup) == len(_compact(encode_tuple(tup)))
    assert encoded_size(pattern) == len(_compact(encode_pattern(pattern)))


class _Code(enum.IntEnum):
    SEVEN = 7


class _Name(str):
    pass


class _Ratio(float):
    pass


class _Nested(Tuple):
    pass


def test_subclass_fields_are_written_as_their_base_type():
    tup = Tuple(_Code.SEVEN, _Name("n\u00e9"), _Ratio(0.5), _Nested("x", 1))
    pattern = Pattern(_Code.SEVEN, Actual(_Nested("x", 1)))
    assert _tuple_json(tup) == _compact(encode_tuple(tup)) == (
        '["t",[["i",7],["s","n\\u00e9"],["f",0.5],["t",[["s","x"],["i",1]]]]]')
    assert _pattern_json(pattern) == _compact(encode_pattern(pattern))
    # The list form holds the base types, so it decodes as it is.
    decoded = decode_tuple(encode_tuple(tup))
    assert [type(f) for f in decoded.fields] == [int, str, float, Tuple]
    assert decoded == Tuple(7, "n\u00e9", 0.5, Tuple("x", 1))


def _list_form(frame: dict) -> dict:
    """The frame with its tuples and patterns as lists: the reference whose
    ``json.dumps`` the frame codec's bytes must equal."""
    out = {}
    for key, value in frame.items():
        if isinstance(value, Tuple):
            out[key] = encode_tuple(value)
        elif isinstance(value, Pattern):
            out[key] = encode_pattern(value)
        elif key == "f":
            out[key] = [_list_form(sub) for sub in value]
        else:
            out[key] = value
    return out


request_ids = st.one_of(st.integers(0, 2 ** 40), st.text(max_size=12))
single_frames = st.one_of(
    st.fixed_dictionaries({"k": st.just("q"), "id": request_ids,
                           "op": st.sampled_from(["rdp", "inp"]),
                           "p": wide_patterns, "o": st.text(max_size=8)}),
    st.fixed_dictionaries({"k": st.just("r"), "id": request_ids,
                           "st": st.sampled_from(["hit", "miss", "shed"])},
                          optional={"t": wide_tuples}),
    # an echo reply carries back whatever the echo held, decoded or not
    st.fixed_dictionaries({"k": st.sampled_from(["e", "er"]),
                           "id": request_ids,
                           "t": st.one_of(wide_tuples, json_values)}),
)
aio_frames = st.one_of(single_frames, st.lists(
    single_frames, min_size=2, max_size=4).map(lambda fs: {"k": "b", "f": fs}))


@settings(max_examples=300, deadline=None)
@given(aio_frames)
def test_aio_frames_are_json_dumps_of_the_list_form(frame):
    buf = bytearray()
    _JsonFrames.encode_into(buf, frame)
    assert bytes(buf) == _compact(_list_form(frame)).encode("utf-8")
    again = bytearray()
    _JsonFrames.encode_into(again, _JsonFrames.decode(bytes(buf)))
    assert again == buf


# ----------------------------------------------------------------------
# The binary blob format, pinned by bytes 5.x's encoder wrote
# ----------------------------------------------------------------------
SQLITE_BLOBS = [
    (Tuple("nested", Tuple("inner", 1, Tuple("deep", True))),
     "090205066e657374656409030505696e6e65720302090205046465657002"),
    (Tuple("blob", b"\x00\xff\x10"), "09020504626c6f62060300ff10"),
    (Tuple("unicode", "h\u00e9llo \u2713"),
     "09020507756e69636f6465050a68c3a96c6c6f20e29c93"),
    (Tuple("big", 2 ** 64, 2 ** 70 + 5),
     "090305036269670380808080808080808004"
     "038a80808080808080808002"),
    (Tuple("neg", -1, -300), "090305036e6567030103d704"),
    (Tuple("float", 2.5, -0.0),
     "09030505666c6f6174044004000000000000048000000000000000"),
    (Tuple("bool", True, False), "09030504626f6f6c0201"),
    (Tuple("long", "x" * 200, b"y" * 130),       # two-byte varint lengths
     "090305046c6f6e6705c801" + "78" * 200 + "068201" + "79" * 130),
]


@pytest.mark.parametrize("tup, blob", SQLITE_BLOBS,
                         ids=[t.fields[0] for t, _ in SQLITE_BLOBS])
def test_sqlite_blob_format_is_pinned(tup, blob):
    data = bytes.fromhex(blob)
    assert decode_tuple_binary(data) == tup
    assert decode_tuple_binary(bytearray(data)) == tup   # no intern hit
    assert encode_tuple_binary(Tuple.of(tup.fields)) == data
