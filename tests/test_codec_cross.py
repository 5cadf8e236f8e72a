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
  size and checksum come from that one encoding;
* storage record dicts survive the binary record codec.

Floats are restricted to finite values: the JSON wire cannot carry
NaN/Infinity portably, so the model's codecs never need to agree there.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message, payload_checksum
from repro.tuples.model import ANY, Actual, Formal, Pattern, Range, Tuple
from repro.tuples.serialization import (
    decode_pattern,
    decode_payload_binary,
    decode_tuple,
    decode_tuple_binary,
    encode_pattern,
    encode_payload_binary,
    encode_tuple,
    encode_tuple_binary,
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

payloads = st.dictionaries(st.text(min_size=1, max_size=10), json_values,
                           min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(payloads)
def test_payload_binary_roundtrip(payload):
    decoded = decode_payload_binary(encode_payload_binary(payload))
    assert decoded == payload
    # Equality above is not enough for bool/int confusion; spot-check types.
    assert json.dumps(decoded, sort_keys=True, default=str) == \
        json.dumps(payload, sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Frames: one encoding gives the size and the checksum
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
    assert msg.checksum == payload_checksum(payload)
    copy = msg.copy_for("c", 0.0)
    assert (copy.size, copy.checksum) == (msg.size, msg.checksum)
    assert copy.verify()
