"""Fuzzing the codecs: hostile inputs must fail cleanly.

A Tiamat instance decodes patterns and tuples that arrive from arbitrary
remote peers, and a sqlite backend decodes blobs from a file on disk; a
malformed input must raise :class:`SerializationError` (which the caller
can contain), never an arbitrary exception and never a silently-wrong
value.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, SerializationError
from repro.tuples import Tuple, decode_pattern, decode_tuple, encode_tuple
from repro.tuples.serialization import decode_tuple_binary, encode_tuple_binary
from tests.test_codec_cross import tuples

# Arbitrary JSON-like structures, the shape of anything a peer could send.
json_like = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2**40), max_value=2**40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=10)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=3)),
    max_leaves=10,
)


@given(json_like)
def test_decode_tuple_never_crashes_unexpectedly(data):
    try:
        tup = decode_tuple(data)
    except SerializationError:
        return  # the contract for malformed input
    # If it decoded, it must re-encode to a stable representation.
    assert decode_tuple(encode_tuple(tup)) == tup


@given(json_like)
def test_decode_pattern_never_crashes_unexpectedly(data):
    try:
        decode_pattern(data)
    except SerializationError:
        return
    except ReproError:
        return  # e.g. an empty-pattern rejection: still a typed error


@given(st.lists(st.one_of(st.text(max_size=3), st.integers()), max_size=5))
def test_decode_tuple_rejects_wrong_tags(fields):
    """Lists whose head is not a known tag must be rejected."""
    try:
        decode_tuple(["zz"] + fields)
    except SerializationError:
        return
    raise AssertionError("unknown tag was accepted")


@given(st.binary(max_size=64))
def test_decode_tuple_binary_never_crashes_unexpectedly(data):
    try:
        tup = decode_tuple_binary(data)
    except SerializationError:
        return
    assert isinstance(tup, Tuple)


@given(tuples)
def test_decode_tuple_binary_refuses_every_truncation(tup):
    blob = encode_tuple_binary(tup)
    for cut in range(len(blob)):
        with pytest.raises(SerializationError):
            decode_tuple_binary(blob[:cut])
