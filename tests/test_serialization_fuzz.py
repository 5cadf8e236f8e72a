"""Fuzzing the codecs: hostile inputs must fail cleanly.

A Tiamat instance decodes patterns and tuples that arrive from arbitrary
remote peers, and the binary codec decodes blobs it did not write; a
malformed input must raise :class:`SerializationError` (which the caller
can contain), never an arbitrary exception and never a silently-wrong
value.  Whatever the JSON decoders accept is canonical: it re-encodes to
the very JSON it was decoded from.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, SerializationError
from repro.tuples import (
    Tuple,
    decode_pattern,
    decode_tuple,
    encode_pattern,
    encode_tuple,
)
from repro.tuples.serialization import decode_tuple_binary, encode_tuple_binary
from tests.test_codec_cross import patterns, tuples

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


# Each of these would decode to a value no encoder writes from it.
@pytest.mark.parametrize("decode, data", [
    (decode_tuple, ["t", [["b", "false"]]]),       # not Tuple(True)
    (decode_tuple, ["t", [["y", "!!!"]]]),         # not b""
    (decode_tuple, ["t", [["y", "QR=="]]]),        # not b"A", whose form is "QQ=="
    (decode_tuple, ["t", [["i", 5.7]]]),           # not 5
    (decode_tuple, ["t", [["s", 5]]]),             # not "5"
    (decode_tuple, ["t", [["i", True]]]),          # not 1
    (decode_tuple, ["t", [["f", 5]]]),             # not 5.0
    (decode_tuple, ["t", [["s", "x", "junk"]]]),   # not "x"
    (decode_pattern, ["p", [["F", "int", "x"]]]),  # not Formal(int)
    (decode_pattern, ["p", [["R", 1, 2, 3]]]),     # not Range(1, 2)
    (decode_pattern, ["p", [["*", 1]]]),           # not ANY
], ids=["bool-from-str", "invalid-base64", "noncanonical-base64",
        "int-from-float", "str-from-int", "int-from-bool", "float-from-int",
        "field-trailing-junk", "formal-trailing-junk", "range-trailing-junk",
        "any-trailing-junk"])
def test_decoders_refuse_non_canonical_forms(decode, data):
    with pytest.raises(SerializationError):
        decode(data)


def _assert_canonical(decode, encode, data):
    """If ``data`` decodes, it re-encodes to the same JSON."""
    try:
        value = decode(data)
    except SerializationError:
        return
    assert json.dumps(encode(value)) == json.dumps(data)


@given(json_like)
def test_decoded_json_like_is_canonical(data):
    _assert_canonical(decode_tuple, encode_tuple, ["t", [data]])
    _assert_canonical(decode_pattern, encode_pattern, ["p", [data]])


def _positions(node, path=()):
    yield path
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _positions(child, path + (i,))


def _mutated(node, path, new):
    """``node`` with the element at ``path`` replaced by ``new``, or, for
    the ``_DROP`` marker, removed."""
    if not path:
        return new
    node = list(node)
    if len(path) == 1 and new is _DROP:
        del node[path[0]]
    else:
        node[path[0]] = _mutated(node[path[0]], path[1:], new)
    return node


_DROP = object()
_replacements = st.one_of(json_like, st.just(_DROP), st.sampled_from(
    ["b", "i", "f", "s", "y", "t", "A", "F", "*", "R", "p", "int", "Tuple",
     "QQ==", "QR==", True, False, 0, 1, 1.0, -0.0, 5.7, None, [], ["junk"]]))


@given(st.one_of(tuples.map(lambda t: (decode_tuple, encode_tuple,
                                       encode_tuple(t))),
                 patterns.map(lambda p: (decode_pattern, encode_pattern,
                                         encode_pattern(p)))),
       st.data())
def test_decoded_mutant_is_canonical(case, data):
    decode, encode, form = case
    form = json.loads(json.dumps(form))     # as a peer's datagram carries it
    path = data.draw(st.sampled_from(list(_positions(form))[1:]))
    _assert_canonical(decode, encode,
                      _mutated(form, path, data.draw(_replacements)))
