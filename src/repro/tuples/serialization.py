"""Encodings for tuples, patterns, frame payloads and storage records.

Tiamat instances exchange tuples and antituples over the (simulated)
network; this module defines the encodings plus :func:`encoded_size`,
which the network layer uses for byte accounting and the lease manager
uses for storage accounting.

Frames (``docs/PROTOCOL.md`` §8)
    Every runtime's frames are JSON, with tuples and patterns in a
    tag-first, JSON-representable form — human-readable and
    loosely-coupled, at the price of base64 for bytes fields::

        field:   ["b", true] | ["i", 5] | ["f", 2.5] | ["s", "x"]
                 | ["y", "<base64>"] | ["t", [field, ...]]
        tuple:   ["t", [field, ...]]
        spec:    ["A", field] | ["F", "int"] | ["*"] | ["R", lo, hi]
        pattern: ["p", [spec, ...]]

Storage (``docs/PROTOCOL.md`` §10.1)
    A compact length-prefixed binary encoding of tuples and of the
    record dicts a storage backend writes (one tag byte per value, LEB128
    varints for lengths and integers, raw UTF-8/byte runs, IEEE-754
    doubles): sqlite blobs and ``WALBackend(codec="binary")`` records.
    It round-trips bit-identically with the JSON form over every value in
    the tuple model (property-tested in ``tests/test_codec_cross.py``).
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Union

from repro.errors import SerializationError
from repro.tuples.model import ANY, Actual, Field, Formal, Pattern, Range, Tuple

_FORMAL_TYPES = {
    "bool": bool,
    "int": int,
    "float": float,
    "str": str,
    "bytes": bytes,
    "Tuple": Tuple,
}


def _encode_field(value: Any) -> list:
    if isinstance(value, Tuple):
        return ["t", [_encode_field(f) for f in value.fields]]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, bytes):
        return ["y", base64.b64encode(value).decode("ascii")]
    raise SerializationError(f"cannot encode field {value!r}")


def _decode_field(data: Any) -> Any:
    if not isinstance(data, list) or not data:
        raise SerializationError(f"malformed field encoding: {data!r}")
    tag = data[0]
    if tag == "t":
        return Tuple(*[_decode_field(f) for f in data[1]])
    if tag == "b":
        return bool(data[1])
    if tag == "i":
        return int(data[1])
    if tag == "f":
        return float(data[1])
    if tag == "s":
        return str(data[1])
    if tag == "y":
        return base64.b64decode(data[1])
    raise SerializationError(f"unknown field tag {tag!r}")


def encode_tuple(tup: Tuple) -> list:
    """Encode a tuple to its JSON-representable form."""
    return _encode_field(tup)


def decode_tuple(data: Any) -> Tuple:
    """Decode a tuple from its JSON-representable form.

    Any malformation — wrong tags, wrong value types, truncated lists,
    invalid base64 — raises :class:`SerializationError`: frames arrive
    from arbitrary peers and must never crash the dispatcher with an
    untyped exception.
    """
    try:
        value = _decode_field(data)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"malformed tuple encoding: {exc}") from exc
    if not isinstance(value, Tuple):
        raise SerializationError(f"encoded value is not a tuple: {data!r}")
    return value


def _encode_spec(spec: Field) -> list:
    if isinstance(spec, Actual):
        return ["A", _encode_field(spec.value)]
    if isinstance(spec, Formal):
        return ["F", spec.type.__name__]
    if spec == ANY:
        return ["*"]
    if isinstance(spec, Range):
        return ["R", spec.lo, spec.hi]
    raise SerializationError(f"cannot encode pattern spec {spec!r}")


def _decode_spec(data: Any) -> Field:
    if not isinstance(data, list) or not data:
        raise SerializationError(f"malformed spec encoding: {data!r}")
    tag = data[0]
    if tag == "A":
        return Actual(_decode_field(data[1]))
    if tag == "F":
        type_ = _FORMAL_TYPES.get(data[1])
        if type_ is None:
            raise SerializationError(f"unknown formal type {data[1]!r}")
        return Formal(type_)
    if tag == "*":
        return ANY
    if tag == "R":
        return Range(data[1], data[2])
    raise SerializationError(f"unknown spec tag {tag!r}")


def encode_pattern(pattern: Pattern) -> list:
    """Encode a pattern (antituple) to its JSON-representable form."""
    return ["p", [_encode_spec(s) for s in pattern.specs]]


def decode_pattern(data: Any) -> Pattern:
    """Decode a pattern from its JSON-representable form.

    Malformed input raises :class:`SerializationError` (see
    :func:`decode_tuple` for why the conversion is strict).
    """
    if not isinstance(data, list) or len(data) != 2 or data[0] != "p":
        raise SerializationError(f"malformed pattern encoding: {data!r}")
    try:
        return Pattern(*[_decode_spec(s) for s in data[1]])
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"malformed pattern encoding: {exc}") from exc


def encoded_size(value: Any) -> int:
    """Wire size in bytes of a tuple, pattern, or already-encoded payload:
    the length of its compact JSON encoding, what a frame costs."""
    if isinstance(value, Tuple):
        payload: Any = encode_tuple(value)
    elif isinstance(value, Pattern):
        payload = encode_pattern(value)
    else:
        payload = value
    try:
        return len(json.dumps(payload, separators=(",", ":")))
    except TypeError as exc:
        raise SerializationError(
            f"payload is not JSON-representable: {exc}") from exc


# ===========================================================================
# The binary storage codec: compact length-prefixed encoding
# ===========================================================================
# One tag byte per value; LEB128 varints for all lengths/counts and for
# integers (zigzag-mapped); IEEE-754 big-endian doubles for floats; raw
# UTF-8 / byte runs (no base64).  Tag values are part of the on-disk format
# — see docs/PROTOCOL.md §10.1 before renumbering anything.  Tags 0x10-0x14
# (pattern specs and patterns) are retired: no storage record carries a
# pattern.  They are never reused.

_B_NONE = 0x00
_B_FALSE = 0x01
_B_TRUE = 0x02
_B_INT = 0x03
_B_FLOAT = 0x04
_B_STR = 0x05
_B_BYTES = 0x06
_B_LIST = 0x07
_B_DICT = 0x08
_B_TUPLE = 0x09

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


def _append_varint(buf: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _read_varint(data: bytes, pos: int) -> "tuple[int, int]":
    """Read an unsigned LEB128 varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if pos >= length:
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 448:  # 64 bytes of continuation: not a plausible length
            raise SerializationError("varint too long")


def _append_value(buf: bytearray, value: Any) -> None:
    """Append one payload value (tag byte + operands) to ``buf``."""
    if value is None:
        buf.append(_B_NONE)
    elif value is True:
        buf.append(_B_TRUE)
    elif value is False:
        buf.append(_B_FALSE)
    elif isinstance(value, Tuple):
        wire = value._wire
        if wire is not None:
            buf += wire
        else:
            mark = len(buf)
            _append_tuple(buf, value)
            value._wire = bytes(memoryview(buf)[mark:])
    elif isinstance(value, int):
        buf.append(_B_INT)
        # zigzag-map so small negatives stay small on the wire
        _append_varint(buf, value << 1 if value >= 0 else ~(value << 1))
    elif isinstance(value, float):
        buf.append(_B_FLOAT)
        buf += _pack_double(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        buf.append(_B_STR)
        _append_varint(buf, len(encoded))
        buf += encoded
    elif isinstance(value, bytes):
        buf.append(_B_BYTES)
        _append_varint(buf, len(value))
        buf += value
    elif isinstance(value, list):
        buf.append(_B_LIST)
        _append_varint(buf, len(value))
        for item in value:
            _append_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_B_DICT)
        _append_varint(buf, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"binary payload dict keys must be str, got {key!r}")
            encoded = key.encode("utf-8")
            _append_varint(buf, len(encoded))
            buf += encoded
            _append_value(buf, item)
    else:
        raise SerializationError(f"cannot binary-encode {value!r}")


def _append_tuple(buf: bytearray, value: Tuple) -> None:
    """Inlined tuple encoder: the hottest path on a binary wire.

    Exact-type dispatch (``type(f) is str`` ...) avoids the generic
    encoder's isinstance chain and per-field function call; semantics are
    identical because tuple fields are validated at construction.
    """
    buf.append(_B_TUPLE)
    fields = value.fields
    _append_varint(buf, len(fields))
    for field in fields:
        cls = type(field)
        if cls is str:
            encoded = field.encode("utf-8")
            buf.append(_B_STR)
            n = len(encoded)
            if n < 0x80:
                buf.append(n)
            else:
                _append_varint(buf, n)
            buf += encoded
        elif cls is int:
            buf.append(_B_INT)
            raw = field << 1 if field >= 0 else ~(field << 1)
            if raw < 0x80:
                buf.append(raw)
            else:
                _append_varint(buf, raw)
        elif cls is float:
            buf.append(_B_FLOAT)
            buf += _pack_double(field)
        elif cls is bool:
            buf.append(_B_TRUE if field else _B_FALSE)
        elif cls is bytes:
            buf.append(_B_BYTES)
            n = len(field)
            if n < 0x80:
                buf.append(n)
            else:
                _append_varint(buf, n)
            buf += field
        else:  # nested Tuple (possibly a subclass)
            _append_tuple(buf, field)


def _read_value(data: bytes, pos: int) -> "tuple[Any, int]":
    length = len(data)
    if pos >= length:
        raise SerializationError("truncated binary value")
    tag = data[pos]
    pos += 1
    if tag == _B_NONE:
        return None, pos
    if tag == _B_TRUE:
        return True, pos
    if tag == _B_FALSE:
        return False, pos
    if tag == _B_INT:
        raw, pos = _read_varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _B_FLOAT:
        if pos + 8 > length:
            raise SerializationError("truncated float")
        return _unpack_double(data, pos)[0], pos + 8
    if tag == _B_STR:
        n, pos = _read_varint(data, pos)
        if pos + n > length:
            raise SerializationError("truncated string")
        # str(x, "utf-8") decodes bytes, bytearray *and* memoryview
        # slices, so readers stay buffer-agnostic (.decode does not
        # exist on memoryview).
        return str(data[pos:pos + n], "utf-8"), pos + n
    if tag == _B_BYTES:
        n, pos = _read_varint(data, pos)
        if pos + n > length:
            raise SerializationError("truncated bytes")
        return bytes(data[pos:pos + n]), pos + n
    if tag == _B_LIST:
        n, pos = _read_varint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _read_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _B_DICT:
        return _read_dict_fast(data, pos, length)
    if tag == _B_TUPLE:
        start = pos
        end = _skip_tuple(data, pos)
        if end > length:
            raise SerializationError("truncated nested tuple")
        if end - start < _NESTED_INTERN_KEY_MAX:
            key = bytes(data[start - 1:end])
            value = _nested_intern.get(key)
            if value is None:
                value, _ = _read_tuple_fast(data, start, end)
                value._wire = key
                if len(_nested_intern) >= _NESTED_INTERN_MAX:
                    _nested_intern.clear()
                _nested_intern[key] = value
            return value, end
        return _read_tuple_fast(data, start, end)
    raise SerializationError(f"unknown binary tag 0x{tag:02x}")


#: Bounded intern table for decoded tuples keyed by their exact tagged
#: wire bytes.  Tuples on a real wire repeat heavily — nested sub-records
#: (space handles, reply-to addresses), and whole tuples on retransmit,
#: dedup-replay, and fan-out paths — so a decode that has seen the bytes
#: before returns the shared immutable Tuple instead of re-parsing it.
#: The key is the full tagged form, so it doubles as the tuple's memoized
#: ``_wire`` encoding.  Wiped wholesale when full: cheap, and a full wipe
#: keeps the steady state hot without LRU bookkeeping on the fast path.
_nested_intern: "dict[bytes, Tuple]" = {}
_NESTED_INTERN_MAX = 1024
#: Nested tuples longer than this on the wire are not interned (the key
#: copy would cost more than it saves on plausible hit rates).
_NESTED_INTERN_KEY_MAX = 256


def _skip_tuple(data, pos: int) -> int:
    """Advance past a tuple body (after its ``_B_TUPLE`` tag byte).

    A structure-only scan — no object construction, no UTF-8 decode —
    used to find a nested tuple's wire extent so the intern table can be
    consulted *before* paying for a full parse.  Trusts nothing it does
    not need to: a malformed body raises here or in the full decode that
    follows a cache miss.
    """
    nf = data[pos]
    pos += 1
    if nf > 0x7F:
        nf, pos = _read_varint(data, pos - 1)
    while nf:
        nf -= 1
        tag = data[pos]
        pos += 1
        if tag == _B_INT:
            while data[pos] & 0x80:
                pos += 1
            pos += 1
        elif tag == _B_STR or tag == _B_BYTES:
            n = data[pos]
            pos += 1
            if n > 0x7F:
                n, pos = _read_varint(data, pos - 1)
            pos += n
        elif tag == _B_FLOAT:
            pos += 8
        elif tag == _B_TUPLE:
            pos = _skip_tuple(data, pos)
        elif tag != _B_TRUE and tag != _B_FALSE:
            raise SerializationError(
                f"tag 0x{tag:02x} is not a tuple field value")
    return pos


def _read_tuple_fast(data, pos: int, length: int) -> "tuple[Tuple, int]":
    """Decode a tuple body (after its tag byte) via the trusted fast path.

    Only *field-value* tags are admitted inside a tuple, which proves field
    validity by construction and licenses building the :class:`Tuple`
    without the per-field re-validation of the public constructor.

    This is the binary codec's hottest loop, hand-inlined accordingly:
    ``data`` may be ``bytes``, ``bytearray`` or ``memoryview`` (indexing
    yields ints and ``str(slice, "utf-8")`` works on all three, so a
    record decodes with no intermediate copy);
    varints take the one-byte fast path inline; tuples are built through
    ``object.__new__`` with direct slot stores.  Truncations surface as
    ``IndexError``/``struct.error`` and are converted to
    :class:`SerializationError` by the public entry points — except
    slices, which truncate silently and therefore keep explicit bounds
    checks.
    """
    nf = data[pos]
    pos += 1
    if nf > 0x7F:
        nf, pos = _read_varint(data, pos - 1)
    if nf == 0:
        raise SerializationError("a tuple must have at least one field")
    fields = []
    append = fields.append
    interned = _nested_intern
    while nf:
        nf -= 1
        tag = data[pos]
        pos += 1
        if tag == _B_STR:
            n = data[pos]
            pos += 1
            if n > 0x7F:
                n, pos = _read_varint(data, pos - 1)
            end = pos + n
            if end > length:
                raise SerializationError("truncated string")
            append(str(data[pos:end], "utf-8"))
            pos = end
        elif tag == _B_INT:
            raw = data[pos]
            pos += 1
            if raw > 0x7F:
                raw, pos = _read_varint(data, pos - 1)
            append((raw >> 1) ^ -(raw & 1))
        elif tag == _B_FLOAT:
            append(_unpack_double(data, pos)[0])
            pos += 8
        elif tag == _B_TRUE:
            append(True)
        elif tag == _B_FALSE:
            append(False)
        elif tag == _B_BYTES:
            n = data[pos]
            pos += 1
            if n > 0x7F:
                n, pos = _read_varint(data, pos - 1)
            end = pos + n
            if end > length:
                raise SerializationError("truncated bytes")
            append(bytes(data[pos:end]))
            pos = end
        elif tag == _B_TUPLE:
            start = pos
            pos = _skip_tuple(data, pos)
            if pos > length:
                raise SerializationError("truncated nested tuple")
            if pos - start < _NESTED_INTERN_KEY_MAX:
                # Key on the full tagged form so the key doubles as the
                # nested tuple's memoized wire bytes.
                key = bytes(data[start - 1:pos])
                nested = interned.get(key)
                if nested is None:
                    nested, _ = _read_tuple_fast(data, start, pos)
                    nested._wire = key
                    if len(interned) >= _NESTED_INTERN_MAX:
                        interned.clear()
                    interned[key] = nested
            else:
                nested, _ = _read_tuple_fast(data, start, pos)
            append(nested)
        else:
            raise SerializationError(
                f"tag 0x{tag:02x} is not a tuple field value")
    if pos > length:
        raise SerializationError("truncated tuple")
    tup = _T_new(Tuple)
    tup._fields = tuple(fields)
    tup._hash = None
    tup._wire = None
    return tup, pos


_T_new = object.__new__


def _read_dict_fast(data, pos: int, length: int) -> "tuple[dict, int]":
    """Decode a dict body (after its ``_B_DICT`` tag byte), hand-inlined.

    Storage records are dicts, so the dict walk gets the same treatment
    as the tuple walk: inline one-byte varint fast paths, inline decode
    of the common value shapes (short strings, ints, bools, interned
    tuples), and a fallback to :func:`_read_value` for everything rarer.
    """
    n = data[pos]
    pos += 1
    if n > 0x7F:
        n, pos = _read_varint(data, pos - 1)
    out: dict = {}
    interned = _nested_intern
    while n:
        n -= 1
        klen = data[pos]
        pos += 1
        if klen > 0x7F:
            klen, pos = _read_varint(data, pos - 1)
        kend = pos + klen
        if kend > length:
            raise SerializationError("truncated dict key")
        key = str(data[pos:kend], "utf-8")
        pos = kend
        tag = data[pos]
        pos += 1
        if tag == _B_STR:
            m = data[pos]
            pos += 1
            if m > 0x7F:
                m, pos = _read_varint(data, pos - 1)
            end = pos + m
            if end > length:
                raise SerializationError("truncated string")
            out[key] = str(data[pos:end], "utf-8")
            pos = end
        elif tag == _B_INT:
            raw = data[pos]
            pos += 1
            if raw > 0x7F:
                raw, pos = _read_varint(data, pos - 1)
            out[key] = (raw >> 1) ^ -(raw & 1)
        elif tag == _B_TUPLE:
            start = pos
            pos = _skip_tuple(data, pos)
            if pos > length:
                raise SerializationError("truncated nested tuple")
            if pos - start < _NESTED_INTERN_KEY_MAX:
                wire_key = bytes(data[start - 1:pos])
                nested = interned.get(wire_key)
                if nested is None:
                    nested, _ = _read_tuple_fast(data, start, pos)
                    nested._wire = wire_key
                    if len(interned) >= _NESTED_INTERN_MAX:
                        interned.clear()
                    interned[wire_key] = nested
                out[key] = nested
            else:
                out[key], _ = _read_tuple_fast(data, start, pos)
        elif tag == _B_TRUE:
            out[key] = True
        elif tag == _B_FALSE:
            out[key] = False
        elif tag == _B_NONE:
            out[key] = None
        else:
            out[key], pos = _read_value(data, pos - 1)
    return out, pos


def encode_tuple_binary(tup: Tuple) -> bytes:
    """Encode a tuple to the compact binary form.

    The result is memoized on the (immutable) tuple, so encoding the same
    tuple again returns the cached bytes without re-walking the fields.
    """
    if not isinstance(tup, Tuple):
        raise SerializationError(f"not a tuple: {tup!r}")
    wire = tup._wire
    if wire is None:
        buf = bytearray()
        _append_tuple(buf, tup)
        tup._wire = wire = bytes(buf)
    return wire


Buffer = Union[bytes, bytearray, memoryview]


def decode_tuple_binary(data: Buffer) -> Tuple:
    """Decode a tuple from the binary form (strict; see module doc).

    Accepts ``bytes``, ``bytearray`` or ``memoryview`` and decodes in
    place — no intermediate copy of ``data`` is made.  Top-level decodes
    go through the same bounded intern table as nested tuples: a second
    decode of identical bytes is one dict lookup.
    """
    if type(data) is bytes and data and data[0] == _B_TUPLE \
            and len(data) < _NESTED_INTERN_KEY_MAX:
        cached = _nested_intern.get(data)
        if cached is not None:
            return cached
    try:
        if data[0] == _B_TUPLE:
            value, pos = _read_tuple_fast(data, 1, len(data))
        else:
            value, pos = _read_value(data, 0)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"malformed binary tuple: {exc}") from exc
    if not isinstance(value, Tuple) or pos != len(data):
        raise SerializationError("encoded value is not exactly one tuple")
    if type(data) is bytes:
        if value._wire is None:
            value._wire = data
        if data[0] == _B_TUPLE and len(data) < _NESTED_INTERN_KEY_MAX:
            if len(_nested_intern) >= _NESTED_INTERN_MAX:
                _nested_intern.clear()
            _nested_intern[data] = value
    return value


def encode_payload_binary(payload: dict) -> bytes:
    """Encode a storage record dict to the binary form."""
    if not isinstance(payload, dict):
        raise SerializationError(f"payload must be a dict, got {payload!r}")
    buf = bytearray()
    _append_value(buf, payload)
    return bytes(buf)


def decode_payload_binary(data: Buffer) -> dict:
    """Decode a storage record dict from the binary form (strict)."""
    try:
        if data[0] == _B_DICT:
            value, pos = _read_dict_fast(data, 1, len(data))
        else:
            value, pos = _read_value(data, 0)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"malformed binary payload: {exc}") from exc
    if not isinstance(value, dict) or pos != len(data):
        raise SerializationError("encoded value is not exactly one payload dict")
    return value
