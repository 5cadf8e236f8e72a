"""Encodings for tuples, patterns and frame payloads.

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
    A compact length-prefixed binary encoding of tuples (one tag byte per
    field, LEB128 varints for lengths and integers, raw UTF-8/byte runs,
    IEEE-754 doubles): the blobs :class:`~repro.tuples.storage.SqliteBackend`
    stores.  It round-trips bit-identically with the JSON form over every
    value in the tuple model (property-tested in
    ``tests/test_codec_cross.py``).  Write-ahead-log records are JSON,
    like frames.
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
# The binary storage codec: compact length-prefixed tuples
# ===========================================================================
# A tuple is its tag byte, a LEB128 field count, then one tag byte per
# field; LEB128 varints for lengths and for integers (zigzag-mapped);
# IEEE-754 big-endian doubles for floats; raw UTF-8 / byte runs (no
# base64).  Tag values are part of the on-disk format — see
# docs/PROTOCOL.md §10.1 before renumbering anything.  Retired tags, never
# reused: 0x00 (none), 0x07 (list) and 0x08 (dict), which only the binary
# WAL record codec wrote, and 0x10-0x14 (pattern specs and patterns).

_B_FALSE = 0x01
_B_TRUE = 0x02
_B_INT = 0x03
_B_FLOAT = 0x04
_B_STR = 0x05
_B_BYTES = 0x06
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


def _append_tuple(buf: bytearray, value: Tuple) -> None:
    """Append a tuple (tag byte, field count, fields) to ``buf``.

    Exact-type dispatch (``type(f) is str`` ...) is safe because tuple
    fields are validated at construction.
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
            # zigzag-map so small negatives stay small
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


def _read_tuple_fast(data, pos: int, length: int) -> "tuple[Tuple, int]":
    """Decode a tuple body (after its tag byte) via the trusted fast path.

    Only *field-value* tags are admitted inside a tuple, which proves field
    validity by construction and licenses building the :class:`Tuple`
    without the per-field re-validation of the public constructor.

    ``data`` may be ``bytes``, ``bytearray`` or ``memoryview`` (indexing
    yields ints and ``str(slice, "utf-8")`` works on all three, so a blob
    decodes with no intermediate copy); varints take the one-byte fast
    path inline.  Truncations surface as ``IndexError``/``struct.error``
    and are converted to :class:`SerializationError` by
    :func:`decode_tuple_binary` — except slices, which truncate silently
    and therefore keep explicit bounds checks.
    """
    nf = data[pos]
    pos += 1
    if nf > 0x7F:
        nf, pos = _read_varint(data, pos - 1)
    if nf == 0:
        raise SerializationError("a tuple must have at least one field")
    fields = []
    append = fields.append
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
            nested, pos = _read_tuple_fast(data, pos, length)
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


#: Bounded intern table for decoded tuples keyed by their exact binary
#: form: a second decode of the same blob — a duplicate row in one sqlite
#: file, or the same file recovered again — returns the shared immutable
#: Tuple instead of re-parsing it.  The key doubles as the tuple's
#: memoized ``_wire`` encoding.  Wiped wholesale when full: cheap, and it
#: needs no LRU bookkeeping on the lookup path.
_intern: "dict[bytes, Tuple]" = {}
_INTERN_MAX = 1024
#: Blobs this long or longer are not interned (the key costs more than it
#: saves on plausible hit rates).
_INTERN_KEY_MAX = 256


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
    place — no intermediate copy of ``data`` is made.  A blob must be
    exactly one tuple, starting with the tuple tag ``0x09``; anything else
    raises :class:`SerializationError`.  Short ``bytes`` blobs go through
    the bounded intern table.
    """
    if type(data) is bytes and len(data) < _INTERN_KEY_MAX:
        cached = _intern.get(data)
        if cached is not None:
            return cached
    try:
        if data[0] != _B_TUPLE:
            raise SerializationError(
                f"a binary tuple starts with tag 0x09, not 0x{data[0]:02x}")
        value, pos = _read_tuple_fast(data, 1, len(data))
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"malformed binary tuple: {exc}") from exc
    if pos != len(data):
        raise SerializationError("encoded value is not exactly one tuple")
    if type(data) is bytes:
        value._wire = data
        if len(data) < _INTERN_KEY_MAX:
            if len(_intern) >= _INTERN_MAX:
                _intern.clear()
            _intern[data] = value
    return value
