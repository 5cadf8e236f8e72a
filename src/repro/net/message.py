"""Network frames.

A :class:`Message` is what the simulated network moves between nodes: a
source, a destination (``None`` marks a multicast), and a JSON-representable
payload dict.  The payload convention throughout the repository is
``{"kind": <str>, ...}`` — each protocol (Tiamat, Limbo, LIME, ...) defines
its own kinds.  Size is computed once from the payload's compact JSON
encoding (frames are JSON on every runtime, ``docs/PROTOCOL.md`` §8) and
used for both latency (per-byte transmission delay) and byte accounting.

Every frame also carries a **checksum** over its encoded payload, computed
at send time from the same canonical encoding that gave the size (sorting
keys does not change a length), and carried, with the size, to every
multicast copy instead of being recomputed.  Real link layers discard
damaged frames; the simulated network models that by letting fault
injectors :meth:`corrupt` a frame in flight, after which :meth:`verify`
fails and the network drops the frame at delivery time (drop reason
``corrupt``) instead of handing garbage to a protocol handler.
"""

from __future__ import annotations

import itertools
import json
import zlib
from typing import Optional

from repro.errors import SerializationError

_ids = itertools.count(1)


def payload_checksum(payload: dict) -> int:
    """CRC32 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True,
                         default=str)
    return zlib.crc32(encoded.encode("utf-8"))


class Message:
    """A frame in flight (or delivered) on the simulated network."""

    __slots__ = ("msg_id", "src", "dst", "payload", "size", "sent_at",
                 "checksum")

    def __init__(self, src: str, dst: Optional[str], payload: dict,
                 sent_at: float) -> None:
        self.msg_id = next(_ids)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at
        try:
            encoded = json.dumps(payload, separators=(",", ":"),
                                 sort_keys=True)
        except TypeError as exc:
            raise SerializationError(
                f"payload is not JSON-representable: {exc}") from exc
        self.size = len(encoded)
        self.checksum = zlib.crc32(encoded.encode("utf-8"))

    @property
    def kind(self) -> str:
        """The protocol message kind (payload ``"kind"`` key)."""
        return self.payload.get("kind", "?")

    def copy_for(self, dst: Optional[str], sent_at: float) -> "Message":
        """A fresh frame (new id) carrying the same payload to ``dst``.

        Size and checksum are those of the original: the payload is shared,
        and :meth:`corrupt` replaces it on one copy rather than mutating it.
        """
        msg = object.__new__(Message)
        msg.msg_id = next(_ids)
        msg.src = self.src
        msg.dst = dst
        msg.payload = self.payload
        msg.size = self.size
        msg.sent_at = sent_at
        msg.checksum = self.checksum
        return msg

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def corrupt(self) -> None:
        """Damage the frame in flight: the payload no longer matches the
        checksum computed at send time, so :meth:`verify` fails."""
        self.payload = {"kind": self.payload.get("kind", "?"),
                        "__garbled__": True}

    def verify(self) -> bool:
        """True iff the payload still matches the send-time checksum."""
        return payload_checksum(self.payload) == self.checksum

    @property
    def is_multicast(self) -> bool:
        """True for frames addressed to every visible neighbour."""
        return self.dst is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = "*" if self.dst is None else self.dst
        return f"<Message #{self.msg_id} {self.src}->{target} {self.kind} {self.size}B>"
