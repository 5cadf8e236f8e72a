"""Network frames.

A :class:`Message` is what the simulated network moves between nodes: a
source, a destination (``None`` marks a multicast), and a JSON-representable
payload dict.  The payload convention throughout the repository is
``{"kind": <str>, ...}`` — each protocol (Tiamat, Limbo, LIME, ...) defines
its own kinds.  Size is computed once from the encoded payload — priced by
the network's configured :class:`~repro.tuples.serialization.WireCodec`
(tag-first JSON by default, the compact binary codec when selected) — and
used for both latency (per-byte transmission delay) and byte accounting.

Every frame also carries a **checksum** over its encoded payload, computed
at send time — on a JSON-codec network from the same canonical encoding
that gave the size (sorting keys does not change a length), and carried,
with the size, to every multicast copy instead of being recomputed.  Real
link layers discard damaged frames; the simulated
network models that by letting fault injectors :meth:`corrupt` a frame in
flight, after which :meth:`verify` fails and the network drops the frame at
delivery time (drop reason ``corrupt``) instead of handing garbage to a
protocol handler.

**Batch envelopes** (kind :data:`BATCH`) coalesce every unicast frame
queued to the same destination within one simulation tick into a single
physical frame: ``{"kind": "batch", "frames": [payload, ...]}``.  The
envelope is what flies (one loss/fault/latency decision, one stats entry);
the network unpacks it at delivery and hands each logical sub-frame to the
handler in queue order, so per-destination FIFO ordering is preserved.
Sub-frames are rebuilt with :meth:`Message.sub_frame`, which skips the
checksum (the envelope was already verified) — they never travel alone.
"""

from __future__ import annotations

import itertools
import json
import zlib
from typing import Optional

from repro.errors import SerializationError
from repro.tuples.serialization import WireCodec, encoded_size

#: Network-layer frame kind for batch envelopes (not a Tiamat protocol kind).
BATCH = "batch"

_ids = itertools.count(1)


def payload_checksum(payload: dict) -> int:
    """CRC32 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True,
                         default=str)
    return zlib.crc32(encoded.encode("utf-8"))


class Message:
    """A frame in flight (or delivered) on the simulated network."""

    __slots__ = ("msg_id", "src", "dst", "payload", "size", "sent_at",
                 "checksum", "codec")

    def __init__(self, src: str, dst: Optional[str], payload: dict,
                 sent_at: float, codec: Optional[WireCodec] = None) -> None:
        self.msg_id = next(_ids)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.codec = codec
        self.sent_at = sent_at
        if codec is None or codec.name == "json":
            try:
                encoded = json.dumps(payload, separators=(",", ":"),
                                     sort_keys=True)
            except TypeError as exc:
                raise SerializationError(
                    f"payload is not JSON-representable: {exc}") from exc
            self.size = len(encoded)
            self.checksum = zlib.crc32(encoded.encode("utf-8"))
        else:
            self.size = codec.encoded_size(payload)
            self.checksum = payload_checksum(payload)

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
        msg.codec = self.codec
        msg.size = self.size
        msg.sent_at = sent_at
        msg.checksum = self.checksum
        return msg

    @classmethod
    def sub_frame(cls, envelope: "Message", payload: dict) -> "Message":
        """A logical frame unpacked from a delivered batch envelope.

        The envelope's checksum was already verified, so the sub-frame
        skips checksum computation (:meth:`verify` reports True); its size
        is priced by the same codec so per-frame accounting stays honest.
        """
        msg = object.__new__(cls)
        msg.msg_id = next(_ids)
        msg.src = envelope.src
        msg.dst = envelope.dst
        msg.payload = payload
        msg.codec = envelope.codec
        msg.size = (encoded_size(payload) if envelope.codec is None
                    else envelope.codec.encoded_size(payload))
        msg.sent_at = envelope.sent_at
        msg.checksum = None
        return msg

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def corrupt(self) -> None:
        """Damage the frame in flight: the payload no longer matches the
        checksum computed at send time, so :meth:`verify` fails."""
        self.payload = {"kind": self.payload.get("kind", "?"),
                        "__garbled__": True}
        if self.checksum is None:  # a sub-frame: force the mismatch anyway
            self.checksum = -1

    def verify(self) -> bool:
        """True iff the payload still matches the send-time checksum."""
        if self.checksum is None:
            return True  # sub-frame of an already-verified envelope
        return payload_checksum(self.payload) == self.checksum

    @property
    def is_multicast(self) -> bool:
        """True for frames addressed to every visible neighbour."""
        return self.dst is None

    @property
    def is_batch(self) -> bool:
        """True for batch envelopes carrying multiple logical frames."""
        return self.payload.get("kind") == BATCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = "*" if self.dst is None else self.dst
        return f"<Message #{self.msg_id} {self.src}->{target} {self.kind} {self.size}B>"
