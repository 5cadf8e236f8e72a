"""Network frames.

A :class:`Message` is what the simulated network moves between nodes: a
source, a destination (``None`` marks a multicast), and a JSON-representable
payload dict.  The payload convention throughout the repository is
``{"kind": <str>, ...}`` — each protocol (Tiamat, Limbo, LIME, ...) defines
its own kinds.  Size is computed once from the payload's compact JSON
encoding (frames are JSON on every runtime, ``docs/PROTOCOL.md`` §8) and
used for both latency (per-byte transmission delay) and byte accounting.

Real link layers discard damaged frames; the simulated network models
that by letting fault injectors :meth:`corrupt` a frame in flight.  A
damaged frame's payload is a fresh garbled dict, so integrity is an
identity check: :meth:`verify` asks whether the payload is still the one
the frame was sent with (``sent``, carried to every copy), and the network
drops a frame that fails it at delivery time (drop reason ``corrupt``)
instead of handing garbage to a protocol handler.
"""

from __future__ import annotations

from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Optional

from repro.errors import SerializationError

#: ``json.dumps``'s C encoder, built once: no encoder, circular-check dict
#: or key sort per frame.  Key order does not change a compact encoding's
#: length, so a size is ``len(json.dumps(payload, separators=(",", ":"),
#: sort_keys=True))``.
_encode = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", False, False, True)


class Message:
    """A frame in flight (or delivered) on the simulated network."""

    #: ``kind`` is the payload's ``"kind"``, read once: damage keeps it.
    __slots__ = ("src", "dst", "payload", "kind", "size", "sent_at", "sent")

    def __init__(self, src: str, dst: Optional[str], payload: dict,
                 sent_at: float) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.kind = payload.get("kind", "?")
        self.sent_at = sent_at
        try:
            self.size = len("".join(_encode(payload, 0)))
        except TypeError as exc:
            raise SerializationError(
                f"payload is not JSON-representable: {exc}") from exc
        self.sent = payload

    def copy_for(self, dst: Optional[str], sent_at: float) -> "Message":
        """A fresh frame carrying the same payload to ``dst``.

        Kind, size and sent payload are those of the original: the payload is
        shared, and :meth:`corrupt` replaces it on one copy rather than
        mutating it.
        """
        msg = object.__new__(Message)
        msg.src = self.src
        msg.dst = dst
        msg.payload = self.payload
        msg.kind = self.kind
        msg.size = self.size
        msg.sent_at = sent_at
        msg.sent = self.sent
        return msg

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def corrupt(self) -> None:
        """Damage the frame in flight: the payload is no longer the one it
        was sent with, so :meth:`verify` fails."""
        self.payload = {"kind": self.kind, "__garbled__": True}

    def verify(self) -> bool:
        """True iff the payload is still the one the frame was sent with."""
        return self.payload is self.sent

    @property
    def is_multicast(self) -> bool:
        """True for frames addressed to every visible neighbour."""
        return self.dst is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = "*" if self.dst is None else self.dst
        return f"<Message {self.src}->{target} {self.kind} {self.size}B>"
