"""Protocol tracing: capture and render frame timelines.

Production middleware needs observability; the tracer taps a
:class:`~repro.net.network.Network` and records every delivered frame (and
optionally drops) with its virtual timestamp.  Filters keep captures
focused; :meth:`ProtocolTrace.render` produces the compact timeline format
used in debugging sessions and a few documentation examples::

    t=0.102  b -> a   query       {'op': 'in', ...}
    t=0.105  a -> b   query_reply {'found': True, ...}
"""

from __future__ import annotations

import copy
from typing import Callable, Optional

from repro.net.message import Message
from repro.net.network import Network

FrameFilter = Callable[[Message], bool]


class TraceEntry:
    """One captured frame delivery (or drop)."""

    __slots__ = ("time", "src", "dst", "kind", "payload", "dropped",
                 "drop_reason")

    def __init__(self, time: float, src: str, dst: Optional[str], kind: str,
                 payload: dict, dropped: bool = False,
                 drop_reason: Optional[str] = None) -> None:
        self.time = time
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.dropped = dropped
        self.drop_reason = drop_reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = f" DROPPED({self.drop_reason})" if self.dropped else ""
        return f"<TraceEntry t={self.time:.3f} {self.src}->{self.dst} {self.kind}{flag}>"


class ProtocolTrace:
    """Captures frames flowing through a network.

    The tracer subscribes to the network's ``on_frame`` listener and
    records each ``deliver`` — the point a frame reaches its node's
    handler — so it sees exactly what the nodes see, including nodes attached (or
    re-attached after a crash) once the tracer is running.  With
    ``capture_drops`` (the default) it also subscribes to the drop
    listener, so lost/faulted frames appear in the timeline with their
    drop reason.  Stop with :meth:`detach`.
    """

    def __init__(self, network: Network, frame_filter: Optional[FrameFilter] = None,
                 max_entries: int = 100_000, capture_drops: bool = True) -> None:
        self.network = network
        self.filter = frame_filter
        self.max_entries = max_entries
        self.capture_drops = capture_drops
        self.entries: list[TraceEntry] = []
        self._unsubscribe: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def attach(self) -> "ProtocolTrace":
        """Begin capturing (idempotent); returns self for chaining."""
        if not self._unsubscribe:
            self._unsubscribe.append(self.network.on_frame(self._on_frame))
            if self.capture_drops:
                self._unsubscribe.append(self.network.on_drop(self._record))
        return self

    def detach(self) -> None:
        """Stop capturing."""
        while self._unsubscribe:
            self._unsubscribe.pop()()

    def _on_frame(self, phase: str, msg: Message) -> None:
        if phase == "deliver":
            self._record(msg)

    def _record(self, msg: Message, drop_reason: Optional[str] = None) -> None:
        if self.filter is not None and not self.filter(msg):
            return
        if len(self.entries) >= self.max_entries:
            return
        # Deep-copy the payload at capture time: handlers (and fault
        # injectors) may mutate it in place afterwards, which would
        # silently falsify the captured timeline.
        self.entries.append(TraceEntry(self.network.sim.now, msg.src, msg.dst,
                                       msg.kind, copy.deepcopy(msg.payload),
                                       dropped=drop_reason is not None,
                                       drop_reason=drop_reason))

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> list[TraceEntry]:
        """Captured entries of one protocol kind."""
        return [e for e in self.entries if e.kind == kind]

    def drops(self, reason: Optional[str] = None) -> list[TraceEntry]:
        """Captured drops, optionally filtered to one reason."""
        return [e for e in self.entries if e.dropped
                and (reason is None or e.drop_reason == reason)]

    def between(self, a: str, b: str) -> list[TraceEntry]:
        """Captured entries exchanged (either direction) between a and b."""
        return [e for e in self.entries
                if {e.src, e.dst} == {a, b}]

    def clear(self) -> None:
        """Drop everything captured so far."""
        self.entries.clear()

    def render(self, limit: Optional[int] = None) -> str:
        """The timeline as text, newest entries last."""
        entries = self.entries if limit is None else self.entries[-limit:]
        lines = []
        for entry in entries:
            dst = entry.dst if entry.dst is not None else "*"
            payload = {k: v for k, v in entry.payload.items() if k != "kind"}
            flag = f"  !DROP({entry.drop_reason})" if entry.dropped else ""
            lines.append(f"t={entry.time:9.3f}  {entry.src} -> {dst:<10} "
                         f"{entry.kind:<14} {payload}{flag}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)
