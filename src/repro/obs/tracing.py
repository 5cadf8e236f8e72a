"""Causal operation tracing: reconstruct what happened to *one* operation.

Every logical Tiamat operation already mints an operation id (``a#17``)
that is stamped into every protocol frame it causes — QUERY, offers,
claim verdicts, CANCELs, and (because the reliability sublayer copies the
payload) every retransmission of any of them.  The :class:`Tracer` exploits
that: it taps one or more networks' frame hooks (send, deliver, drop) and
accepts local annotations from the instance layer (operation start/finish,
lease grants and refusals, serving-side decisions), then groups everything
by op-id so a single distributed ``in()`` can be reconstructed end-to-end,
*including* its drops, retransmit attempts, and lease refusals.

Exports:

* :meth:`Tracer.span_tree` — the operation as a tree: the origin's root
  span with one child span per contacted peer, each holding its
  chronological event list;
* :meth:`Tracer.waterfall` — the tree rendered as a text waterfall for
  terminals and docs;
* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (one process per
  operation, one thread per instance) loadable in Perfetto / chrome://tracing.

The tracer is **opt-in and observationally passive**: nothing in the stack
records anything until a tracer is installed (``sim.obs.start_trace``),
and recording consumes no randomness and schedules no events, so traced
and untraced runs of the same seed are bit-identical.

Clocks are injected: virtual time under the simulation kernel, wall time
under the real-thread runtime.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

__all__ = ["TraceEvent", "Tracer"]

#: Payload keys copied into a frame event's detail (small, JSON-able).
_DETAIL_KEYS = ("rseq", "repoch", "found", "entry_id", "op", "did", "rid",
                "ok", "deadline")

#: Render order weight so local annotations sort stably among frames.
_EVENT_GLYPH = {
    "op_start": "▶",
    "op_end": "■",
    "lease": "§",
    "serve": "§",
    "note": "·",
    "send": "→",
    "retransmit": "↻",
    "deliver": "✓",
    "drop": "✗",
}


class _NullLock:
    """Free-of-charge stand-in for a Lock under single-threaded runtimes."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class TraceEvent:
    """One recorded occurrence attributed to an operation (or orphaned)."""

    __slots__ = ("time", "event", "node", "src", "dst", "kind", "op_id",
                 "detail", "drop_reason")

    def __init__(self, time: float, event: str, node: Optional[str],
                 op_id: Optional[str], src: Optional[str] = None,
                 dst: Optional[str] = None, kind: Optional[str] = None,
                 detail: Optional[dict] = None,
                 drop_reason: Optional[str] = None) -> None:
        self.time = time
        self.event = event
        self.node = node
        self.op_id = op_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.detail = detail if detail is not None else {}
        self.drop_reason = drop_reason

    def as_dict(self) -> dict:
        """Plain-dict form (for JSON export and the span tree)."""
        out = {"t": self.time, "event": self.event, "node": self.node,
               "op_id": self.op_id}
        if self.src is not None:
            out["src"] = self.src
        if self.dst is not None:
            out["dst"] = self.dst
        if self.kind is not None:
            out["kind"] = self.kind
        if self.drop_reason is not None:
            out["drop_reason"] = self.drop_reason
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent t={self.time:.3f} {self.event} "
                f"op={self.op_id} {self.src}->{self.dst} {self.kind}>")


class Tracer:
    """Captures per-operation causal timelines across instances."""

    def __init__(self, clock: Callable[[], float],
                 max_events: int = 200_000,
                 thread_safe: bool = False) -> None:
        self.clock = clock
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.truncated = 0
        self._by_op: dict[str, list[TraceEvent]] = {}
        self._unsubscribers: list[Callable[[], None]] = []
        self._reliable_seen: set[tuple] = set()
        # Under the threaded runtime many nodes record concurrently; the
        # sim runtime passes thread_safe=False and pays no locking cost.
        if thread_safe:
            import threading
            self._lock: Any = threading.Lock()
        else:
            self._lock = _NullLock()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, network) -> "Tracer":
        """Tap a network's frame hooks (send/deliver + drops)."""
        self._unsubscribers.append(network.on_frame(self._on_frame))
        self._unsubscribers.append(network.on_drop(self._on_drop))
        return self

    def detach(self) -> None:
        """Stop capturing from every attached network (events retained)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    # ------------------------------------------------------------------
    # Recording (instance layer + network hooks)
    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self.events) >= self.max_events:
                self.truncated += 1
                return
            self.events.append(event)
            if event.op_id is not None:
                self._by_op.setdefault(event.op_id, []).append(event)

    def op_started(self, op_id: str, node: str, kind: str,
                   **detail: Any) -> None:
        """The origin instance started a logical operation."""
        self._record(TraceEvent(self.clock(), "op_start", node, op_id,
                                kind=kind, detail=detail))

    def op_finished(self, op_id: str, node: str, satisfied: bool,
                    source: Optional[str]) -> None:
        """The origin operation finalized (matched, expired, or cancelled)."""
        self._record(TraceEvent(self.clock(), "op_end", node, op_id,
                                detail={"satisfied": satisfied,
                                        "source": source}))

    def lease_event(self, op_id: Optional[str], node: str, outcome: str,
                    **detail: Any) -> None:
        """A lease negotiation outcome attributable to an operation."""
        detail["outcome"] = outcome
        self._record(TraceEvent(self.clock(), "lease", node, op_id,
                                detail=detail))

    def note(self, op_id: Optional[str], node: str, label: str,
             **detail: Any) -> None:
        """A free-form local annotation (serving decisions, timeouts...)."""
        detail["label"] = label
        self._record(TraceEvent(self.clock(), "note", node, op_id,
                                detail=detail))

    def _on_frame(self, phase: str, message) -> None:
        payload = message.payload
        op_id = payload.get("op_id")
        detail = {k: payload[k] for k in _DETAIL_KEYS if k in payload}
        event = phase
        if phase == "send":
            rseq = payload.get("rseq")
            if rseq is not None:
                key = (message.src, message.dst, payload.get("kind"),
                       rseq, payload.get("repoch"))
                if key in self._reliable_seen:
                    event = "retransmit"
                else:
                    self._reliable_seen.add(key)
        node = message.src if event in ("send", "retransmit") else message.dst
        self._record(TraceEvent(self.clock(), event, node, op_id,
                                src=message.src, dst=message.dst,
                                kind=message.kind, detail=detail))

    def _on_drop(self, message, reason: str) -> None:
        payload = message.payload
        detail = {k: payload[k] for k in _DETAIL_KEYS if k in payload}
        self._record(TraceEvent(self.clock(), "drop", message.src,
                                payload.get("op_id"), src=message.src,
                                dst=message.dst, kind=message.kind,
                                detail=detail, drop_reason=reason))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def op_ids(self) -> list[str]:
        """Every operation id seen, in first-seen order."""
        return list(self._by_op)

    def events_for(self, op_id: str) -> list[TraceEvent]:
        """All events attributed to one operation, chronological."""
        return list(self._by_op.get(op_id, []))

    def instances_for(self, op_id: str) -> list[str]:
        """Every instance that appears in one operation's trace."""
        seen: dict[str, None] = {}
        for event in self._by_op.get(op_id, []):
            for name in (event.node, event.src, event.dst):
                if name is not None:
                    seen.setdefault(name, None)
        return list(seen)

    def retransmits_for(self, op_id: str) -> list[TraceEvent]:
        """Retransmission attempts recorded for one operation."""
        return [e for e in self._by_op.get(op_id, [])
                if e.event == "retransmit"]

    def drops_for(self, op_id: str) -> list[TraceEvent]:
        """Dropped frames recorded for one operation."""
        return [e for e in self._by_op.get(op_id, []) if e.event == "drop"]

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Span-tree reconstruction
    # ------------------------------------------------------------------
    def span_tree(self, op_id: str) -> dict:
        """One operation as a tree: root span + one child span per peer.

        Returns a plain JSON-able dict::

            {"op_id", "origin", "kind", "start", "end", "outcome",
             "events": [...root-local events...],
             "peers": [{"peer", "start", "end", "events": [...]}, ...]}
        """
        events = self._by_op.get(op_id, [])
        if not events:
            raise KeyError(f"no trace recorded for op {op_id!r}")
        origin = next((e.node for e in events if e.event == "op_start"), None)
        if origin is None:
            origin = next((e.src for e in events
                           if e.event in ("send", "retransmit")), events[0].node)
        kind = next((e.kind for e in events if e.event == "op_start"), None)
        end_event = next((e for e in events if e.event == "op_end"), None)
        outcome = None
        if end_event is not None:
            outcome = ("satisfied" if end_event.detail.get("satisfied")
                       else "unsatisfied")
        root_events: list[TraceEvent] = []
        peers: dict[str, list[TraceEvent]] = {}
        for event in events:
            peer = self._peer_of(event, origin)
            if peer is None:
                root_events.append(event)
            else:
                peers.setdefault(peer, []).append(event)
        return {
            "op_id": op_id,
            "origin": origin,
            "kind": kind,
            "start": events[0].time,
            "end": events[-1].time,
            "outcome": outcome,
            "source": end_event.detail.get("source") if end_event else None,
            "events": [e.as_dict() for e in root_events],
            "peers": [
                {"peer": peer,
                 "start": evts[0].time,
                 "end": evts[-1].time,
                 "events": [e.as_dict() for e in evts]}
                for peer, evts in peers.items()
            ],
        }

    @staticmethod
    def _peer_of(event: TraceEvent, origin: str) -> Optional[str]:
        """Which peer span an event belongs to (None = the root span)."""
        if event.src is not None and event.dst is not None:
            if event.src == origin:
                return event.dst
            return event.src
        if event.node is not None and event.node != origin:
            return event.node
        return None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def waterfall(self, op_id: str) -> str:
        """The operation's span tree as a text waterfall."""
        tree = self.span_tree(op_id)
        header = (f"op {tree['op_id']}"
                  + (f" [{tree['kind']}]" if tree["kind"] else "")
                  + f" origin={tree['origin']}"
                  + f" t={tree['start']:.3f}..{tree['end']:.3f}")
        if tree["outcome"] is not None:
            header += f" {tree['outcome']}"
            if tree["source"]:
                header += f" (from {tree['source']})"
        lines = [header]
        for event in tree["events"]:
            lines.append("│ " + self._line(event))
        peers = tree["peers"]
        for i, span in enumerate(peers):
            last = i == len(peers) - 1
            branch = "└─" if last else "├─"
            lines.append(f"{branch} peer {span['peer']} "
                         f"(t={span['start']:.3f}..{span['end']:.3f})")
            pad = "   " if last else "│  "
            for event in span["events"]:
                lines.append(pad + self._line(event))
        return "\n".join(lines)

    @staticmethod
    def _line(event: dict) -> str:
        glyph = _EVENT_GLYPH.get(event["event"], "·")
        bits = [f"t={event['t']:8.3f}", glyph, event["event"]]
        if event.get("kind"):
            bits.append(event["kind"])
        if event.get("src") is not None and event.get("dst") is not None:
            bits.append(f"{event['src']}→{event['dst']}")
        if event.get("drop_reason"):
            bits.append(f"!{event['drop_reason']}")
        detail = event.get("detail") or {}
        rendered = " ".join(f"{k}={v}" for k, v in detail.items()
                            if k not in ("repoch",) and v is not None)
        if rendered:
            bits.append(rendered)
        return " ".join(bits)

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def chrome_trace(self, op_id: Optional[str] = None) -> str:
        """Chrome trace-event JSON (Perfetto-loadable) for one op or all.

        One *process* per operation, one *thread* per instance; spans are
        complete (``X``) events, individual frame/local events are
        instants (``i``).  Timestamps are microseconds.
        """
        op_ids = [op_id] if op_id is not None else self.op_ids()
        trace_events: list[dict] = []
        for pid, oid in enumerate(op_ids, start=1):
            tree = self.span_tree(oid)
            tids: dict[str, int] = {}

            def tid_of(name: Optional[str]) -> int:
                label = name if name is not None else "?"
                if label not in tids:
                    tids[label] = len(tids) + 1
                return tids[label]

            us = 1e6
            trace_events.append({
                "name": (f"{tree['kind'] or 'op'} {oid}"
                         + (f" [{tree['outcome']}]" if tree["outcome"] else "")),
                "ph": "X", "pid": pid, "tid": tid_of(tree["origin"]),
                "ts": tree["start"] * us,
                "dur": max(tree["end"] - tree["start"], 0.0) * us,
                "args": {"op_id": oid, "outcome": tree["outcome"],
                         "source": tree["source"]},
            })
            spans = [(tree["origin"], tree["events"])]
            for peer_span in tree["peers"]:
                trace_events.append({
                    "name": f"peer {peer_span['peer']}",
                    "ph": "X", "pid": pid, "tid": tid_of(peer_span["peer"]),
                    "ts": peer_span["start"] * us,
                    "dur": max(peer_span["end"] - peer_span["start"], 0.0) * us,
                    "args": {"op_id": oid},
                })
                spans.append((peer_span["peer"], peer_span["events"]))
            for owner, events in spans:
                for event in events:
                    name = event["event"]
                    if event.get("kind"):
                        name += f" {event['kind']}"
                    if event.get("drop_reason"):
                        name += f" ({event['drop_reason']})"
                    args = {k: v for k, v in event.items() if k != "t"}
                    trace_events.append({
                        "name": name, "ph": "i", "s": "t",
                        "pid": pid, "tid": tid_of(event.get("node") or owner),
                        "ts": event["t"] * us, "args": args,
                    })
            trace_events.append({"name": "process_name", "ph": "M",
                                 "pid": pid, "tid": 0,
                                 "args": {"name": f"op {oid}"}})
            for name, tid in tids.items():
                trace_events.append({"name": "thread_name", "ph": "M",
                                     "pid": pid, "tid": tid,
                                     "args": {"name": name}})
        return json.dumps({"traceEvents": trace_events,
                           "displayTimeUnit": "ms"})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer events={len(self.events)} "
                f"ops={len(self._by_op)}>")
