"""Causal operation tracing: reconstruct what happened to *one* operation.

Every logical Tiamat operation already mints an operation id (``a#17``)
that is stamped into every protocol frame it causes — QUERY, offers,
claim verdicts, CANCELs, and (because the reliability sublayer copies the
payload) every retransmission of any of them.  The :class:`Tracer`
exploits that: it reads the flight recorder's event stream
(:mod:`repro.obs.flight`) — frames sent, delivered and dropped, operation
start and end, lease refusals, serving verdicts, retransmits — and groups
it by op-id, so a single distributed ``in()`` can be reconstructed
end-to-end, *including* its drops, retransmit attempts, and lease
refusals.

Exports:

* :meth:`Tracer.span_tree` — the operation as a tree: the origin's root
  span with one child span per contacted peer, each holding its
  chronological event list;
* :meth:`Tracer.waterfall` — the tree rendered as a text waterfall for
  terminals and docs;
* :meth:`Tracer.timeline` — every delivered or dropped frame, one line
  each;
* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (one process per
  operation, one thread per instance) loadable in Perfetto / chrome://tracing.

The tracer is **opt-in and observationally passive**: it sees nothing
until it is installed (``sim.obs.start_trace()``), and recording consumes
no randomness and schedules no events, so traced and untraced runs of the
same seed are bit-identical.  Its one input is :meth:`Tracer.record`: the
recorder's tap under the simulator, and the real-thread runtime's nodes,
which call it with the same event codes on wall-clock time.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.flight import LINK_CODES, event_line, json_detail

__all__ = ["TraceEvent", "Tracer"]

#: Payload keys copied into a frame event's detail (small, JSON-able).
_DETAIL_KEYS = ("rseq", "repoch", "found", "entry_id", "op", "did", "rid",
                "ok", "deadline")


class _NullLock:
    """Free-of-charge stand-in for a Lock under single-threaded runtimes."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class TraceEvent:
    """One flight event on *node*, attributed to an operation (or none).

    The fields are a flight ring slot's plus the node: ``event`` is the
    flight code, ``peer`` the other end (a frame's, or the one a verdict
    concerns), and ``detail`` the ring's detail — for a frame, a dict of
    its payload fields, with a drop's ``reason``.
    """

    __slots__ = ("time", "event", "node", "op_id", "kind", "peer", "detail")

    def __init__(self, time: float, event: str, node: str,
                 op_id: Optional[str], kind: Optional[str] = None,
                 peer: Optional[str] = None, detail: Any = None) -> None:
        self.time = time
        self.event = event
        self.node = node
        self.op_id = op_id
        self.kind = kind
        self.peer = peer
        self.detail = detail

    def as_dict(self) -> dict:
        """Plain-dict form, a flight dump event plus ``node``."""
        out = {"t": self.time, "event": self.event, "node": self.node,
               "op_id": self.op_id}
        if self.kind is not None:
            out["kind"] = self.kind
        if self.peer is not None:
            out["peer"] = self.peer
        if self.detail is not None:
            out["detail"] = (dict(self.detail) if isinstance(self.detail, dict)
                             else json_detail(self.detail))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent t={self.time:.3f} {self.event} "
                f"op={self.op_id} {self.node}/{self.peer} {self.kind}>")


class Tracer:
    """Captures per-operation causal timelines across instances."""

    def __init__(self, max_events: int = 200_000,
                 thread_safe: bool = False) -> None:
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.truncated = 0
        self._by_op: dict[str, list[TraceEvent]] = {}
        # Under the threaded runtime many nodes record concurrently; the
        # sim runtime passes thread_safe=False and pays no locking cost.
        if thread_safe:
            import threading
            self._lock: Any = threading.Lock()
        else:
            self._lock = _NullLock()

    # ------------------------------------------------------------------
    # The one input
    # ------------------------------------------------------------------
    def record(self, node: str, t: float, code: str,
               op_id: Optional[str] = None, kind: Optional[str] = None,
               peer: Optional[str] = None, detail: Any = None,
               payload: Optional[dict] = None) -> None:
        """One flight event; a frame's also carries its *payload*."""
        if payload is not None:
            fields = {k: payload[k] for k in _DETAIL_KEYS if k in payload}
            if detail is not None:
                fields["reason"] = detail
            detail = fields
        event = TraceEvent(t, code, node, op_id, kind, peer, detail)
        with self._lock:
            if len(self.events) >= self.max_events:
                self.truncated += 1
                return
            self.events.append(event)
            if op_id is not None:
                self._by_op.setdefault(op_id, []).append(event)

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
            for name in (event.node, event.peer):
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
        start = next((e for e in events if e.event == "op_start"), None)
        if start is not None:
            origin = start.node
        else:
            origin = next((e.node for e in events
                           if e.event in ("send", "retransmit")),
                          events[0].node)
        end_event = next((e for e in events if e.event == "op_end"), None)
        outcome = None
        if end_event is not None:
            outcome = "satisfied" if end_event.detail == "ok" else "unsatisfied"
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
            "kind": start.kind if start is not None else None,
            "start": events[0].time,
            "end": events[-1].time,
            "outcome": outcome,
            "source": end_event.peer if end_event else None,
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
        if event.node != origin:
            return event.node
        if event.event in LINK_CODES:
            return event.peer
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
            lines.append("│ " + event_line(event))
        peers = tree["peers"]
        for i, span in enumerate(peers):
            last = i == len(peers) - 1
            branch = "└─" if last else "├─"
            lines.append(f"{branch} peer {span['peer']} "
                         f"(t={span['start']:.3f}..{span['end']:.3f})")
            pad = "   " if last else "│  "
            for event in span["events"]:
                lines.append(pad + event_line(event))
        return "\n".join(lines)

    def timeline(self) -> str:
        """Every delivered or dropped frame, one line each, in order."""
        return "\n".join(event_line(e.as_dict()) for e in self.events
                         if e.event in ("deliver", "drop"))

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
