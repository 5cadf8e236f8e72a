"""Always-on flight recorder: fixed-size per-node ring buffers.

Every node keeps a small "black box" of its most recent protocol
activity — frames sent/delivered/dropped, operation lifecycle, each
tuple's life (deposit, hold, take or expiry), lease grants and ends,
admission verdicts, reliability retransmits and dispatches.  Recording is
passive by construction: an append is index arithmetic plus six field
stores into preallocated slots, never allocates, never touches the
simulator's RNG, and never schedules events, so a seeded run is the same
whatever is recorded.

The recorder is the simulation's one event stream.  Every ring append
and every frame event is also handed to the recorder's ``tap``, which
calls each installed reader in turn (:meth:`FlightRecorder.add_reader`):
the :class:`~repro.obs.tracing.Tracer` while a trace runs
(:meth:`repro.obs.hub.Observability.start_trace`), and the model
checker's :class:`~repro.check.oracles.InvariantMonitor`.  A frame
arrives there with its payload, so a waterfall shows its reliability
sequence number, offer verdict and entry id.

A detail is kept small and flat — an int, a string, a short Python
tuple of them, or a :class:`~repro.tuples.model.Tuple` — so a slot
keeps nothing else alive until it is overwritten; dumps write a
``Tuple`` in its JSON form (:func:`~repro.tuples.serialization.encode_tuple`).

The rings pay for themselves when something goes wrong: a dump is
taken when :class:`repro.check.oracles.InvariantMonitor` records a
violation, when :meth:`TiamatInstance.recover_from` runs after a
crash, or on demand (``repro flight dump``).  Dumps are plain JSON and
``repro flight show`` renders them with :func:`event_line`, the line
renderer the tracer's waterfall uses too.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.tuples.model import Tuple
from repro.tuples.serialization import decode_tuple, encode_tuple

__all__ = [
    "FLIGHT_DUMP_VERSION",
    "FlightRecorder",
    "FlightRing",
    "dump_to_env_dir",
    "event_line",
    "load_flight_dump",
    "render_flight",
]

FLIGHT_DUMP_VERSION = 1

#: Default slots per node ring.  Must comfortably exceed the 64-event
#: post-mortem window the acceptance criteria call for.
DEFAULT_CAPACITY = 512

# Event codes recorded in the rings.  Kept as short strings (interned
# literals at every call site) so appends store references, not copies.
#   send / deliver / drop  — logical frame lifecycle (network layer)
#   op_start / op_end      — operation lifecycle (ops layer)
#   deposit / hold         — a tuple enters a space / is held for a claim
#   take / expired / reconciled / migrated — a tuple leaves a space
#   lease_grant / lease_end — a lease manager's grants and ends
#   lease_refused / shed / refuse — admission & serving verdicts
#   serve_started / stale_dropped / claim_timeout / put_back — serving
#   retransmit / rexpire   — reliable-channel retries and give-ups
#   dispatch               — a fresh reliable frame reaches the handlers
#   claim / release / decide — the agents' blackboard (repro.apps.agents)
#   slo_breach             — SLO burn-rate breach (repro.obs.slo)
#   recover / note         — recovery bookmarks and free-form marks

_GLYPHS = {
    "send": "→",
    "deliver": "✓",
    "drop": "✗",
    "retransmit": "↻",
    "rexpire": "✕",
    "op_start": "▶",
    "op_end": "■",
    "deposit": "+",
    "hold": "⏸",
    "take": "−",
    "expired": "−",
    "reconciled": "−",
    "migrated": "−",
    "lease_grant": "◆",
    "lease_end": "◇",
    "dispatch": "⇒",
    "claim": "★",
    "release": "☆",
    "decide": "★",
    "lease_refused": "§",
    "shed": "§",
    "refuse": "§",
    "serve_started": "§",
    "stale_dropped": "§",
    "claim_timeout": "§",
    "put_back": "§",
    "slo_breach": "⚠",
    "recover": "⚙",
    "note": "·",
}

#: What a detail means, by code (the renderer's label for it); a tuple
#: of labels names the fields of a Python-tuple detail.
_DETAIL_LABELS = {
    "op_start": "lease_expires",
    "op_end": "outcome",
    "drop": "reason",
    "shed": "reason",
    "refuse": "reason",
    "retransmit": "rseq",
    "rexpire": "rseq",
    "put_back": "entry_id",
    "deposit": "tuple",
    "hold": "tuple",
    "take": "tuple",
    "expired": "tuple",
    "reconciled": "tuple",
    "migrated": "tuple",
    "lease_grant": ("manager", "lease", "active"),
    "lease_end": ("manager", "lease", "active"),
    "dispatch": ("repoch", "rseq", "rinc"),
    "claim": ("task", "expires_at"),
    "release": "task",
    "decide": ("question", "choice"),
}

#: Codes whose ``peer`` is the other end of a frame, not a bystander.
LINK_CODES = frozenset(("send", "deliver", "drop", "retransmit", "rexpire"))


class FlightRing:
    """Fixed-capacity ring of flight events for one node.

    Slots are six parallel preallocated lists mutated in place (reference
    stores only); the append hot path is bounds-free index math plus six
    field stores — no allocation, ever.  (A single flat buffer with
    ``i * 6`` offset arithmetic measures *slower* on modern CPython,
    whose adaptive interpreter specializes the repeated attribute loads.)
    """

    __slots__ = ("node", "capacity", "recorded", "tap", "_next",
                 "_t", "_code", "_op", "_kind", "_peer", "_detail")

    def __init__(self, node: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 64:
            raise ValueError("flight ring capacity must be >= 64")
        self.node = node
        self.capacity = capacity
        self.recorded = 0          # total appends ever (>= live slots)
        self.tap: Optional[Callable[..., None]] = None   # the tracer's input
        self._next = 0             # next slot to overwrite
        self._t: List[float] = [0.0] * capacity
        self._code: List[str] = [""] * capacity
        self._op: List[Optional[str]] = [None] * capacity
        self._kind: List[Optional[str]] = [None] * capacity
        self._peer: List[Optional[str]] = [None] * capacity
        self._detail: List[Any] = [None] * capacity

    def append(self, t: float, code: str, op_id: Optional[str] = None,
               kind: Optional[str] = None, peer: Optional[str] = None,
               detail: Any = None) -> None:
        """Record one event, and hand it to the tap while a trace runs.

        The stores repeat :meth:`put`'s rather than call it: a call costs
        about 55 ns, a quarter of the append.
        """
        i = self._next
        self._t[i] = t
        self._code[i] = code
        self._op[i] = op_id
        self._kind[i] = kind
        self._peer[i] = peer
        self._detail[i] = detail
        i += 1
        self._next = 0 if i == self.capacity else i
        self.recorded += 1
        if self.tap is not None:
            self.tap(self.node, t, code, op_id, kind, peer, detail)

    def put(self, t: float, code: str, op_id: Optional[str],
            kind: Optional[str], peer: Optional[str], detail: Any) -> None:
        """Store one event without tapping it (frames tap with payload)."""
        i = self._next
        self._t[i] = t
        self._code[i] = code
        self._op[i] = op_id
        self._kind[i] = kind
        self._peer[i] = peer
        self._detail[i] = detail
        i += 1
        self._next = 0 if i == self.capacity else i
        self.recorded += 1

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    def events(self) -> List[Dict[str, Any]]:
        """Live events, oldest first, as JSON-ready dicts."""
        n = len(self)
        if n < self.capacity:
            order = range(n)
        else:  # wrapped: oldest slot is the one about to be overwritten
            start = self._next
            order = [(start + j) % self.capacity for j in range(n)]
        return [self._event(i) for i in order]

    def op_events(self, op_id: str, since: float,
                  limit: int) -> List[Dict[str, Any]]:
        """The last *limit* events of one operation, oldest first.

        Walks newest → oldest over the ``_op`` column, builds a dict only
        for a matching slot, and stops at the first event recorded before
        *since* (the operation's start: nothing of it can be older), so
        the cost follows the operation's length, not the ring's.
        """
        out: List[Dict[str, Any]] = []
        i = self._next
        for _ in range(len(self)):
            i = (i or self.capacity) - 1
            if self._t[i] < since or len(out) == limit:
                break
            if self._op[i] == op_id:
                out.append(self._event(i))
        out.reverse()
        return out

    def _event(self, i: int) -> Dict[str, Any]:
        event: Dict[str, Any] = {"t": self._t[i], "event": self._code[i]}
        if self._op[i] is not None:
            event["op_id"] = self._op[i]
        if self._kind[i] is not None:
            event["kind"] = self._kind[i]
        if self._peer[i] is not None:
            event["peer"] = self._peer[i]
        if self._detail[i] is not None:
            event["detail"] = json_detail(self._detail[i])
        return event


def json_detail(detail: Any) -> Any:
    """A detail as dumps and exports write it: a ``Tuple`` in JSON form."""
    return encode_tuple(detail) if isinstance(detail, Tuple) else detail


class FlightRecorder:
    """Per-node flight rings plus dump/restore plumbing.

    One recorder lives on each :class:`~repro.obs.hub.Observability`
    hub; instances and the network fetch their ring once at
    construction and append directly to it afterwards.  ``tap`` hands
    each event to every installed reader (``None`` with none), and
    reaches every ring.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.rings: Dict[str, FlightRing] = {}
        self.dumps_taken = 0
        self._readers: List[Callable[..., None]] = []
        self._tap: Optional[Callable[..., None]] = None

    @property
    def tap(self) -> Optional[Callable[..., None]]:
        return self._tap

    def add_reader(self, reader: Callable[..., None]) -> None:
        """Hand every later event to *reader*, after the readers before it.

        A reader is called as ``reader(node, t, code, op_id, kind, peer,
        detail)``, with the frame's payload as an eighth argument for a
        frame event.
        """
        self._readers.append(reader)
        self._retap()

    def remove_reader(self, reader: Callable[..., None]) -> None:
        """Stop handing events to *reader* (a no-op if it is not installed)."""
        if reader in self._readers:
            self._readers.remove(reader)
            self._retap()

    def _retap(self) -> None:
        readers = tuple(self._readers)
        if len(readers) > 1:
            def tap(*event: Any) -> None:
                for reader in readers:
                    reader(*event)
        else:
            tap = readers[0] if readers else None
        self._tap = tap
        for ring in self.rings.values():
            ring.tap = tap

    def ring(self, node: str) -> FlightRing:
        """The (created-on-first-use) ring for *node*."""
        ring = self.rings.get(node)
        if ring is None:
            ring = self.rings[node] = FlightRing(node)
            ring.tap = self._tap
        return ring

    # -- network fast path -------------------------------------------------
    def frame(self, phase: str, message: Any, reason: Any = None) -> None:
        """Record one logical frame event (``send``/``deliver``/``drop``).

        Sends and drops land on the source ring, deliveries on the
        destination ring, mirroring how an operator reasons about each
        node's black box.  The tap also gets the frame's payload.
        """
        if phase == "deliver":
            node, peer = message.dst, message.src
        else:
            node, peer = message.src, message.dst
        ring = self.rings.get(node)
        if ring is None:
            ring = self.ring(node)
        payload, kind = message.payload, message.kind
        op_id = payload.get("op_id")
        t = self.clock()
        ring.put(t, phase, op_id, kind, peer, reason)
        if self._tap is not None:
            self._tap(node, t, phase, op_id, kind, peer, reason, payload)

    # -- dumps -------------------------------------------------------------
    def dump(self, reason: str, detail: Any = None) -> Dict[str, Any]:
        """Snapshot every ring into a replayable JSON-ready black box."""
        self.dumps_taken += 1
        nodes = {}
        for name in sorted(self.rings):
            ring = self.rings[name]
            nodes[name] = {
                "capacity": ring.capacity,
                "recorded": ring.recorded,
                "events": ring.events(),
            }
        return {
            "version": FLIGHT_DUMP_VERSION,
            "reason": reason,
            "time": self.clock(),
            "detail": detail,
            "nodes": nodes,
        }

    def dump_to(self, path: str, reason: str, detail: Any = None) -> str:
        """Write a dump as JSON to *path* and return the path."""
        box = self.dump(reason, detail=detail)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(box, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def dump_to_env_dir(recorder: FlightRecorder, reason: str,
                    detail: Any = None) -> Optional[str]:
    """Write a dump into ``$REPRO_FLIGHT_DIR`` when that is set.

    The shared trigger path for invariant violations and post-crash
    recovery: quietly a no-op when the env var is absent or the
    directory cannot be written (post-mortem capture must never take the
    run down with it).
    """
    directory = os.environ.get("REPRO_FLIGHT_DIR", "")
    if not directory:
        return None
    slug = "".join(c if c.isalnum() else "-" for c in reason).strip("-")
    name = f"flight-{slug or 'dump'}-{recorder.dumps_taken}.json"
    try:
        os.makedirs(directory, exist_ok=True)
        return recorder.dump_to(os.path.join(directory, name), reason,
                                detail=detail)
    except OSError:
        return None


def load_flight_dump(path: str) -> Dict[str, Any]:
    """Load and minimally validate a flight dump written by ``dump_to``."""
    with open(path, "r", encoding="utf-8") as fh:
        box = json.load(fh)
    if not isinstance(box, dict) or "nodes" not in box:
        raise ValueError(f"{path}: not a flight dump (no 'nodes' section)")
    version = box.get("version")
    if version != FLIGHT_DUMP_VERSION:
        raise ValueError(f"{path}: unsupported flight dump version "
                         f"{version!r}")
    return box


def event_line(event: Dict[str, Any], node: Optional[str] = None) -> str:
    """One event as a line: time, glyph, code, kind, link, op id, detail.

    *event* is a dump event or :meth:`TraceEvent.as_dict
    <repro.obs.tracing.TraceEvent.as_dict>`; *node* (default: the
    event's own ``node``) turns a frame's peer into ``src→dst``.  A
    dict detail renders as ``key=value`` pairs, anything else in
    brackets.
    """
    code = event["event"]
    node = node if node is not None else event.get("node")
    parts = [f"t={event['t']:.6f}", _GLYPHS.get(code, "·"), code]
    if event.get("kind"):
        parts.append(str(event["kind"]))
    peer = event.get("peer")
    if peer is not None:
        if node is None or code not in LINK_CODES:
            parts.append(f"peer={peer}")
        elif code == "deliver":
            parts.append(f"{peer}→{node}")
        else:
            parts.append(f"{node}→{peer}")
    if event.get("op_id"):
        parts.append(f"op_id={event['op_id']}")
    detail = event.get("detail")
    label = _DETAIL_LABELS.get(code)
    if isinstance(detail, dict):
        parts.extend(f"{k}={v}" for k, v in detail.items()
                     if k != "repoch" and v is not None)
    elif detail is None:
        pass
    elif label == "tuple":
        parts.append(f"tuple={decode_tuple(detail)!r}")
    elif isinstance(label, tuple):
        parts.extend(f"{k}={v}" for k, v in zip(label, detail))
    elif label is not None:
        parts.append(f"{label}={detail}")
    else:
        parts.append(f"[{detail}]")
    return " ".join(parts)


def render_flight(box: Dict[str, Any], op_id: Optional[str] = None,
                  last: Optional[int] = None) -> str:
    """Render a dump as a text waterfall.

    With *op_id*, events from every node are merged into a single
    time-ordered lane for that operation; otherwise each node's ring is
    rendered as its own section.  *last* caps the events shown per
    section (post-mortems usually only need the tail); 0 shows none.
    """
    if last is not None and last < 0:
        raise ValueError(f"last must be >= 0, not {last}")

    def tail(events: List[Any]) -> List[Any]:
        return events if last is None else events[max(len(events) - last, 0):]

    lines = [f"flight dump — reason: {box.get('reason', '?')} "
             f"@ t={box.get('time', 0.0):.6f}"]
    detail = box.get("detail")
    if detail is not None:
        lines.append(f"  detail: {json.dumps(detail, sort_keys=True, default=str)}")
    nodes = box.get("nodes", {})
    if op_id is not None:
        merged = []
        for name in sorted(nodes):
            for event in nodes[name]["events"]:
                if event.get("op_id") == op_id:
                    merged.append((event["t"], name, event))
        merged.sort(key=lambda item: item[0])
        merged = tail(merged)
        lines.append(f"op {op_id} ({len(merged)} events)")
        for _, name, event in merged:
            lines.append(f"  {name:<12s} {event_line(event, name)}")
        return "\n".join(lines)
    for name in sorted(nodes):
        ring = nodes[name]
        events = ring["events"]
        lines.append(f"node {name} — {len(events)} of {ring['recorded']} "
                     f"recorded (capacity {ring['capacity']})")
        for event in tail(events):
            lines.append(f"  {event_line(event, name)}")
    return "\n".join(lines)
