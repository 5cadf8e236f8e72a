"""PeerSpaces protocol model: flooding search over per-node spaces.

Section 4.6: "Each JXTA node contains a tuple space and reading operations
are sent out in a flooding broadcast to other nodes in the network in order
to find matches.  While PeerSpaces does include the concept of leasing
while searching the network, it is included only to ensure fault-tolerance.
... PeerSpaces makes no other attempts to provide any resource management
features."

Model:

* ``out`` deposits locally, with **no expiry ever** (the missing resource
  management the T4/T5 benches measure);
* read operations flood a query to all visible neighbours with a TTL;
  receivers answer from their local space and re-forward; duplicate
  queries are suppressed by id;
* replies travel back along the reverse path;
* the *search lease* is a plain timeout that ends the search — pure
  fault-tolerance, exactly as the paper characterises it;
* destructive reads use the same hold/accept discipline as Tiamat so the
  comparison measures flooding cost, not correctness differences.
"""

from __future__ import annotations

from repro.baselines.base import SimpleOp, SpaceNode
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import (
    decode_pattern,
    decode_tuple,
    encode_pattern,
    encode_tuple,
)

_QUERY = "ps_query"
_REPLY = "ps_reply"
_ACCEPT = "ps_accept"
_REJECT = "ps_reject"


class PeerNode(SpaceNode):
    """One peer: a local space plus flooding search."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 default_ttl: int = 4, claim_timeout: float = 2.0) -> None:
        self.sim = sim
        self._query_ids = sim.ids("peers_query")
        self.name = name
        self.default_ttl = default_ttl
        self.claim_timeout = claim_timeout
        self.space = LocalTupleSpace(sim, name=name)
        self.iface = network.attach(name, self._on_message)
        self._pending: dict[int, SimpleOp] = {}
        self._seen_queries: set[int] = set()
        self._held: dict[int, int] = {}  # query_id -> held entry_id
        self.queries_forwarded = 0

    # ------------------------------------------------------------------
    def out(self, tup: Tuple) -> None:
        """Deposit locally; PeerSpaces tuples never expire."""
        self.space.out(tup)

    def rdp(self, pattern: Pattern) -> SimpleOp:
        return self._search(pattern, remove=False, search_lease=2.0)

    def inp(self, pattern: Pattern) -> SimpleOp:
        return self._search(pattern, remove=True, search_lease=2.0)

    def rd(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._search(pattern, remove=False, search_lease=timeout,
                            repeat=True)

    def in_(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._search(pattern, remove=True, search_lease=timeout,
                            repeat=True)

    def stored_tuples(self) -> int:
        return self.space.count()

    # ------------------------------------------------------------------
    # Search engine
    # ------------------------------------------------------------------
    def _search(self, pattern: Pattern, remove: bool, search_lease: float,
                repeat: bool = False) -> SimpleOp:
        handle = SimpleOp(self.sim)
        local = self.space.inp(pattern) if remove else self.space.rdp(pattern)
        if local is not None:
            handle.finalize(local)
            return handle
        query_id = next(self._query_ids)
        self._pending[query_id] = handle
        handle._ps_remove = remove
        self._flood(query_id, pattern, remove, self.default_ttl, exclude=None)
        if repeat:
            # Blocking semantics approximated by periodic re-flooding until
            # the search lease runs out (JXTA-style pull).
            self.sim.spawn(self._reflood_loop(query_id, pattern, remove,
                                              search_lease))
        self.sim.schedule(search_lease, self._search_expired, query_id)
        return handle

    def _reflood_loop(self, query_id: int, pattern: Pattern, remove: bool,
                      search_lease: float):
        deadline = self.sim.now + search_lease
        interval = 1.0
        handle = self._pending.get(query_id)
        while self.sim.now + interval < deadline:
            yield self.sim.timeout(interval)
            if handle is None or handle.done:
                return
            local = self.space.inp(pattern) if remove else self.space.rdp(pattern)
            if local is not None:
                self._pending.pop(query_id, None)
                handle.finalize(local)
                return
            # Each round is a fresh search (receivers de-duplicate by id, so
            # re-using the old id would make later rounds no-ops).
            query_id = next(self._query_ids)
            self._pending[query_id] = handle
            self._flood(query_id, pattern, remove, self.default_ttl, exclude=None)

    def _flood(self, query_id: int, pattern: Pattern, remove: bool, ttl: int,
               exclude) -> None:
        payload = {"kind": _QUERY, "query_id": query_id, "origin": self.name,
                   "pattern": encode_pattern(pattern), "remove": remove,
                   "ttl": ttl, "path": [self.name]}
        for neighbor in self.iface.neighbors():
            if neighbor != exclude:
                self.iface.unicast(neighbor, payload)

    def _search_expired(self, query_id: int) -> None:
        handle = self._pending.pop(query_id, None)
        if handle is not None and not handle.done:
            handle.finalize(None, error="search lease expired")
        # Purge entries for searches that finished under a different id.
        for stale in [k for k, v in self._pending.items() if v.done]:
            del self._pending[stale]

    # ------------------------------------------------------------------
    # Protocol handling
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if msg.kind == _QUERY:
            self._on_query(msg.src, msg.payload)
        elif msg.kind == _REPLY:
            self._on_reply(msg.payload)
        elif msg.kind == _ACCEPT:
            self._on_accept(msg.payload)
        elif msg.kind == _REJECT:
            self._on_reject(msg.payload)

    def _on_query(self, sender: str, payload: dict) -> None:
        query_id = payload["query_id"]
        if query_id in self._seen_queries or payload["origin"] == self.name:
            return
        self._seen_queries.add(query_id)
        pattern = decode_pattern(payload["pattern"])
        path = payload["path"]
        if payload["remove"]:
            entry = self.space.hold_match(pattern)
            if entry is not None:
                self._held[query_id] = entry.entry_id
                self._send_reply(path, query_id, entry.tuple, self.name)
                self.sim.schedule(self.claim_timeout, self._claim_expired,
                                  query_id)
                return
        else:
            tup = self.space.rdp(pattern)
            if tup is not None:
                self._send_reply(path, query_id, tup, self.name)
                return
        ttl = payload["ttl"] - 1
        if ttl <= 0:
            return
        forward = dict(payload, ttl=ttl, path=path + [self.name])
        self.queries_forwarded += 1
        for neighbor in self.iface.neighbors():
            if neighbor not in path:
                self.iface.unicast(neighbor, forward)

    def _send_reply(self, path: list[str], query_id: int, tup: Tuple,
                    holder: str) -> None:
        payload = {"kind": _REPLY, "query_id": query_id,
                   "tuple": encode_tuple(tup), "holder": holder,
                   "path": path}
        # Reverse-path routing: hand the reply to the previous hop.
        self.iface.unicast(path[-1], payload)

    def _on_reply(self, payload: dict) -> None:
        path = payload["path"]
        if path and path[-1] == self.name:
            path = path[:-1]
        if path:
            # Not ours: keep walking back toward the origin.
            self.iface.unicast(path[-1], dict(payload, path=path))
            return
        handle = self._pending.get(payload["query_id"])
        holder = payload["holder"]
        if handle is None or handle.done:
            self.iface.unicast(holder, {"kind": _REJECT,
                                        "query_id": payload["query_id"]})
            return
        self._pending.pop(payload["query_id"], None)
        if getattr(handle, "_ps_remove", False):
            self.iface.unicast(holder, {"kind": _ACCEPT,
                                        "query_id": payload["query_id"]})
        handle.finalize(decode_tuple(payload["tuple"]))

    def _on_accept(self, payload: dict) -> None:
        entry_id = self._held.pop(payload["query_id"], None)
        if entry_id is not None:
            self.space.confirm(entry_id)

    def _on_reject(self, payload: dict) -> None:
        entry_id = self._held.pop(payload["query_id"], None)
        if entry_id is not None:
            self.space.release(entry_id)

    def _claim_expired(self, query_id: int) -> None:
        entry_id = self._held.pop(query_id, None)
        if entry_id is not None:
            self.space.release(entry_id)


def build_peers_system(sim: Simulator, network: Network, names: list[str],
                       default_ttl: int = 4):
    """Construct PeerSpaces nodes; returns {name: node}."""
    return {name: PeerNode(sim, network, name, default_ttl=default_ttl)
            for name in names}
