"""Limbo's Distributed Tuple Space (DTS) protocol model.

Section 4.3: Limbo "uses a Distributed Tuple Space (DTS) protocol to
replicate tuple spaces across participating hosts.  Each tuple space has
its own multicast group, and clients attempt to maintain a consistent
replica of the space by multicasting a copy of every operation to the
group."  Properties modelled faithfully:

* **full replication** — every node stores a replica of every tuple it has
  heard about (the storage-burden metric of T5/T6);
* **ownership** — each tuple has a single owner; only the owner may remove
  it.  ``in``/``inp`` on a non-owned tuple first request an ownership
  transfer from the owner over *direct* unicast — impossible when the
  owner is not visible (breaking the identity/time/space decouplings, as
  the paper argues);
* **disconnected operation** — ``out`` and ``rd`` work as normal while
  disconnected; ``in`` only on owned tuples; a removal log is kept and
  replayed on reconnection, and missed inserts are fetched from the first
  peer that becomes visible again;
* **anomalies** — a replica that missed a removal still *sees* the tuple
  (stale reads, counted via a shared oracle for T6), and tuples whose
  owner departed can never be removed by anyone (orphans).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.baselines.base import SimpleOp, SpaceNode
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import decode_tuple, encode_tuple

_OUT = "dts_out"
_REMOVE = "dts_remove"
_TRANSFER_REQ = "dts_transfer_req"
_TRANSFER_GRANT = "dts_transfer_grant"
_SYNC_REQ = "dts_sync_req"
_SYNC_DATA = "dts_sync_data"


class LimboOracle:
    """Bench-side global truth used only for anomaly *measurement*.

    Records which tuple uids have been removed anywhere, so stale reads
    (section 4.3: "the tuple may still be accessible to a disconnected
    host") can be counted without altering protocol behaviour.
    """

    def __init__(self) -> None:
        self.removed_uids: set[str] = set()


class LimboNode(SpaceNode):
    """One participant holding a full replica of the distributed space."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 oracle: Optional[LimboOracle] = None) -> None:
        self.sim = sim
        self._transfer_ids = sim.ids("limbo_transfer")
        self.network = network
        self.name = name
        self.oracle = oracle if oracle is not None else LimboOracle()
        self.space = LocalTupleSpace(sim, name=name)
        self.iface = network.attach(name, self._on_message)
        self._uid_seq = itertools.count(1)
        self._by_uid: dict[str, int] = {}          # uid -> entry_id
        self._removed_log: set[str] = set()        # uids this node knows removed
        self._pending_transfers: dict[int, SimpleOp] = {}
        network.visibility.on_edge_change(self._on_edge)
        # anomaly metrics
        self.stale_reads = 0
        self.transfer_failures = 0

    # ------------------------------------------------------------------
    # SpaceNode operations
    # ------------------------------------------------------------------
    def out(self, tup: Tuple) -> None:
        """Deposit locally and multicast the insert to the group."""
        uid = f"{self.name}/{next(self._uid_seq)}"
        self._apply_out(tup, uid, owner=self.name)
        self.iface.multicast({"kind": _OUT, "tuple": encode_tuple(tup),
                              "uid": uid, "owner": self.name})

    def rdp(self, pattern: Pattern) -> SimpleOp:
        """Read from the local replica (no communication at all)."""
        handle = SimpleOp(self.sim)
        entry = self.space.store.find(pattern, self.space.rng)
        if entry is not None:
            self._count_if_stale(entry)
            handle.finalize(entry.tuple)
        else:
            handle.finalize(None, error="no match")
        return handle

    def rd(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        """Blocking read against the local replica."""
        handle = SimpleOp(self.sim)
        waiter = self.space.rd(pattern)
        if waiter.satisfied:
            handle.finalize(waiter.event.value)
            return handle
        waiter.event.add_callback(lambda event: handle.finalize(event.value))
        self.sim.schedule(timeout, self._waiter_timeout, waiter, handle)
        return handle

    def inp(self, pattern: Pattern) -> SimpleOp:
        """Take: owned tuples immediately; others via ownership transfer."""
        handle = SimpleOp(self.sim)
        self._try_take(pattern, handle)
        return handle

    def in_(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        """Blocking take (retries as matches appear, until timeout)."""
        handle = SimpleOp(self.sim)
        self._blocking_take(pattern, handle)
        if not handle.done:
            self.sim.schedule(timeout, self._blocking_give_up, handle)
        return handle

    def stored_tuples(self) -> int:
        return self.space.count()

    # ------------------------------------------------------------------
    # Take machinery
    # ------------------------------------------------------------------
    def _try_take(self, pattern: Pattern, handle: SimpleOp) -> None:
        entry = self.space.store.find(pattern, self.space.rng)
        if entry is None:
            handle.finalize(None, error="no match")
            return
        owner = entry.meta["owner"]
        uid = entry.meta["uid"]
        if owner == self.name:
            self._remove_uid(uid, broadcast=True)
            handle.finalize(entry.tuple)
            return
        # Need the owner to hand over ownership — direct communication only.
        tid = next(self._transfer_ids)
        sent = self.iface.unicast(owner, {"kind": _TRANSFER_REQ, "uid": uid,
                                          "tid": tid})
        if not sent:
            self.transfer_failures += 1
            handle.finalize(None, error=f"owner {owner} unreachable")
            return
        self._pending_transfers[tid] = handle
        handle._limbo_entry = entry  # stashed for the grant handler
        self.sim.schedule(5.0, self._transfer_timeout, tid)

    def _blocking_take(self, pattern: Pattern, handle: SimpleOp) -> None:
        if handle.done:
            return
        probe = SimpleOp(self.sim)
        self._try_take(pattern, probe)
        if probe.done and probe.result is not None:
            handle.finalize(probe.result)
            return
        if probe.done and probe.error not in (None, "no match"):
            handle.finalize(None, error=probe.error)
            return
        if not probe.done:
            # Transfer in flight: mirror its outcome.
            probe.event.add_callback(
                lambda event: handle.finalize(probe.result, probe.error)
                if probe.result is not None else self._rearm(pattern, handle))
            return
        # No match yet: watch for one.
        waiter = self.space.rd(pattern)
        if waiter.satisfied:
            self._blocking_take(pattern, handle)
            return
        waiter.event.add_callback(lambda event: self._blocking_take(pattern, handle))
        handle._limbo_waiter = waiter

    def _rearm(self, pattern: Pattern, handle: SimpleOp) -> None:
        if not handle.done:
            self._blocking_take(pattern, handle)

    def _blocking_give_up(self, handle: SimpleOp) -> None:
        if not handle.done:
            waiter = getattr(handle, "_limbo_waiter", None)
            if waiter is not None:
                waiter.cancel()
            handle.finalize(None, error="timeout")

    def _waiter_timeout(self, waiter, handle: SimpleOp) -> None:
        if not handle.done:
            waiter.cancel()
            handle.finalize(None, error="timeout")

    def _transfer_timeout(self, tid: int) -> None:
        handle = self._pending_transfers.pop(tid, None)
        if handle is not None and not handle.done:
            self.transfer_failures += 1
            handle.finalize(None, error="transfer timeout")

    # ------------------------------------------------------------------
    # Replica state
    # ------------------------------------------------------------------
    def _apply_out(self, tup: Tuple, uid: str, owner: str) -> None:
        if uid in self._by_uid or uid in self._removed_log:
            return  # duplicate or already-removed insert
        entry = self.space.out(tup, meta={"uid": uid, "owner": owner})
        if entry.entry_id:
            self._by_uid[uid] = entry.entry_id

    def _remove_uid(self, uid: str, broadcast: bool) -> None:
        self._removed_log.add(uid)
        self.oracle.removed_uids.add(uid)
        entry_id = self._by_uid.pop(uid, None)
        if entry_id is not None and self.space.store.get(entry_id) is not None:
            self.space.store.remove(entry_id)
        if broadcast:
            self.iface.multicast({"kind": _REMOVE, "uid": uid})

    def _count_if_stale(self, entry) -> None:
        if entry.meta.get("uid") in self.oracle.removed_uids:
            self.stale_reads += 1

    # ------------------------------------------------------------------
    # Protocol messages
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        payload = msg.payload
        kind = msg.kind
        if kind == _OUT:
            self._apply_out(decode_tuple(payload["tuple"]), payload["uid"],
                            payload["owner"])
        elif kind == _REMOVE:
            self._removed_log.add(payload["uid"])
            entry_id = self._by_uid.pop(payload["uid"], None)
            if entry_id is not None and self.space.store.get(entry_id) is not None:
                self.space.store.remove(entry_id)
        elif kind == _TRANSFER_REQ:
            self._on_transfer_request(msg.src, payload)
        elif kind == _TRANSFER_GRANT:
            self._on_transfer_grant(payload)
        elif kind == _SYNC_REQ:
            self._on_sync_request(msg.src, payload)
        elif kind == _SYNC_DATA:
            self._on_sync_data(payload)

    def _on_transfer_request(self, requester: str, payload: dict) -> None:
        uid = payload["uid"]
        ok = uid in self._by_uid and uid not in self._removed_log
        if ok:
            entry_id = self._by_uid[uid]
            entry = self.space.store.get(entry_id)
            if entry is not None:
                entry.meta["owner"] = requester
        self.iface.unicast(requester, {"kind": _TRANSFER_GRANT,
                                       "tid": payload["tid"], "uid": uid,
                                       "ok": ok})

    def _on_transfer_grant(self, payload: dict) -> None:
        handle = self._pending_transfers.pop(payload["tid"], None)
        if handle is None or handle.done:
            return
        if not payload["ok"]:
            handle.finalize(None, error="transfer denied")
            return
        entry = getattr(handle, "_limbo_entry", None)
        if entry is None or entry.removed:
            handle.finalize(None, error="tuple vanished during transfer")
            return
        entry.meta["owner"] = self.name
        self._remove_uid(payload["uid"], broadcast=True)
        handle.finalize(entry.tuple)

    # ------------------------------------------------------------------
    # Reconnection synchronisation
    # ------------------------------------------------------------------
    def _on_edge(self, a: str, b: str, visible: bool) -> None:
        if not visible or self.name not in (a, b):
            return
        peer = b if a == self.name else a
        # Ask the newly visible peer for what we missed.
        self.iface.unicast(peer, {
            "kind": _SYNC_REQ,
            "have": sorted(self._by_uid),
            "removed": sorted(self._removed_log),
        })

    def _on_sync_request(self, peer: str, payload: dict) -> None:
        their_have = set(payload["have"])
        their_removed = set(payload["removed"])
        # Apply removals we missed.
        for uid in their_removed - self._removed_log:
            self._removed_log.add(uid)
            entry_id = self._by_uid.pop(uid, None)
            if entry_id is not None and self.space.store.get(entry_id) is not None:
                self.space.store.remove(entry_id)
        # Send tuples and removals the peer is missing.
        missing = [uid for uid in self._by_uid
                   if uid not in their_have and uid not in their_removed]
        tuples = []
        for uid in missing:
            entry = self.space.store.get(self._by_uid[uid])
            if entry is not None:
                tuples.append({"uid": uid, "owner": entry.meta["owner"],
                               "tuple": encode_tuple(entry.tuple)})
        removed_for_peer = sorted(self._removed_log - their_removed)
        if tuples or removed_for_peer:
            self.iface.unicast(peer, {"kind": _SYNC_DATA, "tuples": tuples,
                                      "removed": removed_for_peer})

    def _on_sync_data(self, payload: dict) -> None:
        for uid in payload["removed"]:
            self._removed_log.add(uid)
            entry_id = self._by_uid.pop(uid, None)
            if entry_id is not None and self.space.store.get(entry_id) is not None:
                self.space.store.remove(entry_id)
        for item in payload["tuples"]:
            self._apply_out(decode_tuple(item["tuple"]), item["uid"], item["owner"])

    # ------------------------------------------------------------------
    def orphaned_tuples(self, departed: set[str]) -> int:
        """Tuples owned by a departed node: unremovable by anyone (4.3)."""
        count = 0
        for entry in self.space.store:
            if entry.visible and entry.meta.get("owner") in departed:
                count += 1
        return count


def build_limbo_system(sim: Simulator, network: Network, names: list[str]):
    """Construct a Limbo group; returns ({name: node}, oracle)."""
    oracle = LimboOracle()
    nodes = {name: LimboNode(sim, network, name, oracle) for name in names}
    return nodes, oracle
