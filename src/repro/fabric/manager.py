"""The fabric manager: sharded + replicated placement over live instances.

One :class:`FabricManager` rides inside each fabric-enabled
:class:`~repro.core.instance.TiamatInstance` and turns the union-scan
logical space into a consistent-hash fabric (``docs/PROTOCOL.md``
section 11):

* **Routing** — ``plan(pattern)`` maps a ground-prefix pattern to its
  O(k) owner set on the ring; wildcard-first patterns fall back to a
  ``scatter_limit``-bounded member scatter.  ``route_out`` sends a
  deposit to the key's primary owner (``FABRIC_OUT``) instead of storing
  it locally.
* **Membership** — the gossiped :class:`~repro.fabric.map.ShardMap` of
  lease-governed members: every heartbeat renews this node's lease,
  sweeps lapsed peers, and pushes the map to ``gossip_fanout``
  successors; a map digest (``"fmd"``) piggybacks on ordinary frames so
  skewed peers converge between heartbeats.
* **Replication** — each primary is copied (``FABRIC_REPL``) to the
  ``k - 1`` successor owners, where it is *quarantined* (held,
  invisible): replicas emit ``space.restore``, never ``space.deposit``,
  so the exactly-once oracle keeps counting one deposit per tuple.
  Consumed or expired primaries invalidate their replicas
  (``FABRIC_INVAL``, reliable).
* **Handoff** — when the ring changes, primaries this node no longer
  owns migrate to a current owner (two-phase ``FABRIC_MIGRATE``: hold →
  transfer → remove-on-ack, with *drop* — never release — on timeout, so
  a racing retransmission can never yield two visible copies).  When a
  member's lease lapses and it is genuinely unreachable, its replicas
  are **promoted** — but only after a witness sync (``SYNC_REQUEST``
  with an ``owner`` field) confirms no live peer witnessed the tuple
  being consumed, the same anti-entropy that guards durable rejoin.

Failure envelope: with crash-stop failures every handoff preserves
exactly-once.  Under a *partition* (a live owner unreachable from its
successor but reachable from consumers) the visibility guard suppresses
promotion; if the map nevertheless lapses a reachable member, the worst
case is bounded duplicate *delivery*, never a duplicate destructive
consume of a surviving copy — see PROTOCOL.md section 11.4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple as Tup

from repro.core import protocol
from repro.fabric.keys import (
    is_infrastructure,
    pattern_is_infrastructure,
    pattern_shard_key,
    shard_key,
)
from repro.fabric.map import ShardMap
from repro.fabric.ring import stable_hash
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS
from repro.tuples import Pattern
from repro.tuples.serialization import decode_tuple, encode_tuple

#: Wire key for the piggybacked shard-map digest.
DIGEST_KEY = "fmd"

#: Bound on remembered invalidated uids per member (see ``_tombstone``).
TOMBSTONE_CAP = 4096


class FabricManager:
    """Sharding, replication and handoff for one instance."""

    def __init__(self, instance) -> None:
        self.instance = instance
        self.sim = instance.sim
        self.config = instance.config.fabric
        self.map = ShardMap(vnodes=self.config.vnodes)
        self._sids = self.sim.ids("fabric_sid")
        #: Incarnation token: entry uids must never collide across a
        #: name's crash/restart cycles, so the uid's first half is
        #: name + construction time, not the bare name.
        self.epoch = f"{instance.name}@{self.sim.now:.6f}"
        # Placement indexes (uid = (epoch_token, primary_entry_id)).
        self._primaries: Dict[Tup[str, int], int] = {}
        self._replicas: Dict[Tup[str, int], int] = {}
        self._replica_primary: Dict[Tup[str, int], str] = {}
        self._replica_peers: Dict[Tup[str, int], List[str]] = {}
        self._holders: Dict[Tup[str, int], Set[str]] = {}
        # In-flight two-phase migrations: uid -> (entry_id, target, timer).
        self._migrating: Dict[Tup[str, int], tuple] = {}
        # In-flight witness-verified promotions: sid -> state dict.
        self._promotions_pending: Dict[int, dict] = {}
        # Invalidated uids (bounded, insertion-ordered).  Reliable frames
        # are not ordered: a replica frame sent at deposit time can arrive
        # *after* the invalidation sent at consume time, and restoring it
        # then would plant a stale copy that a later promotion resurrects
        # into a double consume.  A tombstoned uid refuses re-replication
        # forever — safe, because a uid names exactly one deposit.
        self._tombstones: Dict[Tup[str, int], None] = {}
        self._change_cbs: List[Callable[[], None]] = []
        self._last_push: Dict[str, float] = {}
        # Earliest time any member's lease can lapse (see _grace_visible).
        self._next_lapse = 0.0
        # Gossip idle-backoff state (see _gossip).
        self._gossiped_roster: tuple = ()
        self._gossip_beats = 0
        self._stopped = False
        # statistics
        self.deposits_routed = 0
        self.deposits_owned = 0
        self.replicas_stored = 0
        self.invalidations = 0
        self.migrations_out = 0
        self.migrations_in = 0
        self.migrations_dropped = 0
        self.promotions = 0
        self.promotion_purges = 0
        self.map_pushes = 0
        self.scatter_ops = 0
        self.scatter_width_sum = 0
        self._scatter_hist = self.sim.obs.registry.histogram(
            "fabric_scatter_width",
            help="Peers contacted per fabric-planned operation.",
            labels=("node",), buckets=DEFAULT_COUNT_BUCKETS)
        self.map.renew(instance.name, self.sim.now + self.config.membership_lease)
        instance.space.on_removed(self._on_entry_removed)
        self._timer = self.sim.schedule(self.config.heartbeat_period,
                                        self._heartbeat)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def bootstrap(self, names) -> None:
        """Seed the map with a known member list (deployment/bench helper).

        Gossip would converge on its own; seeding skips the O(diameter)
        warm-up and the join-migration churn it causes.
        """
        now = self.sim.now
        changed = False
        for name in names:
            changed |= self.map.renew(name, now + self.config.membership_lease)
        if changed:
            self._next_lapse = 0.0
            self._notify_change()

    def stop(self) -> None:
        """Cancel timers (instance shutting down)."""
        if self._stopped:
            return
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for _, _, timer in self._migrating.values():
            if timer is not None:
                timer.cancel()
        self._migrating.clear()
        for state in self._promotions_pending.values():
            if state["timer"] is not None:
                state["timer"].cancel()
        self._promotions_pending.clear()

    def on_change(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Subscribe to shard-map changes; returns an unsubscriber."""
        self._change_cbs.append(callback)

        def unsubscribe() -> None:
            if callback in self._change_cbs:
                self._change_cbs.remove(callback)

        return unsubscribe

    def _notify_change(self) -> None:
        for callback in list(self._change_cbs):
            callback()

    # ==================================================================
    # Routing
    # ==================================================================
    def active(self) -> bool:
        """True when the fabric knows at least one live peer to route to."""
        live = self.map.live(self.sim.now)
        return len(live) >= 2 or (len(live) == 1
                                  and live[0] != self.instance.name)

    def routes(self, pattern: Pattern) -> bool:
        """Whether the fabric handles this pattern (infra stays local)."""
        return not pattern_is_infrastructure(pattern)

    def plan(self, pattern: Pattern, record: bool = True) -> List[str]:
        """Peers to contact for ``pattern``, in contact order.

        A ground-prefix pattern yields its shard's owner set (≤ k peers);
        anything else yields the bounded scatter.  ``record=False`` skips
        the scatter-width sample (used by blocking re-plans so one
        logical operation is measured once).
        """
        now = self.sim.now
        self._grace_visible(now)
        me = self.instance.name
        key = pattern_shard_key(pattern, self.config.key_fields)
        if key is not None:
            ring = self.map.ring(now)
            peers = [o for o in ring.owners(key, self.config.replication)
                     if o != me]
        else:
            peers = [m for m in self.map.live(now) if m != me]
            peers = peers[:self.config.scatter_limit]
        if record:
            self.scatter_ops += 1
            self.scatter_width_sum += len(peers)
            self._scatter_hist.labels(node=me).observe(float(len(peers)))
        return peers

    def route_out(self, tup) -> bool:
        """Send a deposit to its shard's primary owner.

        Returns True when the tuple left for a remote owner (the caller
        must not also store it locally); False when the deposit should
        proceed locally — because this node owns the shard, the tuple is
        infrastructure, the fabric is not yet live, or no owner is
        reachable (local fallback: the next rebalance migrates it home).
        """
        if is_infrastructure(tup) or not self.active():
            return False
        self._grace_visible(self.sim.now)
        key = shard_key(tup, self.config.key_fields)
        owners = self.map.ring(self.sim.now).owners(key,
                                                    self.config.replication)
        if not owners or self.instance.name in owners:
            self.deposits_owned += 1
            return False
        for owner in owners:
            if self.instance.iface.is_visible(owner):
                self.instance.send_reliable(owner, {
                    "kind": protocol.FABRIC_OUT,
                    "tuple": encode_tuple(tup),
                }, deadline=self.sim.now + 2 * self.instance.config.peer_timeout)
                self.deposits_routed += 1
                return True
        return False

    # ==================================================================
    # Primary registration and replication
    # ==================================================================
    def register_primary(self, entry) -> None:
        """Adopt a locally-stored entry as a fabric primary and replicate.

        Skips transient entries (consumed in flight by a waiter — their
        deposit/consume pair is already complete) and infrastructure.
        """
        if entry.removed or is_infrastructure(entry.tuple):
            return
        uid = entry.meta.get("fabric_uid")
        if uid is None:
            uid = (self.epoch, entry.entry_id)
            entry.meta["fabric_uid"] = uid
        uid = tuple(uid)
        self._primaries[uid] = entry.entry_id
        self._replicate(uid, entry)

    def _replicate(self, uid, entry) -> None:
        key = shard_key(entry.tuple, self.config.key_fields)
        owners = self.map.ring(self.sim.now).owners(key,
                                                    self.config.replication)
        targets = [o for o in owners if o != self.instance.name]
        targets = targets[:self.config.replication - 1]
        sent = self._holders.setdefault(uid, set())
        if not targets:
            return
        payload = {
            "kind": protocol.FABRIC_REPL,
            "uid": list(uid),
            "holder": self.instance.name,
            "peers": sorted(targets),
            "tuple": encode_tuple(entry.tuple),
            "expires_at": entry.meta.get("expires_at"),
        }
        for target in targets:
            if target in sent or not self.instance.iface.is_visible(target):
                continue
            self.instance.send_reliable(
                target, payload,
                deadline=self.sim.now + 2 * self.instance.config.peer_timeout)
            sent.add(target)

    def _on_entry_removed(self, entry, reason: str) -> None:
        uid = entry.meta.get("fabric_uid")
        if uid is None:
            return
        uid = tuple(uid)
        if self._primaries.get(uid) == entry.entry_id:
            del self._primaries[uid]
            holders = self._holders.pop(uid, set())
            # Tell every replica holder the copy is dead — reliably: a
            # lost invalidation would leave a stale replica that a later
            # promotion could resurrect into a double consume.
            for holder in sorted(holders):
                if self.instance.iface.is_visible(holder):
                    self.instance.send_reliable(holder, {
                        "kind": protocol.FABRIC_INVAL,
                        "uid": list(uid),
                    }, deadline=self.sim.now
                        + 2 * self.instance.config.peer_timeout)
        if self._replicas.get(uid) == entry.entry_id:
            del self._replicas[uid]
            self._replica_primary.pop(uid, None)
            self._replica_peers.pop(uid, None)

    # ==================================================================
    # Frame dispatch (called from the instance's _on_message)
    # ==================================================================
    def handle(self, kind: str, src: str, payload: dict) -> None:
        if self._stopped:
            return
        if kind == protocol.FABRIC_MAP:
            self._handle_map(src, payload)
        elif kind == protocol.FABRIC_OUT:
            self._handle_out(src, payload)
        elif kind == protocol.FABRIC_REPL:
            self._handle_repl(src, payload)
        elif kind == protocol.FABRIC_INVAL:
            self._handle_inval(src, payload)
        elif kind == protocol.FABRIC_MIGRATE:
            self._handle_migrate(src, payload)
        elif kind == protocol.FABRIC_MIGRATE_ACK:
            self._handle_migrate_ack(src, payload)

    def _grace_visible(self, now: float) -> None:
        """Visibility is direct evidence of liveness: a *reachable* member
        whose lease lapsed is a gossip-lag artifact (renewals spread a few
        hops per heartbeat), not a departure.  Grace it locally; the
        max-expiry merge spreads the extension.  Without this, members far
        apart on the gossip walk sweep each other in large fabrics.

        Cheap in steady state: a tracked next-lapse time skips the member
        scan entirely until some lease actually runs out.
        """
        if now < self._next_lapse:
            return
        me = self.instance.name
        next_lapse = float("inf")
        for name, expires_at in list(self.map.members.items()):
            if expires_at <= now:
                if name != me and self.instance.iface.is_visible(name):
                    self.map.renew(name,
                                   now + self.config.membership_lease)
                    next_lapse = min(next_lapse,
                                     now + self.config.membership_lease)
                # else: genuinely unreachable — left for the sweep.
            else:
                next_lapse = min(next_lapse, expires_at)
        self._next_lapse = next_lapse

    def digest(self) -> str:
        now = self.sim.now
        self._grace_visible(now)
        return self.map.digest(now)

    def on_digest(self, src: str, digest: str) -> None:
        """A piggybacked map digest disagrees: push our map (rate-limited)."""
        if digest == self.digest():
            return
        now = self.sim.now
        floor = self.config.heartbeat_period / 2
        if now - self._last_push.get(src, -floor) < floor:
            return
        self._last_push[src] = now
        self._push_map(src)

    def _push_map(self, peer: str) -> None:
        self.map_pushes += 1
        self.instance.send(peer, {"kind": protocol.FABRIC_MAP,
                                  "map": self.map.to_payload()})

    def _handle_map(self, src: str, payload: dict) -> None:
        self.instance.comms.note_alive(src)
        entries = {str(n): float(exp) for n, exp in payload["map"].items()}
        if self.map.merge(entries):
            # Merged entries may lapse before anything we already track.
            self._next_lapse = 0.0
            self._notify_change()

    def _handle_out(self, src: str, payload: dict) -> None:
        # Always deposit locally, even if our map says the shard belongs
        # elsewhere: forwarding under skew could loop.  A misplaced
        # deposit converges via the next rebalance migration.
        tup = decode_tuple(payload["tuple"])
        try:
            self.instance._deposit_local(tup)
        except Exception:
            pass  # lease refused: the deposit is lost, like a full node

    def _tombstone(self, uid) -> None:
        self._tombstones[uid] = None
        while len(self._tombstones) > TOMBSTONE_CAP:
            del self._tombstones[next(iter(self._tombstones))]

    def _handle_repl(self, src: str, payload: dict) -> None:
        uid = tuple(payload["uid"])
        if uid in self._tombstones:
            return  # invalidated already; this frame was reordered past it
        self._replica_primary[uid] = payload.get("holder", src)
        self._replica_peers[uid] = list(payload.get("peers", []))
        if uid in self._replicas or uid in self._primaries:
            return  # refresh of a copy we already hold
        tup = decode_tuple(payload["tuple"])
        entry = self.instance.space.restore_entry(
            tup, expires_at=payload.get("expires_at"),
            meta={"fabric_uid": uid, "fabric_replica": True},
            quarantine=True)
        self._replicas[uid] = entry.entry_id
        self.replicas_stored += 1

    def _handle_inval(self, src: str, payload: dict) -> None:
        uid = tuple(payload["uid"])
        self._tombstone(uid)
        entry_id = self._replicas.get(uid)
        if entry_id is None:
            self._replica_primary.pop(uid, None)
            self._replica_peers.pop(uid, None)
            return
        self.invalidations += 1
        self._drop_entry(entry_id, "reconciled")

    def _drop_entry(self, entry_id: int, reason: str) -> None:
        space = self.instance.space
        entry = space.store.get(entry_id)
        if entry is None or entry.removed:
            return
        space.store.remove(entry_id)
        space._notify_removed(entry, reason)

    # ==================================================================
    # Two-phase migration (hold -> transfer -> remove-on-ack)
    # ==================================================================
    def _migrate(self, uid, target: str) -> None:
        entry_id = self._primaries.get(uid)
        if entry_id is None or uid in self._migrating:
            return
        entry = self.instance.space.store.get(entry_id)
        if entry is None or entry.removed:
            return
        if entry.held:
            return  # offered to an `in` right now; retry next heartbeat
        if not self.instance.iface.is_visible(target):
            return
        self.instance.space.store.hold(entry_id)
        timer = self.sim.schedule(self.config.migrate_timeout,
                                  self._migrate_timeout, uid)
        self._migrating[uid] = (entry_id, target, timer)
        self.instance.send_reliable(target, {
            "kind": protocol.FABRIC_MIGRATE,
            "uid": list(uid),
            "tuple": encode_tuple(entry.tuple),
            "expires_at": entry.meta.get("expires_at"),
        }, deadline=self.sim.now + self.config.migrate_timeout)

    def _handle_migrate(self, src: str, payload: dict) -> None:
        uid = tuple(payload["uid"])
        if uid in self._primaries:
            pass  # duplicate transfer: we already own it, just re-ack
        elif uid in self._replicas:
            self._adopt_replica(uid)
        else:
            # A migrate is a positive transfer of a live copy (the sender
            # holds theirs until our ack), so it overrides any tombstone
            # left by an earlier invalidation of a *previous* placement.
            self._tombstones.pop(uid, None)
            tup = decode_tuple(payload["tuple"])
            entry = self.instance.space.restore_entry(
                tup, expires_at=payload.get("expires_at"),
                meta={"fabric_uid": uid})
            self.migrations_in += 1
            if not entry.removed:
                # May have been consumed in flight by a blocked `in`
                # waiter — then the handoff and the take composed into
                # one consume, nothing left to own.
                self._primaries[uid] = entry.entry_id
                self._replicate(uid, entry)
        self.instance.send_reliable(src, {
            "kind": protocol.FABRIC_MIGRATE_ACK,
            "uid": list(uid),
        }, deadline=self.sim.now + self.config.migrate_timeout)

    def _adopt_replica(self, uid) -> None:
        """A migrate arrived for a uid we already hold quarantined:
        release our replica into visibility and take over as primary —
        no second copy ever materializes."""
        entry_id = self._replicas.pop(uid, None)
        self._replica_primary.pop(uid, None)
        self._replica_peers.pop(uid, None)
        if entry_id is None:
            return
        entry = self.instance.space.store.get(entry_id)
        if entry is None or entry.removed or not entry.held:
            return
        released = self.instance.space.release(entry_id)
        self.migrations_in += 1
        if released is None:
            return  # expired on release, or consumed by a blocked waiter
        self._primaries[uid] = entry_id
        self._replicate(uid, entry)

    def _handle_migrate_ack(self, src: str, payload: dict) -> None:
        uid = tuple(payload["uid"])
        state = self._migrating.pop(uid, None)
        if state is None:
            return  # timeout already resolved this handoff
        entry_id, _, timer = state
        if timer is not None:
            timer.cancel()
        self.migrations_out += 1
        self._drop_entry(entry_id, "migrated")

    def _migrate_timeout(self, uid) -> None:
        state = self._migrating.pop(uid, None)
        if state is None:
            return
        entry_id, _, _ = state
        # Drop, never release: the transfer frame may still be in flight,
        # and releasing our copy alongside a delivered one would let the
        # same deposit be consumed twice.  Safety over availability.
        self.migrations_dropped += 1
        self._drop_entry(entry_id, "reconciled")

    # ==================================================================
    # Member death: witness-verified replica promotion
    # ==================================================================
    def _on_members_dropped(self, names: List[str]) -> None:
        for name in names:
            # Their replicas died with them; re-replication will re-send.
            for holders in self._holders.values():
                holders.discard(name)
        for name in names:
            if self.instance.iface.is_visible(name):
                # Reachable: a gossip hiccup lapsed the lease, not a
                # crash.  Keep the replicas quarantined; the member's next
                # renewal reinstates it.
                continue
            uids = [uid for uid, holder in self._replica_primary.items()
                    if holder == name and uid in self._replicas
                    and self._should_promote(uid)]
            if uids:
                self._begin_promotion(name, uids)

    def _should_promote(self, uid) -> bool:
        """Deterministic single-promoter election among replica holders.

        Every holder got the same ``peers`` list from the primary, so
        ranking live holders by a stable hash picks the same winner
        everywhere without coordination.
        """
        now = self.sim.now
        me = self.instance.name
        holders = set(self._replica_peers.get(uid, [])) | {me}
        live = [h for h in holders if h == me or self.map.is_live(h, now)]
        if not live:
            return True
        ranked = sorted(live, key=lambda h: (stable_hash(f"{uid}|{h}"), h))
        return ranked[0] == me

    def _begin_promotion(self, dead: str, uids: List[Tup[str, int]]) -> None:
        """Quarantine-verified promotion: ask live peers for consume
        witnesses of the dead member's entries before releasing anything
        (the rejoin safety argument, pointed the other way)."""
        now = self.sim.now
        # Seed with our *own* witness table: we may ourselves have taken
        # one of the dead member's tuples (recorded at CLAIM_ACCEPT send)
        # while also holding its stale replica — asking only peers would
        # let us promote a consume we personally performed.
        own = set(self.instance._consume_witness.get(dead, {}))
        peers = [m for m in self.map.live(now)
                 if m != self.instance.name
                 and self.instance.iface.is_visible(m)]
        if not peers:
            self._finish_promotion(dead, set(uids), own)
            return
        sid = next(self._sids)
        timeout = 2 * self.instance.config.peer_timeout
        state = {
            "dead": dead,
            "uids": set(uids),
            "pending": set(peers),
            "consumed": own,
            "timer": self.sim.schedule(timeout, self._promotion_timeout, sid),
        }
        self._promotions_pending[sid] = state
        for peer in peers:
            self.instance.sync_requests_sent += 1
            self.instance.send_reliable(peer, {
                "kind": protocol.SYNC_REQUEST,
                "sid": -sid,  # disjoint from rejoin sids (see instance)
                "owner": dead,
            }, deadline=now + timeout)

    def on_sync_response(self, src: str, payload: dict) -> None:
        sid = -payload.get("sid", 0)
        state = self._promotions_pending.get(sid)
        if state is None:
            return
        state["consumed"].update(int(e) for e in payload.get("consumed", ()))
        state["pending"].discard(src)
        if not state["pending"]:
            self._resolve_promotion(sid)

    def _promotion_timeout(self, sid: int) -> None:
        state = self._promotions_pending.get(sid)
        if state is not None:
            state["timer"] = None
            self._resolve_promotion(sid)

    def _resolve_promotion(self, sid: int) -> None:
        state = self._promotions_pending.pop(sid, None)
        if state is None:
            return
        if state["timer"] is not None:
            state["timer"].cancel()
        self._finish_promotion(state["dead"], state["uids"], state["consumed"])

    def _finish_promotion(self, dead: str, uids: Set[tuple],
                          consumed: Set[int]) -> None:
        for uid in sorted(uids):
            entry_id = self._replicas.get(uid)
            if entry_id is None:
                continue
            if self._replica_primary.get(uid) != dead:
                continue  # a new primary adopted it while we verified
            if uid[1] in consumed:
                # A witness saw the primary's copy being consumed:
                # releasing ours would resurrect a taken tuple.
                self.promotion_purges += 1
                self._tombstone(uid)
                self._drop_entry(entry_id, "reconciled")
                continue
            self._promote(uid, entry_id)

    def _promote(self, uid, entry_id: int) -> None:
        space = self.instance.space
        entry = space.store.get(entry_id)
        if entry is None or entry.removed or not entry.held:
            return
        released = space.release(entry_id)
        self._replicas.pop(uid, None)
        self._replica_primary.pop(uid, None)
        self._replica_peers.pop(uid, None)
        self.promotions += 1
        if released is None:
            return  # expired on release, or consumed by a waiter
        self._primaries[uid] = entry_id
        self._replicate(uid, entry)

    # ==================================================================
    # The heartbeat: renew, sweep, rebalance, gossip
    # ==================================================================
    def _heartbeat(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        changed = self.map.renew(self.instance.name,
                                 now + self.config.membership_lease)
        self._grace_visible(now)
        dropped = self.map.sweep(now)
        if dropped:
            self._on_members_dropped(dropped)
        self._sweep_replicas(now)
        self._rebalance()
        self._gossip(now)
        if changed or dropped:
            self._notify_change()
        self._timer = self.sim.schedule(self.config.heartbeat_period,
                                        self._heartbeat)

    def _sweep_replicas(self, now: float) -> None:
        """Reap quarantined replicas whose lease time has run out (held
        entries are invisible to the space's own expiry timers)."""
        for uid, entry_id in list(self._replicas.items()):
            entry = self.instance.space.store.get(entry_id)
            if entry is None or entry.removed:
                self._replicas.pop(uid, None)
                self._replica_primary.pop(uid, None)
                self._replica_peers.pop(uid, None)
                continue
            expires_at = entry.meta.get("expires_at")
            if expires_at is not None and now >= expires_at:
                self._drop_entry(entry_id, "expired")

    def _rebalance(self) -> None:
        """Converge local placement with the current ring.

        Adopts untracked local tuples (handle-directed deposits, eval
        results, pre-bootstrap deposits), re-replicates under-replicated
        primaries, and migrates primaries whose shard no longer includes
        this node.
        """
        if not self.active():
            return
        me = self.instance.name
        ring = self.map.ring(self.sim.now)
        space = self.instance.space
        for entry in list(space.store):
            if (entry.removed or entry.held
                    or is_infrastructure(entry.tuple)
                    or "fabric_uid" in entry.meta):
                continue
            self.register_primary(entry)
        for uid, entry_id in list(self._primaries.items()):
            entry = space.store.get(entry_id)
            if entry is None or entry.removed:
                self._primaries.pop(uid, None)
                continue
            key = shard_key(entry.tuple, self.config.key_fields)
            owners = ring.owners(key, self.config.replication)
            if me in owners or not owners:
                self._replicate(uid, entry)
                continue
            for target in owners:
                if self.instance.iface.is_visible(target):
                    self._migrate(uid, target)
                    break

    def _gossip(self, now: float) -> None:
        me = self.instance.name
        live = [m for m in self.map.live(now) if m != me]
        if not live:
            return
        # Idle backoff: with an unchanged live set, background gossip is
        # anti-entropy insurance only (the piggybacked digest converges
        # active pairs), so push every `gossip_idle_beats` beats instead
        # of every beat.
        roster = tuple(live)
        if roster == self._gossiped_roster:
            self._gossip_beats += 1
            if self._gossip_beats < self.config.gossip_idle_beats:
                return
        self._gossiped_roster = roster
        self._gossip_beats = 0
        # Push to the next `fanout` members after ourselves in name
        # order: deterministic, and rotation over joins keeps the graph
        # connected without randomness.
        ordered = sorted(live + [me])
        start = ordered.index(me)
        targets = []
        for i in range(1, len(ordered)):
            peer = ordered[(start + i) % len(ordered)]
            if peer != me:
                targets.append(peer)
            if len(targets) >= self.config.gossip_fanout:
                break
        for peer in targets:
            self._push_map(peer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FabricManager {self.instance.name} "
                f"primaries={len(self._primaries)} "
                f"replicas={len(self._replicas)} map=v{self.map.version}>")
