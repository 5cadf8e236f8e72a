"""The Tiamat instance: Figure 2 wired together.

An instance owns the three components of the paper's architecture —

* the **lease manager**, the first point of contact for every operation
  (local or arriving from the network); a refused lease aborts the
  operation before any other work happens;
* the **local tuple space**, where all this instance's tuples live; and
* the **communications manager**, which discovers peers, maintains the
  known-peer list, propagates operations, and fields remote requests —

and exposes the application API: the six Linda operations over the
opportunistic logical tuple space, the ``*_at`` handle-directed variants,
the reply-to-origin ``out_back``, and ``eval`` active tuples.

All remote interaction is asynchronous: operations return
:class:`~repro.core.ops.Operation` handles whose ``event`` a simulation
process can ``yield``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core import protocol
from repro.core.comms import CommsManager
from repro.core.config import TiamatConfig
from repro.core.evaltask import EvalTask
from repro.core.handles import SpaceHandle
from repro.core.ops import Operation
from repro.core.reliability import ReliableChannel
from repro.core.routing import RandomRelayRouter, Router, UnavailablePolicy
from repro.core.serving import QueryServer
from repro.errors import LeaseError, OperationAbandonedError
from repro.leasing import (
    LeaseManager,
    LeaseRequester,
    LeaseState,
    LeaseTerms,
    OperationKind,
    SimpleLeaseRequester,
)
from repro.leasing.policy import GrantPolicy
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import decode_tuple, encode_tuple, encoded_size


class TiamatInstance:
    """One node's Tiamat middleware.

    Only the identity triple ``(sim, network, name)`` is positional; every
    tunable is keyword-only.
    """

    #: Per-peer cap on witnessed remote-consume entry ids (oldest evicted).
    #: Sized so that even a node consuming from one peer at full tilt keeps
    #: a long enough memory to cover any plausible crash/restart window.
    WITNESS_CAP = 4096

    def __init__(self, sim: Simulator, network: Network, name: str, *,
                 policy: Optional[GrantPolicy] = None,
                 config: Optional[TiamatConfig] = None,
                 storage_capacity: Optional[int] = None,
                 thread_capacity: Optional[int] = None,
                 router: Optional[Router] = None,
                 space: Optional[LocalTupleSpace] = None) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.config = config if config is not None else TiamatConfig()
        self._rids = sim.ids("rid")
        self._op_ids = sim.ids("op")
        self.leases = LeaseManager(sim, policy=policy,
                                   storage_capacity=storage_capacity,
                                   thread_capacity=thread_capacity)
        # "The tuple space could be replaced with any system which
        # implements the six standard Linda operations" (3.1.2): callers
        # may supply their own (pre-populated or specialised) space.
        self.space = space if space is not None else LocalTupleSpace(sim, name=name)
        self.iface = network.attach(name, self._on_message)
        self.comms = CommsManager(sim, self.iface, self.config)
        self.server = QueryServer(self)
        self.reliability = ReliableChannel(self)
        self._detached = False
        self.router = router if router is not None else RandomRelayRouter(
            sim.rng(f"router/{name}"))
        self._ops: dict[str, Operation] = {}
        self._pending_remote_outs: dict[int, Event] = {}
        self.neighbor_since: dict[str, float] = {}
        self._unsubscribe_edges = network.visibility.on_edge_change(self._on_edge)
        self.space.on_removed(self._on_tuple_removed)
        # The special space-info tuple every Tiamat space contains (2.4).
        self.space.out(self.handle().to_tuple())
        # Anti-entropy witness state: for each peer, which of *that peer's*
        # entry ids this instance destructively consumed (recorded at every
        # CLAIM_ACCEPT send).  A durably-recovering peer asks for this set
        # so torn removal records cannot resurrect consumed tuples.
        self._consume_witness: dict[str, dict[int, None]] = {}
        # Rejoin-in-progress state (populated by recover_from).
        self._rejoin_map: dict[int, int] = {}
        self._rejoin_pending: set[str] = set()
        self._rejoin_sid: Optional[int] = None
        self._rejoin_timer = None
        # statistics
        self.ops_started = 0
        self.ops_satisfied_local = 0
        self.ops_satisfied_remote = 0
        self.ops_unsatisfied = 0
        self.relays_forwarded = 0
        self.relays_dropped = 0
        self.recoveries = 0
        self.tuples_restored = 0
        self.tuples_reclaimed = 0
        self.ghosts_purged = 0
        self.rejoin_dropped = 0
        self.sync_requests_sent = 0
        self.sync_responses_sent = 0
        self.rejoins_completed = 0
        self._recovery_observed = False
        # The opt-in sharded + replicated fabric (docs/PROTOCOL.md
        # section 11).  Imported lazily: with fabric=None (the default)
        # no fabric module loads and behaviour is bit-identical to the
        # union-scan seed.
        self.fabric = None
        if self.config.fabric is not None:
            from repro.fabric.manager import FabricManager

            self.fabric = FabricManager(self)
        sim.obs.observe_instance(self)
        # The node's black box: a preallocated ring of recent protocol
        # activity (repro.obs.flight), appended to directly from the hot
        # paths below and in serving/reliability.
        self.flight_ring = sim.obs.flight.ring(name)
        self._telemetry = None
        if self.config.telemetry_enabled:
            from repro.obs.telemetry import TelemetryPublisher

            self._telemetry = TelemetryPublisher(self).start()

    # ==================================================================
    # Application API: the six operations on the logical space
    # ==================================================================
    def out(self, tup: Tuple, requester: Optional[LeaseRequester] = None):
        """Deposit a tuple in the logical space under a negotiated lease.

        Returns the stored entry.  Raises a lease error (and stores
        nothing) when the lease manager refuses or the requester declines
        the offer — "if a lease is refused, no further work is carried out
        on the operation".

        With the fabric enabled, a tuple whose shard belongs to another
        instance is routed there (``FABRIC_OUT``) and ``None`` is
        returned: the owner negotiates its own lease for the deposit,
        exactly as with a handle-directed ``out``.
        """
        if self.fabric is not None and self.fabric.route_out(tup):
            return None
        return self._deposit_local(tup, requester=requester)

    def _deposit_local(self, tup: Tuple,
                       requester: Optional[LeaseRequester] = None):
        """Deposit into *this* space, bypassing fabric routing.

        Used by every directed deposit (handle-directed ``out``,
        ``out_back`` fallbacks, inbound ``REMOTE_OUT``/``FABRIC_OUT``):
        re-routing a directed deposit could loop under shard-map skew, and
        section 2.4's semantics pin the destination anyway.  A misplaced
        deposit converges via the fabric's rebalance migration.
        """
        size = encoded_size(tup)
        lease = self.leases.negotiate(self._requester(OperationKind.OUT, requester),
                                      OperationKind.OUT, storage_needed=size)
        entry = self.space.out(tup, expires_at=lease.expires_at,
                               meta={"lease": lease, "owner": self.name})
        lease.on_end(lambda l, state: self._on_out_lease_end(entry, state))
        if self.fabric is not None:
            self.fabric.register_primary(entry)
        return entry

    def eval(self, fn: Callable[..., Tuple], *args,
             compute_time: float = 0.0,
             requester: Optional[LeaseRequester] = None) -> EvalTask:
        """Run an active tuple: compute ``fn(*args)`` then deposit its result.

        The computation is charged against the eval lease; if the lease
        ends first the computation is halted and nothing is deposited.
        """
        lease = self.leases.negotiate(self._requester(OperationKind.EVAL, requester),
                                      OperationKind.EVAL)
        return EvalTask(self, fn, args, compute_time, lease)

    def rdp(self, pattern: Pattern,
            requester: Optional[LeaseRequester] = None) -> Operation:
        """Non-blocking read over the logical space (local, then peers)."""
        return self._start_op(OperationKind.RDP, pattern, requester)

    def inp(self, pattern: Pattern,
            requester: Optional[LeaseRequester] = None) -> Operation:
        """Non-blocking take over the logical space."""
        return self._start_op(OperationKind.INP, pattern, requester)

    def rd(self, pattern: Pattern,
           requester: Optional[LeaseRequester] = None) -> Operation:
        """Blocking read: waits (within the lease) for a match anywhere."""
        return self._start_op(OperationKind.RD, pattern, requester)

    def in_(self, pattern: Pattern,
            requester: Optional[LeaseRequester] = None) -> Operation:
        """Blocking take: exactly one tuple is consumed network-wide."""
        return self._start_op(OperationKind.IN, pattern, requester)

    # ==================================================================
    # Handle-directed variants (section 2.4)
    # ==================================================================
    def handle(self) -> SpaceHandle:
        """The handle on this instance's own space."""
        return SpaceHandle(self.name, self.config.persistent_space)

    def known_handles(self) -> list[SpaceHandle]:
        """Handles this instance can name right now (itself + known peers)."""
        return [self.handle()] + [SpaceHandle(p) for p in self.comms.plan()]

    def out_at(self, handle: SpaceHandle, tup: Tuple,
               duration: Optional[float] = None) -> Event:
        """Deposit a tuple in a specific remote space.

        The remote instance negotiates its own lease for the deposit (leases
        are not transferable).  The returned event succeeds with True when
        the remote acknowledged the deposit, False when it refused or could
        not be reached within the peer timeout.
        """
        rid = next(self._rids)
        event = self.sim.event()
        if handle.instance_name == self.name:
            try:
                self._deposit_local(tup)
                event.succeed(True)
            except Exception:
                event.succeed(False)
            return event
        if not self.iface.is_visible(handle.instance_name):
            event.succeed(False)
            return event
        self._pending_remote_outs[rid] = event
        # The deposit is retransmitted (if reliability is on) until acked,
        # but never past the peer-timeout that resolves the event anyway.
        self.send_reliable(handle.instance_name, {
            "kind": protocol.REMOTE_OUT,
            "rid": rid,
            "tuple": encode_tuple(tup),
            "duration": duration,
        }, deadline=self.sim.now + self.config.peer_timeout)
        self.sim.schedule(self.config.peer_timeout, self._remote_out_timeout, rid)
        return event

    def rdp_at(self, handle: SpaceHandle, pattern: Pattern,
               requester: Optional[LeaseRequester] = None) -> Operation:
        """Non-blocking read against one specific remote space."""
        return self._start_op(OperationKind.RDP, pattern, requester,
                              target=handle.instance_name)

    def inp_at(self, handle: SpaceHandle, pattern: Pattern,
               requester: Optional[LeaseRequester] = None) -> Operation:
        """Non-blocking take against one specific remote space."""
        return self._start_op(OperationKind.INP, pattern, requester,
                              target=handle.instance_name)

    def rd_at(self, handle: SpaceHandle, pattern: Pattern,
              requester: Optional[LeaseRequester] = None) -> Operation:
        """Blocking read against one specific remote space."""
        return self._start_op(OperationKind.RD, pattern, requester,
                              target=handle.instance_name)

    def in_at(self, handle: SpaceHandle, pattern: Pattern,
              requester: Optional[LeaseRequester] = None) -> Operation:
        """Blocking take against one specific remote space."""
        return self._start_op(OperationKind.IN, pattern, requester,
                              target=handle.instance_name)

    # ==================================================================
    # Reply-to-origin out (section 2.4)
    # ==================================================================
    def out_back(self, source: str, tup: Tuple,
                 policy: UnavailablePolicy = UnavailablePolicy.LOCAL,
                 duration: Optional[float] = None) -> str:
        """Deposit ``tup`` at the instance a prior result came from.

        ``source`` is the :attr:`Operation.source` of the earlier ``in``/
        ``rd``.  When the destination is not visible, ``policy`` decides:
        fall back to the local space, hand the tuple to a relay, or abandon
        (raising :class:`OperationAbandonedError`).  Returns how the tuple
        left this instance: ``"remote"``, ``"local"``, or ``"routed"``.
        """
        if source == self.name:
            self._deposit_local(tup)
            return "local"
        if self.iface.is_visible(source):
            self.send_reliable(source, {
                "kind": protocol.REMOTE_OUT,
                "rid": next(self._rids),
                "tuple": encode_tuple(tup),
                "duration": duration,
            }, deadline=self.sim.now + self.config.peer_timeout)
            return "remote"
        if policy is UnavailablePolicy.LOCAL:
            self._deposit_local(tup)
            return "local"
        if policy is UnavailablePolicy.ABANDON:
            raise OperationAbandonedError(
                f"destination {source!r} unavailable and policy is abandon")
        relay = self.router.choose_relay(self, source, exclude={self.name})
        if relay is None:
            self._deposit_local(tup)
            return "local"
        self.send(relay, {
            "kind": protocol.RELAY_OUT,
            "dst": source,
            "tuple": encode_tuple(tup),
            "duration": duration,
            "ttl": self.config.relay_ttl,
            "visited": [self.name],
        })
        return "routed"

    # ==================================================================
    # Internals: operation plumbing
    # ==================================================================
    def _start_op(self, kind: OperationKind, pattern: Pattern,
                  requester: Optional[LeaseRequester],
                  target: Optional[str] = None) -> Operation:
        tracer = self.sim.obs.tracer
        try:
            lease = self.leases.negotiate(self._requester(kind, requester), kind)
        except LeaseError:
            if tracer is not None:
                tracer.lease_event(None, self.name, "refused", op=kind.value)
            self.flight_ring.append(self.sim.now, "lease_refused", None,
                                    kind.value)
            raise
        op = Operation(self, kind, pattern, lease)
        if target is not None:
            op.target = target
        self._ops[op.op_id] = op
        self.ops_started += 1
        if tracer is not None:
            tracer.op_started(op.op_id, self.name, kind.value,
                              target=target,
                              lease_expires=lease.expires_at)
        self.flight_ring.append(self.sim.now, "op_start", op.op_id,
                                kind.value, target)
        op.start()
        return op

    def _requester(self, kind: OperationKind,
                   requester: Optional[LeaseRequester]) -> LeaseRequester:
        if requester is not None:
            return requester
        return SimpleLeaseRequester(self.config.default_terms(kind))

    def _operation_finished(self, op: Operation) -> None:
        if op.result is None:
            self.ops_unsatisfied += 1
        elif op.source == self.name:
            self.ops_satisfied_local += 1
        else:
            self.ops_satisfied_remote += 1
        if not op.contacted:
            self._ops.pop(op.op_id, None)   # no peer saw its op_id: no late offer
            return
        # Keep the record around briefly so late offers get clean rejects.
        linger = self.config.claim_timeout + self.config.peer_timeout
        self.sim.schedule(linger, self._ops.pop, op.op_id, None)

    def _on_out_lease_end(self, entry, state: LeaseState) -> None:
        if state is LeaseState.REVOKED and entry.visible:
            # Last-resort reclamation: the tuple goes with the lease.
            self.space.store.remove(entry.entry_id)
            self.space._notify_removed(entry, "expired")

    def _on_tuple_removed(self, entry, reason: str) -> None:
        lease = entry.meta.get("lease")
        # A migrated-away entry frees its funding lease just like a
        # consumed one: the tuple now lives (and is leased) elsewhere.  So
        # does a ghost the anti-entropy rejoin purged: it was consumed.
        if (lease is not None and lease.active
                and reason in ("consumed", "migrated", "reconciled")):
            lease.release()

    def deposit_eval_result(self, result: Tuple, lease) -> None:
        """Deposit an eval computation's resultant tuple (same lease)."""
        entry = self.space.out(result, expires_at=lease.expires_at,
                               meta={"lease": lease, "owner": self.name})
        lease.on_end(lambda l, state: self._on_out_lease_end(entry, state))

    # ==================================================================
    # Internals: network plumbing
    # ==================================================================
    def send(self, peer: str, payload: dict) -> bool:
        """Unicast a protocol frame; False if the peer was not visible."""
        if self._detached:
            return False  # a crashed/shut-down instance sends nothing
        if (self.fabric is not None
                and payload.get("kind") not in (protocol.REL_ACK,
                                                protocol.FABRIC_MAP)):
            # Shard-map digest piggyback: any ordinary frame doubles as an
            # anti-entropy probe, so skewed maps reconcile without waiting
            # for the next gossip heartbeat.
            payload = {**payload, "fmd": self.fabric.digest()}
        return self.iface.unicast(peer, payload)

    def send_reliable(self, peer: str, payload: dict,
                      deadline: Optional[float] = None) -> bool:
        """Send a critical frame through the ack/retransmit sublayer.

        ``deadline`` (absolute virtual time, normally the funding lease's
        expiry) bounds retransmission effort; with
        ``config.reliability_enabled`` off this degrades to a plain
        best-effort :meth:`send` (the paper's prototype behaviour).
        """
        if not self.config.reliability_enabled:
            return self.send(peer, payload)
        return self.reliability.send(peer, payload, deadline)

    def _on_message(self, msg: Message) -> None:
        kind = msg.kind
        payload = msg.payload
        src = msg.src
        if kind == protocol.REL_ACK:
            self.reliability.on_ack(src, payload)
            return
        if ("rseq" in payload and self.config.reliability_enabled
                and not self.reliability.on_receive(src, payload)):
            return  # duplicate of an already-dispatched reliable frame
        if self.fabric is not None and "fmd" in payload:
            self.fabric.on_digest(src, payload["fmd"])
        if kind == protocol.DISCOVER:
            self.comms.note_alive(src)
            self.send(src, {"kind": protocol.DISCOVER_ACK, "did": payload["did"]})
        elif kind == protocol.DISCOVER_ACK:
            self.comms.on_discover_ack(src, payload["did"])
        elif kind == protocol.QUERY:
            self.comms.note_alive(src)
            self.server.handle_query(src, payload)
        elif kind in (protocol.QUERY_REPLY, protocol.QUERY_REFUSED):
            op = self._ops.get(payload["op_id"])
            if op is not None:
                op.deliver_reply(src, payload)
            elif payload.get("found") and payload.get("entry_id") is not None:
                # The operation is gone; put the held tuple back.
                self.send_reliable(
                    src, {"kind": protocol.CLAIM_REJECT,
                          "op_id": payload["op_id"],
                          "entry_id": payload["entry_id"]},
                    deadline=self.sim.now + self.config.claim_timeout)
        elif kind == protocol.CANCEL:
            self.server.handle_cancel(src, payload)
        elif kind == protocol.CLAIM_ACCEPT:
            self.server.handle_claim_accept(src, payload)
        elif kind == protocol.CLAIM_REJECT:
            self.server.handle_claim_reject(src, payload)
        elif kind == protocol.REMOTE_OUT:
            self._handle_remote_out(src, payload)
        elif kind == protocol.REMOTE_OUT_ACK:
            event = self._pending_remote_outs.pop(payload["rid"], None)
            if event is not None and not event.triggered:
                event.succeed(payload["ok"])
        elif kind == protocol.RELAY_OUT:
            self._handle_relay_out(src, payload)
        elif kind == protocol.SYNC_REQUEST:
            self._handle_sync_request(src, payload)
        elif kind == protocol.SYNC_RESPONSE:
            self._handle_sync_response(src, payload)
        elif kind in protocol.FABRIC_KINDS:
            if self.fabric is not None:
                self.comms.note_alive(src)
                self.fabric.handle(kind, src, payload)

    def _handle_remote_out(self, src: str, payload: dict) -> None:
        tup = decode_tuple(payload["tuple"])
        duration = payload.get("duration")
        requester = (SimpleLeaseRequester(self.config.default_terms(OperationKind.OUT))
                     if duration is None
                     else SimpleLeaseRequester(
                         self.config.default_terms(OperationKind.OUT).capped(
                             duration=duration)))
        try:
            self._deposit_local(tup, requester=requester)
            ok = True
        except Exception:
            ok = False
        # The ack is itself reliable: if it is lost, the depositor would
        # otherwise retransmit REMOTE_OUT, be dedup-swallowed here, and
        # time out believing the deposit failed.
        self.send_reliable(src, {"kind": protocol.REMOTE_OUT_ACK,
                                 "rid": payload["rid"], "ok": ok},
                           deadline=self.sim.now + self.config.peer_timeout)

    def _handle_relay_out(self, src: str, payload: dict) -> None:
        dst = payload["dst"]
        if self.iface.is_visible(dst):
            self.relays_forwarded += 1
            self.send_reliable(dst, {"kind": protocol.REMOTE_OUT,
                                     "rid": next(self._rids),
                                     "tuple": payload["tuple"],
                                     "duration": payload.get("duration")},
                               deadline=self.sim.now + self.config.peer_timeout)
            return
        ttl = payload.get("ttl", 0)
        visited = set(payload.get("visited", []))
        visited.add(self.name)
        if ttl <= 0:
            self.relays_dropped += 1
            return
        relay = self.router.choose_relay(self, dst, exclude=visited)
        if relay is None:
            self.relays_dropped += 1
            return
        self.relays_forwarded += 1
        self.send(relay, {"kind": protocol.RELAY_OUT, "dst": dst,
                          "tuple": payload["tuple"],
                          "duration": payload.get("duration"),
                          "ttl": ttl - 1,
                          "visited": sorted(visited)})

    def _remote_out_timeout(self, rid: int) -> None:
        event = self._pending_remote_outs.pop(rid, None)
        if event is not None and not event.triggered:
            event.succeed(False)

    def _on_edge(self, a: str, b: str, visible: bool) -> None:
        if self.name not in (a, b):
            return
        peer = b if a == self.name else a
        if visible:
            self.neighbor_since[peer] = self.sim.now
        else:
            self.neighbor_since.pop(peer, None)

    # ==================================================================
    # Persistence (section 2.4): recovery from a storage backend + the
    # anti-entropy rejoin (docs/PROTOCOL.md section 10)
    # ==================================================================
    def note_remote_consume(self, peer: str, entry_id: int) -> None:
        """Witness a destructive consume of ``peer``'s entry ``entry_id``.

        Called at every CLAIM_ACCEPT send; if ``peer`` later crashes and
        durably recovers, its SYNC_REQUEST collects these so tuples whose
        removal record was torn off its log are purged, not resurrected.
        """
        witnessed = self._consume_witness.setdefault(peer, {})
        witnessed[entry_id] = None
        while len(witnessed) > self.WITNESS_CAP:
            del witnessed[next(iter(witnessed))]

    def recover_from(self, backend, downtime: float = 0.0,
                     charge_downtime: bool = True, sync: bool = True,
                     sync_timeout: Optional[float] = None):
        """Repopulate the local space from a durable storage backend.

        Replays ``backend``'s surviving entries into the space, lease-aware:
        with ``charge_downtime`` (the default) expiry deadlines stay
        absolute, so leases kept burning while the node was down and any
        that ran out are reclaimed instead of restored; with it off, each
        lease's remaining time *as of the crash* (``downtime`` seconds ago)
        is re-anchored to the current clock.  Every survivor is re-admitted
        through the lease manager (an ``out`` lease for the time it has
        left, its bytes charged to storage); one the manager refuses counts
        as reclaimed.  Entry ids are bumped past the backend's high-water
        mark first, so ids never recur across incarnations (see
        :mod:`repro.tuples.storage.base`).

        With ``sync`` (the default), restored entries enter *quarantined*
        (held, invisible) and an anti-entropy rejoin asks every visible
        peer which entry ids it consumed during the downtime; witnessed
        ghosts are purged and the survivors released once every peer
        answers.  If ``sync_timeout`` (default ``2 * config.peer_timeout``)
        closes the window with peers unheard, still-quarantined tuples are
        **dropped**, not released — a torn removal record must never
        resurrect a consumed tuple, so unverifiable entries lose.  Returns
        a :class:`~repro.tuples.storage.base.RecoveryStats`.
        """
        from repro.tuples.storage.base import RecoveryStats

        replayed_before = backend.records_replayed
        torn_before = backend.torn_truncations
        state = backend.recover()
        now = self.sim.now
        self.space.store.bump_ids(state.high_water)
        restored = 0
        reclaimed = 0
        durable_map: dict[int, int] = {}
        # Leases burned until now (downtime charged) or only until the crash.
        burned_until = now if charge_downtime else now - downtime
        for durable_id, tup, expires_at in state.entries:
            left = None if expires_at is None else expires_at - burned_until
            if left is not None and left <= 0:
                reclaimed += 1
                continue
            # A survivor is re-admitted like any deposit: the lease that
            # granted it died with the previous incarnation, so the manager
            # grants a fresh one for the time it has left — or refuses, and
            # the tuple is reclaimed rather than stored unaccounted.
            try:
                lease = self.leases.negotiate(
                    SimpleLeaseRequester(LeaseTerms(duration=left)),
                    OperationKind.OUT, storage_needed=encoded_size(tup))
            except LeaseError:
                reclaimed += 1
                continue
            # Restored under its original id: durable id == store id ==
            # wire id in every incarnation, so peer witness records (and
            # the WAL's own history) keep naming the same tuple forever.
            entry = self.space.restore_entry(
                tup, expires_at=lease.expires_at,
                meta={"lease": lease, "owner": self.name,
                      "durable_id": durable_id},
                quarantine=sync, entry_id=durable_id)
            lease.on_end(lambda l, ended, entry=entry:
                         self._on_out_lease_end(entry, ended))
            restored += 1
            if entry.entry_id:
                durable_map[durable_id] = entry.entry_id
        backend.rebind(self.space)
        self.recoveries += 1
        self.tuples_restored += restored
        self.tuples_reclaimed += reclaimed
        if not self._recovery_observed:
            self._recovery_observed = True
            self.sim.obs.observe_recovery(self)
        self.flight_ring.append(
            now, "recover", None, None, None,
            f"restored={restored} reclaimed={reclaimed}")
        from repro.obs.flight import dump_to_env_dir

        dump_to_env_dir(self.sim.obs.flight, f"recover-{self.name}",
                        detail={"node": self.name, "restored": restored,
                                "reclaimed": reclaimed, "downtime": downtime})
        if sync:
            timeout = (sync_timeout if sync_timeout is not None
                       else 2 * self.config.peer_timeout)
            self._begin_rejoin(durable_map, timeout)
        return RecoveryStats(
            restored=restored, reclaimed=reclaimed,
            replayed=backend.records_replayed - replayed_before,
            torn_truncations=backend.torn_truncations - torn_before)

    def _begin_rejoin(self, durable_map: dict, timeout: float) -> None:
        peers = sorted(self.network.visibility.neighbors(self.name))
        self._rejoin_map = dict(durable_map)
        self._rejoin_pending = set(peers)
        if not peers or not durable_map:
            self._finish_rejoin()
            return
        sid = next(self._rids)
        self._rejoin_sid = sid
        for peer in peers:
            self.sync_requests_sent += 1
            self.send_reliable(peer, {"kind": protocol.SYNC_REQUEST,
                                      "sid": sid},
                               deadline=self.sim.now + timeout)
        self._rejoin_timer = self.sim.schedule(timeout, self._rejoin_timeout)

    def _handle_sync_request(self, src: str, payload: dict) -> None:
        self.comms.note_alive(src)
        # Normally a rejoining node asks about its *own* entries; the
        # fabric's promotion path instead asks about a dead third party's
        # (payload["owner"]) before releasing its quarantined replicas.
        owner = payload.get("owner", src)
        witnessed = self._consume_witness.get(owner, {})
        self.sync_responses_sent += 1
        self.send_reliable(src, {"kind": protocol.SYNC_RESPONSE,
                                 "sid": payload["sid"],
                                 "consumed": sorted(witnessed)},
                           deadline=self.sim.now + self.config.peer_timeout)

    def _handle_sync_response(self, src: str, payload: dict) -> None:
        sid = payload.get("sid")
        if isinstance(sid, int) and sid < 0:
            # Negative sids namespace the fabric's promotion syncs away
            # from rejoin sids (which come from the positive rid stream).
            if self.fabric is not None:
                self.fabric.on_sync_response(src, payload)
            return
        if self._rejoin_sid is None or sid != self._rejoin_sid:
            return
        for durable_id in payload.get("consumed", ()):
            entry_id = self._rejoin_map.pop(durable_id, None)
            if entry_id is not None:
                self._purge_ghost(entry_id)
        self._rejoin_pending.discard(src)
        if not self._rejoin_pending:
            self._finish_rejoin()

    def _purge_ghost(self, entry_id: int) -> None:
        entry = self.space.store.get(entry_id)
        if entry is None or entry.removed:
            return
        self.space.store.remove(entry_id)
        self.ghosts_purged += 1
        # A reconciliation purge is not a consume: no space.consume probe,
        # so the exactly-once oracle keeps seeing one consume per deposit.
        self.space._notify_removed(entry, "reconciled")

    def _rejoin_timeout(self) -> None:
        # The sync window closed with peers unheard: a still-quarantined
        # tuple might be a ghost those peers consumed, so drop rather than
        # risk a second destructive take.  Safety over availability — the
        # peers that did answer already had their witnessed ids purged.
        self._rejoin_timer = None
        self._finish_rejoin(release=False)

    def _finish_rejoin(self, release: bool = True) -> None:
        """End the rejoin: release survivors, or drop them unverified."""
        if self._rejoin_timer is not None:
            self._rejoin_timer.cancel()
            self._rejoin_timer = None
        self._rejoin_sid = None
        self._rejoin_pending = set()
        remaining = sorted(self._rejoin_map.values())
        self._rejoin_map = {}
        for entry_id in remaining:
            entry = self.space.store.get(entry_id)
            if entry is None or not entry.held:
                continue
            if release:
                self.space.release(entry_id)
            else:
                self.space.store.remove(entry_id)
                self.rejoin_dropped += 1
                self.space._notify_removed(entry, "reconciled")
        self.rejoins_completed += 1

    # ==================================================================
    def shutdown(self) -> None:
        """Detach from the network (the local space survives in memory).

        Shutdown is abrupt, like a power cut: no goodbye frames are sent
        (``send`` is suppressed first), retransmission timers are
        cancelled, every remote serving is closed (held entries released,
        leases returned, worker threads freed), and this instance's own
        open operations are finalized unsatisfied so no timer or waiter
        outlives the instance.
        """
        if self._detached:
            return
        self._detached = True
        if self.fabric is not None:
            self.fabric.stop()
        if self._telemetry is not None:
            self._telemetry.stop()
        if self._rejoin_timer is not None:
            self._rejoin_timer.cancel()
            self._rejoin_timer = None
        self._rejoin_sid = None
        self._rejoin_map = {}
        self._rejoin_pending = set()
        self.reliability.shutdown()
        self.server.close_all()
        for op in list(self._ops.values()):
            if not op.done:
                op.cancel()
        self._unsubscribe_edges()
        self.network.detach(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TiamatInstance {self.name} tuples={self.space.count()}>"
