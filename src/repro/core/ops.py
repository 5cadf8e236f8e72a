"""Origin-side operation engine: how an instance runs the six Linda ops
over its opportunistic logical tuple space.

An :class:`Operation` is the handle returned to the application.  Its
``event`` succeeds with the matching :class:`~repro.tuples.Tuple` — or with
``None`` if the operation's lease expired first (the model's deliberate
semantic alteration for blocking operations, section 2.5).  ``source``
records which instance supplied the tuple, enabling the reply-to-origin
``out`` variant of section 2.4.

Operation shapes:

* **probes** (``rdp``/``inp``) sample the *current* logical space: the local
  space first, in the call, then known peers contacted in turn from the top
  of the visibility list, then (if still unsatisfied) a discovery multicast
  and the fresh responders — each contact gated on the lease's remote budget.
* **blocking** (``rd``/``in``) register a local waiter *and* fan the query
  out to peers, which register waiters of their own; the first match wins.
  For destructive ``in`` the remote match is *held* and offered; the origin
  accepts exactly one offer and rejects the rest, so exactly one tuple is
  consumed network-wide.
* In ``continuous`` propagation mode, instances that become visible during
  the operation's lease are contacted as they appear.
"""

from __future__ import annotations

from typing import Optional

from repro.check import probes
from repro.core import protocol
from repro.core.admission import Refusal, parse_refusal
from repro.leasing import Lease, OperationKind
from repro.sim.events import AnyOf, Event
from repro.tuples import Pattern, Tuple, encode_pattern
from repro.tuples.serialization import decode_tuple


class Operation:
    """A running (or finished) logical-tuple-space operation."""

    def __init__(self, instance, kind: OperationKind, pattern: Optional[Pattern],
                 lease: Lease) -> None:
        self.instance = instance
        self.kind = kind
        self.pattern = pattern
        self.lease = lease
        self.op_id = f"{instance.name}#{next(instance._op_ids)}"
        self.started_at: float = instance.sim.now
        self.target: Optional[str] = None  # set for handle-directed variants
        self.event: Event = instance.sim.event()
        self.done = False
        self.result: Optional[Tuple] = None
        self.source: Optional[str] = None
        self.contacted: list[str] = []
        #: Structured refusals received so far (one :class:`Refusal` per
        #: QUERY_REFUSED frame), so callers can distinguish "nothing
        #: matched" from "the peer shed the work, retry in 0.3 s".
        self.refusals: list[Refusal] = []
        self._closed_peers: set[str] = set()
        self._local_waiter = None
        self._reply_events: dict[str, Event] = {}
        self._unsubscribe_visibility = None
        self._unsubscribe_fabric = None
        self._refusal_attempts: dict[str, int] = {}
        lease.on_end(self._on_lease_end)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def satisfied(self) -> bool:
        """True when the operation finished with a match."""
        return self.done and self.result is not None

    def cancel(self) -> None:
        """Abort the operation (its event succeeds with None)."""
        self._finalize(None, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off the operation (called by the instance)."""
        if self.target is not None:
            self._start_directed()
            return
        # The local space first, in the call: a hit schedules nothing but
        # this operation's event; only a miss goes on to the peers.
        space = self.instance.space
        take = self.kind in (OperationKind.INP, OperationKind.IN)
        local = space.inp(self.pattern) if take else space.rdp(self.pattern)
        if local is not None:
            self._finalize(local, self.instance.name)
        elif self.kind in (OperationKind.INP, OperationKind.RDP):
            self.instance.sim.spawn(self._probe_process())
        else:
            self._start_blocking(take)

    def _start_directed(self) -> None:
        """Handle-directed variant: only the named remote space is used.

        No local probe, no discovery, no fan-out — "perform the operation
        requested on the remote space specified" (section 2.4).
        """
        if self.kind in (OperationKind.INP, OperationKind.RDP):
            self.instance.sim.spawn(self._directed_probe_process())
        else:
            self._contact_blocking(self.target)
            if self.target not in self.contacted:
                # Not visible (or no remote budget): the operation cannot
                # reach its designated space.
                self._finalize(None, None)

    def _directed_probe_process(self):
        yield from self._probe_peers([self.target])
        if not self.done:
            self._finalize(None, None)

    def _on_lease_end(self, lease, state) -> None:
        # Fired for expiry and revocation; also for our own release in
        # _finalize, which the `done` guard absorbs.
        if not self.done:
            self._finalize(None, None)

    def _finalize(self, result: Optional[Tuple], source: Optional[str]) -> None:
        if self.done:
            return
        self.done = True
        self.result = result
        self.source = source
        if probes.SINK is not None:
            probes.emit("op.finished", op_id=self.op_id, node=self.instance.name,
                        kind=self.kind.value, satisfied=result is not None,
                        source=source, tup=result)
        if self._local_waiter is not None:
            self._local_waiter.cancel()
            self._local_waiter = None
        if self._unsubscribe_visibility is not None:
            self._unsubscribe_visibility()
            self._unsubscribe_visibility = None
        if self._unsubscribe_fabric is not None:
            self._unsubscribe_fabric()
            self._unsubscribe_fabric = None
        # Withdraw the operation from every peer still working on it
        # (peers that already answered have nothing ongoing to cancel).
        for peer in self.contacted:
            if peer != source and peer not in self._closed_peers:
                self.instance.send(peer, {"kind": protocol.CANCEL, "op_id": self.op_id})
        if self.lease.active:
            self.lease.release()
        obs = self.instance.sim.obs
        if obs.tracer is not None:
            obs.tracer.op_finished(self.op_id, self.instance.name,
                                   result is not None, source)
        now = self.instance.sim.now
        self.instance.flight_ring.append(
            now, "op_end", self.op_id, self.kind.value, source,
            "ok" if result is not None else "miss")
        obs.slo.record(self.kind.value, now - self.started_at, self.op_id,
                       self.instance.name, ring=self.instance.flight_ring)
        self.event.succeed(result)
        self.instance._operation_finished(self)

    # ------------------------------------------------------------------
    # Probe engine (rdp / inp)
    # ------------------------------------------------------------------
    def _probe_process(self):
        """The remote half of a probe, after :meth:`start`'s local miss."""
        fabric = self.instance.fabric
        if fabric is not None and fabric.active() and fabric.routes(self.pattern):
            # Fabric routing: contact the shard's O(k) owner set (or the
            # bounded scatter for a wildcard prefix).  No discovery, no
            # union walk — that is the whole point.
            yield from self._probe_peers(fabric.plan(self.pattern))
            if not self.done:
                self._finalize(None, None)
            return
        comms = self.instance.comms
        if self.instance.config.comms_strategy == "multicast":
            yield comms.discover()
            yield from self._probe_peers(comms.plan())
        else:
            yield from self._probe_peers(comms.plan())
            if not self.done and self.lease.active:
                fresh = yield comms.discover()
                if not self.done:
                    yield from self._probe_peers(fresh)
        if not self.done:
            self._finalize(None, None)

    def _probe_peers(self, peers: list[str]):
        """Contact peers one at a time, top of the list first."""
        sim = self.instance.sim
        for peer in peers:
            if self.done or not self.lease.active:
                return
            if peer in self.contacted:
                continue
            if not self.lease.use_remote():
                return
            reply_event = sim.event()
            self._reply_events[peer] = reply_event
            if not self._send_query(peer):
                self.lease.remotes_used -= 1  # a failed send is not a contact
                self.instance.comms.note_dead(peer)
                self._reply_events.pop(peer, None)
                continue
            self.contacted.append(peer)
            timeout = sim.timeout(self.instance.config.peer_timeout)
            outcome = yield AnyOf(sim, [reply_event, timeout])
            timeout.cancel()
            self._reply_events.pop(peer, None)
            if self.done:
                return
            if reply_event not in outcome:
                self.instance.comms.note_dead(peer)
                continue
            payload = reply_event.value
            if payload.get("found"):
                tup = decode_tuple(payload["tuple"])
                if self.kind is OperationKind.INP:
                    self.instance.note_remote_consume(peer, payload["entry_id"])
                    self.instance.send_reliable(peer, {
                        "kind": protocol.CLAIM_ACCEPT,
                        "op_id": self.op_id,
                        "entry_id": payload["entry_id"],
                    }, deadline=self._claim_deadline())
                self._finalize(tup, peer)
                return
            # negative reply: peer is alive, move down the list

    # ------------------------------------------------------------------
    # Blocking engine (rd / in)
    # ------------------------------------------------------------------
    def _start_blocking(self, take: bool) -> None:
        """The rest of an rd/in after :meth:`start`'s local miss."""
        waiter = self.instance.space.wait(self.pattern, remove=take)
        self._local_waiter = waiter
        waiter.event.add_callback(self._on_local_match)
        fabric = self.instance.fabric
        if fabric is not None and fabric.active() and fabric.routes(self.pattern):
            # Contact the owner set now and re-plan whenever the shard map
            # changes (a promotion or handoff can move the match's home
            # mid-wait); the map subscription replaces discovery fan-out.
            self._unsubscribe_fabric = fabric.on_change(self._on_fabric_change)
            peers = fabric.plan(self.pattern)
            if peers:
                self._contact_blocking(peers[0])
            # Backup owners are insurance: in steady state the match lives
            # at its shard primary, so immediate fan-out to the whole
            # owner set pays k frames for every operation.  Stagger the
            # rest behind half a peer-timeout each — failover costs a
            # little latency, the common case costs O(1) frames.
            stagger = self.instance.config.peer_timeout / 2
            for i, peer in enumerate(peers[1:], start=1):
                self.instance.sim.schedule(i * stagger,
                                           self._contact_backup, peer)
            return
        if self.instance.config.propagate_mode == "continuous":
            self._unsubscribe_visibility = (
                self.instance.network.visibility.on_edge_change(self._on_edge_change)
            )
        self.instance.sim.spawn(self._blocking_contact_process())

    def _blocking_contact_process(self):
        comms = self.instance.comms
        plan = comms.plan()
        if self.instance.config.comms_strategy == "multicast" or not plan:
            yield comms.discover()
            plan = comms.plan()
        for peer in plan:
            if self.done or not self.lease.active:
                return
            self._contact_blocking(peer)
        if self.instance.config.comms_strategy != "mru":
            return
        # "If the end of the list is reached, and the request is not
        # satisfied, then another multicast may be used to try and find
        # more instances" (3.1.3).  Give the contacted peers one
        # peer-timeout of grace before spending the multicast.
        yield self.instance.sim.timeout(self.instance.config.peer_timeout)
        if self.done or not self.lease.active:
            return
        yield comms.discover()
        if self.done or not self.lease.active:
            return
        for peer in comms.plan():
            if self.done:
                return
            self._contact_blocking(peer)

    def _contact_blocking(self, peer: str) -> None:
        if peer in self.contacted or peer == self.instance.name:
            return
        if not self.lease.use_remote():
            return
        if not self._send_query(peer):
            self.lease.remotes_used -= 1
            self.instance.comms.note_dead(peer)
            return
        self.contacted.append(peer)

    def _contact_backup(self, peer: str) -> None:
        """Deferred contact of a backup shard owner (see _start_blocking)."""
        if self.done or not self.lease.active:
            return
        self._contact_blocking(peer)

    def _on_local_match(self, event: Event) -> None:
        self._local_waiter = None
        self._finalize(event.value, self.instance.name)

    def _on_fabric_change(self) -> None:
        """Shard map changed: contact any owners not yet holding the query.

        Re-plans without re-recording scatter width (one sample per
        logical operation).  Peers already contacted keep their standing
        query; ``_contact_blocking`` dedups them.
        """
        if self.done or not self.lease.active:
            return
        for peer in self.instance.fabric.plan(self.pattern, record=False):
            if self.done:
                return
            self._contact_blocking(peer)

    def _on_edge_change(self, a: str, b: str, visible: bool) -> None:
        """Continuous propagation: contact instances that become visible."""
        if self.done or not visible:
            return
        me = self.instance.name
        if me not in (a, b):
            return
        peer = b if a == me else a
        self.instance.comms.note_alive(peer)
        self._contact_blocking(peer)

    # ------------------------------------------------------------------
    # Message-driven callbacks (invoked by the instance dispatcher)
    # ------------------------------------------------------------------
    def deliver_reply(self, peer: str, payload: dict) -> None:
        """A QUERY_REPLY / QUERY_REFUSED arrived for this operation."""
        self.instance.comms.note_alive(peer)
        self._closed_peers.add(peer)
        refused = payload.get("kind") == protocol.QUERY_REFUSED
        if refused:
            self.refusals.append(parse_refusal(peer, payload))
        pending = self._reply_events.get(peer)
        if pending is not None and not pending.triggered:
            # A probe is synchronously waiting on this peer.
            pending.succeed(payload)
            return
        if refused or not payload.get("found"):
            if refused:
                self._maybe_backoff_retry(self.refusals[-1])
            return
        # Unsolicited positive reply: a blocking operation's match (or a
        # probe reply that arrived after its per-peer timeout).
        entry_id = payload.get("entry_id")
        if self.done:
            if entry_id is not None:
                self.instance.send_reliable(peer, {
                    "kind": protocol.CLAIM_REJECT,
                    "op_id": self.op_id,
                    "entry_id": entry_id,
                }, deadline=self._claim_deadline())
            return
        tup = decode_tuple(payload["tuple"])
        if entry_id is not None:
            self.instance.note_remote_consume(peer, entry_id)
            self.instance.send_reliable(peer, {
                "kind": protocol.CLAIM_ACCEPT,
                "op_id": self.op_id,
                "entry_id": entry_id,
            }, deadline=self._claim_deadline())
        self._finalize(tup, peer)

    # ------------------------------------------------------------------
    # Backoff after a shed refusal (admission control, honoring the hint)
    # ------------------------------------------------------------------
    def _maybe_backoff_retry(self, refusal: Refusal) -> None:
        """Re-contact a refusing peer after capped exponential backoff.

        Only blocking operations retry (probes have their own move-on
        ladder), and only refusals carrying a ``retry_after`` hint — i.e.
        admission-control sheds — trigger it, so behaviour against
        uncontrolled peers is unchanged.  The delay honours the hint as a
        floor, grows exponentially with the per-peer attempt count, is
        capped, and carries multiplicative jitter so synchronized losers
        do not re-arrive in lockstep.  Every retry still spends one unit
        of the lease's remote budget: backoff is lease-priced, not free.
        """
        if (self.done or refusal.retry_after is None
                or self.kind not in (OperationKind.RD, OperationKind.IN)
                or not self.lease.active):
            return
        config = self.instance.config
        peer = refusal.peer
        attempt = self._refusal_attempts.get(peer, 0)
        self._refusal_attempts[peer] = attempt + 1
        delay = min(config.retry_initial * (config.retry_backoff ** attempt),
                    config.retry_max_interval)
        delay = max(delay, refusal.retry_after)
        rng = self.instance.sim.rng(f"backoff/{self.instance.name}")
        delay *= 1.0 + config.retry_jitter * rng.random()
        remaining = self.lease.remaining_time(self.instance.sim.now)
        if remaining is not None and delay >= remaining:
            return  # the lease will have ended; a retry could not be served
        self.instance.sim.schedule(delay, self._retry_refused, peer)

    def _retry_refused(self, peer: str) -> None:
        if self.done or not self.lease.active:
            return
        # Forget the previous contact so _contact_blocking re-sends (the
        # retry consumes a fresh unit of the lease's remote budget).
        if peer in self.contacted:
            self.contacted.remove(peer)
        self._closed_peers.discard(peer)
        self._contact_blocking(peer)

    def _claim_deadline(self) -> float:
        """How long claim-resolution frames may be retransmitted.

        Bounded by the operation's lease (the only effort budget, §2.5) and
        by the serving side's claim window — after ``claim_timeout`` the
        holder has already resolved the claim locally, so further retries
        are pure waste.  A lease that has already expired yields a deadline
        in the past: the frame is sent once and never retried.
        """
        deadline = self.instance.sim.now + self.instance.config.claim_timeout
        if self.lease.expires_at is not None:
            deadline = min(deadline, self.lease.expires_at)
        return deadline

    # ------------------------------------------------------------------
    def _send_query(self, peer: str) -> bool:
        remaining = self.lease.remaining_time(self.instance.sim.now)
        payload = {
            "kind": protocol.QUERY,
            "op_id": self.op_id,
            "op": self.kind.value,
            "pattern": encode_pattern(self.pattern),
            "deadline": remaining,
        }
        if self.kind in (OperationKind.RD, OperationKind.IN):
            # A blocking operation contacts each peer exactly once; a lost
            # QUERY would silently amputate that peer from the logical
            # space for the operation's whole lifetime (probes, by
            # contrast, have their own timeout-and-move-on ladder).  So
            # blocking QUERYs travel reliably, with retransmission effort
            # bounded by the operation's lease — still the only budget.
            if not self.instance.iface.is_visible(peer):
                return False
            return self.instance.send_reliable(
                peer, payload, deadline=self.lease.expires_at)
        return self.instance.send(peer, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "open"
        return f"<Operation {self.op_id} {self.kind.value} {state}>"
