"""Serving side: how an instance works on *other* instances' operations.

When a QUERY arrives, the receiving instance first consults the admission
plane (when enabled): the :class:`~repro.core.admission.AdmissionController`
prices the work from live load signals *before* any lease or thread is
allocated, and sheds with a structured refusal carrying ``reason`` and a
``retry_after`` hint.  Admitted work then negotiates an internal lease for
the effort — "any Tiamat instance which, during the course of performing an
operation, places demands on another, is responsible for negotiating any
further leases" (section 2.5), and the lease manager is the first point of
contact for *any* operation (Figure 2).  A refusal is reported back as
QUERY_REFUSED and no work happens.

With ``config.serve_cost > 0`` the server models dispatch effort
explicitly: admitted QUERYs enter a bounded inbound queue drained by
``config.serve_workers`` dispatch workers, each query costing
``serve_cost`` virtual seconds of worker time before its probe/watch logic
runs.  The default (``serve_cost == 0``) keeps the original inline path —
arrival and dispatch are the same instant — so seeded experiments are
unperturbed unless a config opts in.

Probe queries are answered from the local space at dispatch.  Blocking
queries register a local watch that lives until a match, a CANCEL, or the
serving lease's expiry.  Destructive matches are **held** (two-phase) and
*offered* to the origin; the hold is resolved by CLAIM_ACCEPT (consume),
CLAIM_REJECT (put back), or a claim timeout (put back — the origin
evidently went away).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.core import protocol
from repro.core.admission import (
    REFUSE_SERVING_LEASE,
    REFUSE_THREADS,
    RETRY_FLOOR,
    AdmissionController,
)
from repro.errors import LeaseError
from repro.leasing import Lease, LeaseTerms, OperationKind, SimpleLeaseRequester
from repro.tuples import Pattern, Tuple, decode_pattern, encode_tuple

#: Cap on the lease a serving instance grants itself for working on a
#: remote instance's operation.
SERVE_MAX_DURATION = 60.0

#: A QUERY's ``op`` label -> its kind, without ``Enum.__call__``.
_OP_KINDS = {kind.label: kind for kind in OperationKind}

#: The last QUERY pattern decoded, with the wire list it came from (at
#: first a sentinel no payload holds).  An operation shares one list
#: across its QUERYs and receivers only read payloads, so every peer
#: after the first reuses the decode; holding the list keeps its id from
#: being reused.
_decoded: tuple = (object(), None)


class Serving:
    """State for one remote operation this instance is working on."""

    __slots__ = ("server", "op_id", "origin", "kind", "pattern", "lease",
                 "waiter", "held_entry_id", "offered", "claim_timer", "closed",
                 "thread_token")

    def __init__(self, server: "QueryServer", op_id: str, origin: str,
                 kind: OperationKind, pattern: Pattern, lease: Lease,
                 thread_token: Optional[Any] = None) -> None:
        self.server = server
        self.op_id = op_id
        self.origin = origin
        self.kind = kind
        self.pattern = pattern
        self.lease = lease
        self.waiter: Optional[Any] = None
        self.held_entry_id: Optional[int] = None
        self.offered = False
        self.claim_timer: Optional[Any] = None
        self.closed = False
        self.thread_token: Optional[Any] = thread_token

    def lease_ended(self, lease: Lease, state: Any) -> None:
        """Close on the serving lease's end, unless an offer is outstanding:
        the claim timer resolves that."""
        if not self.closed and (not self.offered or self.held_entry_id is None):
            self.server._close(self)

    def matched(self, event: Any) -> None:
        """The watch's waiter fired with a matching tuple."""
        self.server._on_watch_match(self, event.value)


class QueryServer:
    """The instance-side machinery for answering remote queries."""

    def __init__(self, instance: Any) -> None:
        self.instance = instance
        self._servings: dict[str, Serving] = {}
        config = instance.config
        # The admission plane: consulted at QUERY arrival, before any
        # lease negotiation or thread allocation (default off).
        self.admission: Optional[AdmissionController] = None
        if config.admission_enabled:
            self.admission = AdmissionController(
                clock=lambda: self.instance.sim.now,
                queue_bound=config.admission_queue_bound,
                capacity_rate=float(config.serve_workers),
                unit_cost=config.serve_cost,
            )
        # Bounded inbound serving queue (active only with serve_cost > 0):
        # (origin, payload, arrived_at) triples drained by dispatch workers.
        self._queue: deque[tuple[str, dict, float]] = deque()
        self._queued_ids: set[str] = set()
        self._busy_workers = 0
        #: The serving-lease requester, reused while the duration repeats.
        self._requester: Optional[SimpleLeaseRequester] = None
        if config.serve_cost > 0:
            # Serving-queue pressure feeds the lease manager's usage
            # snapshot, so granting policies see inbound congestion the
            # same way they see storage and thread pressure.
            instance.leases.attach_pressure_signal(self.queue_pressure)
        # statistics
        self.served = 0
        self.refused = 0
        self.sheds = 0
        self.stale_dropped = 0
        self.offers_made = 0
        self.offers_won = 0
        self.offers_put_back = 0
        self.duplicate_queries = 0
        #: Observer hook (set by repro.obs) for realized queue waits.
        self.queue_wait_observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Query arrival
    # ------------------------------------------------------------------
    def handle_query(self, origin: str, payload: dict) -> None:
        """Entry point for a QUERY frame: admission, then queue or dispatch."""
        op_id = payload["op_id"]
        if op_id in self._servings or op_id in self._queued_ids:
            # A duplicated (or retransmitted) QUERY for work already in
            # progress: a second serving under the same id would overwrite
            # the first in the table, stranding its held entry, claim
            # timer, lease, and worker thread.  Destructive-path handlers
            # must be idempotent, so drop it.
            self.duplicate_queries += 1
            return
        config = self.instance.config
        if self.admission is not None:
            drain = (config.serve_workers / config.serve_cost
                     if config.serve_cost > 0 else 0.0)
            decision = self.admission.consider(
                origin, payload.get("op", ""),
                queue_depth=len(self._queue),
                drain_rate=drain,
                utilisation=self.instance.leases.threads.utilisation,
                active_servings=len(self._servings),
                deadline=payload.get("deadline"))
            if not decision.admitted:
                self.sheds += 1
                self.instance.flight_ring.append(
                    self.instance.sim.now, "shed", op_id,
                    payload.get("op"), origin, decision.reason)
                self._refuse(origin, op_id, decision.reason,
                             decision.retry_after)
                return
        if config.serve_cost <= 0:
            self._dispatch_query(origin, payload)
            return
        self._queue.append((origin, payload, self.instance.sim.now))
        self._queued_ids.add(op_id)
        self._pump()

    # ------------------------------------------------------------------
    # The bounded inbound serving queue and its dispatch workers
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Hand queued queries to free dispatch workers."""
        config = self.instance.config
        while self._busy_workers < config.serve_workers and self._queue:
            origin, payload, arrived_at = self._queue.popleft()
            op_id = payload["op_id"]
            if op_id not in self._queued_ids:
                continue  # cancelled while queued
            self._queued_ids.discard(op_id)
            if self.queue_wait_observer is not None:
                self.queue_wait_observer(self.instance.sim.now - arrived_at)
            # With admission on, work whose origin lease has already run
            # out is dropped at the queue head for free: replying to a
            # dead origin is the waste admission control exists to avoid.
            # The uncontrolled baseline faithfully burns a worker on it.
            deadline = payload.get("deadline")
            if (self.admission is not None and deadline is not None
                    and self.instance.sim.now >= arrived_at + deadline):
                self.stale_dropped += 1
                self.instance.flight_ring.append(
                    self.instance.sim.now, "stale_dropped", op_id,
                    payload.get("op"), origin)
                continue
            self._busy_workers += 1
            self.instance.sim.schedule(config.serve_cost,
                                       self._worker_finish, origin, payload)

    def _worker_finish(self, origin: str, payload: dict) -> None:
        """A dispatch worker spent ``serve_cost`` on the query; run it."""
        self._busy_workers -= 1
        try:
            self._dispatch_query(origin, payload)
        finally:
            self._pump()

    @property
    def queue_depth(self) -> int:
        """Inbound QUERYs waiting for a dispatch worker."""
        return len(self._queue)

    def queue_pressure(self) -> float:
        """Inbound queue fullness (0..1) for the lease manager's snapshot."""
        bound = self.instance.config.admission_queue_bound
        return min(1.0, len(self._queue) / bound) if bound else 0.0

    # ------------------------------------------------------------------
    # Dispatch: lease, thread, then probe or watch
    # ------------------------------------------------------------------
    def _dispatch_query(self, origin: str, payload: dict) -> None:
        """The classic serving path: lease -> thread -> probe/watch."""
        global _decoded
        op_id = payload["op_id"]
        kind = _OP_KINDS[payload["op"]]
        wire, pattern = _decoded
        if payload["pattern"] is not wire:
            wire = payload["pattern"]
            pattern = decode_pattern(wire)
            _decoded = (wire, pattern)
        deadline = payload.get("deadline")
        retry_hint = RETRY_FLOOR if self.admission is not None else None
        lease = self._negotiate_serving_lease(kind, deadline)
        if lease is None:
            self.refused += 1
            self.instance.flight_ring.append(
                self.instance.sim.now, "refuse", op_id, kind.label,
                origin, REFUSE_SERVING_LEASE)
            self._refuse(origin, op_id, REFUSE_SERVING_LEASE, retry_hint)
            return
        # Serving consumes a worker thread, allocated through the lease
        # manager's factory (3.1.1); an exhausted pool refuses the work.
        thread_token = self.instance.leases.threads.acquire()
        if thread_token is None:
            lease.release()
            self.refused += 1
            self.instance.flight_ring.append(
                self.instance.sim.now, "refuse", op_id, kind.label,
                origin, REFUSE_THREADS)
            self._refuse(origin, op_id, REFUSE_THREADS, retry_hint)
            return
        self.served += 1
        self.instance.flight_ring.append(
            self.instance.sim.now, "serve_started", op_id, kind.label, origin)
        if kind in (OperationKind.RDP, OperationKind.INP):
            self._serve_probe(origin, op_id, kind, pattern, lease, thread_token)
        else:
            self._serve_blocking(origin, op_id, kind, pattern, lease,
                                 thread_token)

    def _refuse(self, origin: str, op_id: str, reason: Optional[str],
                retry_after: Optional[float] = None) -> None:
        """Send the one structured QUERY_REFUSED shape every emitter uses.

        Each caller first records its ``refuse`` or ``shed`` event, with
        the same reason, on the node's flight ring.
        """
        payload: dict = {"kind": protocol.QUERY_REFUSED, "op_id": op_id,
                         "found": False, "reason": reason}
        if retry_after is not None:
            payload["retry_after"] = retry_after
        self.instance.send(origin, payload)

    def _negotiate_serving_lease(self, kind: OperationKind,
                                 deadline: Optional[float]) -> Optional[Lease]:
        duration = SERVE_MAX_DURATION
        if deadline is not None:
            duration = min(duration, max(0.0, deadline))
        requester = self._requester
        if requester is None or requester.desired().duration != duration:
            requester = self._requester = SimpleLeaseRequester(
                LeaseTerms(duration=duration))
        try:
            return self.instance.leases.negotiate(requester, kind)
        except LeaseError:
            return None

    # ------------------------------------------------------------------
    # Probes: answer from the current local space
    # ------------------------------------------------------------------
    def _serve_probe(self, origin: str, op_id: str, kind: OperationKind,
                     pattern: Pattern, lease: Lease,
                     thread_token: Any) -> None:
        space = self.instance.space
        if kind is OperationKind.RDP:
            tup = space.rdp(pattern)
            self._reply(origin, op_id, tup)
            lease.release()
            thread_token.release()
            return
        entry = space.hold_match(pattern)
        if entry is None:
            self._reply(origin, op_id, None)
            lease.release()
            thread_token.release()
            return
        serving = Serving(self, op_id, origin, kind, pattern, lease,
                          thread_token=thread_token)
        serving.held_entry_id = entry.entry_id
        self._servings[op_id] = serving
        self._offer(serving, entry.tuple)

    # ------------------------------------------------------------------
    # Blocking: watch the local space until match / cancel / lease end
    # ------------------------------------------------------------------
    def _serve_blocking(self, origin: str, op_id: str, kind: OperationKind,
                        pattern: Pattern, lease: Lease,
                        thread_token: Any) -> None:
        serving = Serving(self, op_id, origin, kind, pattern, lease,
                          thread_token=thread_token)
        self._servings[op_id] = serving
        lease.on_end(serving.lease_ended)
        self._register_watch(serving)

    def _register_watch(self, serving: Serving) -> None:
        if serving.closed:
            return
        # A non-destructive waiter notifies us of a match without consuming
        # it; for `in` we then try to hold the concrete entry ourselves.
        waiter = self.instance.space.rd(serving.pattern)
        serving.waiter = waiter
        if waiter.satisfied:
            self._on_watch_match(serving, waiter.event.value)
        else:
            waiter.event.add_callback(serving.matched)

    def _on_watch_match(self, serving: Serving, tup: Tuple) -> None:
        if serving.closed or not serving.lease.active:
            return
        serving.waiter = None
        if serving.kind is OperationKind.RD:
            self._reply(serving.origin, serving.op_id, tup)
            self._close(serving)
            return
        entry = self.instance.space.hold_match(serving.pattern)
        if entry is None:
            # Someone consumed it between notification and hold; keep watching.
            self._register_watch(serving)
            return
        serving.held_entry_id = entry.entry_id
        self._offer(serving, entry.tuple)

    # ------------------------------------------------------------------
    # Offers and claims (destructive two-phase)
    # ------------------------------------------------------------------
    def _offer(self, serving: Serving, tup: Tuple) -> None:
        serving.offered = True
        self.offers_made += 1
        # The offer is a critical frame: a lost (or duplicated + reordered)
        # offer breaks exactly-once, so it travels reliably, with
        # retransmission effort bounded by the serving lease and by the
        # claim window (after which the hold self-releases anyway).
        deadline = self.instance.sim.now + self.instance.config.claim_timeout
        if serving.lease.expires_at is not None:
            deadline = min(deadline, serving.lease.expires_at)
        self._reply(serving.origin, serving.op_id, tup,
                    entry_id=serving.held_entry_id, deadline=deadline)
        serving.claim_timer = self.instance.sim.schedule(
            self.instance.config.claim_timeout, self._claim_timeout, serving)

    def handle_claim_accept(self, origin: str, payload: dict) -> None:
        """Origin took our offer: the held tuple is consumed for good."""
        serving = self._servings.get(payload["op_id"])
        if serving is None or serving.held_entry_id != payload.get("entry_id"):
            return
        self.offers_won += 1
        self.instance.space.confirm(serving.held_entry_id)
        serving.held_entry_id = None
        self._close(serving)

    def handle_claim_reject(self, origin: str, payload: dict) -> None:
        """Origin took a different offer: put the tuple back (section 3.1.3)."""
        serving = self._servings.get(payload["op_id"])
        if serving is None or serving.held_entry_id != payload.get("entry_id"):
            return
        self._put_back(serving)
        self._close(serving)

    def _claim_timeout(self, serving: Serving) -> None:
        """No accept/reject arrived: the origin is gone; put the tuple back."""
        if serving.closed or serving.held_entry_id is None:
            return
        self.instance.flight_ring.append(
            self.instance.sim.now, "claim_timeout", serving.op_id,
            serving.kind.label, serving.origin)
        self._put_back(serving)
        self._close(serving)

    def _put_back(self, serving: Serving) -> None:
        if serving.held_entry_id is not None:
            self.offers_put_back += 1
            self.instance.flight_ring.append(
                self.instance.sim.now, "put_back", serving.op_id,
                serving.kind.label, serving.origin, serving.held_entry_id)
            self.instance.space.release(serving.held_entry_id)
            serving.held_entry_id = None

    # ------------------------------------------------------------------
    # Cancellation and lease end
    # ------------------------------------------------------------------
    def handle_cancel(self, origin: str, payload: dict) -> None:
        """Origin withdrew the operation."""
        op_id = payload["op_id"]
        if op_id in self._queued_ids:
            # Withdrawn before a dispatch worker ever picked it up: the
            # queue entry is tombstoned (skipped at pump time).
            self._queued_ids.discard(op_id)
            return
        serving = self._servings.get(op_id)
        if serving is None:
            return
        self._put_back(serving)
        self._close(serving)

    # ------------------------------------------------------------------
    def _close(self, serving: Serving) -> None:
        if serving.closed:
            return
        serving.closed = True
        waiter = serving.waiter
        if waiter is not None:
            serving.waiter = None
            waiter.cancel()
        if serving.claim_timer is not None:
            serving.claim_timer.cancel()
            serving.claim_timer = None
        if serving.lease.active:
            serving.lease.release()
        if serving.thread_token is not None:
            serving.thread_token.release()
            serving.thread_token = None
        self._servings.pop(serving.op_id, None)

    def _reply(self, origin: str, op_id: str, tup: Optional[Tuple],
               entry_id: Optional[int] = None,
               deadline: Optional[float] = None) -> None:
        payload = {"kind": protocol.QUERY_REPLY, "op_id": op_id,
                   "found": tup is not None}
        if tup is not None:
            payload["tuple"] = encode_tuple(tup)
        if entry_id is not None:
            payload["entry_id"] = entry_id
        if deadline is not None:
            self.instance.send_reliable(origin, payload, deadline=deadline)
        else:
            self.instance.send(origin, payload)

    # ------------------------------------------------------------------
    def close_all(self) -> None:
        """Close every serving (instance shutting down): held entries go
        back to the space, leases are returned, worker threads freed, and
        claim timers cancelled — nothing outlives the server."""
        self._queue.clear()
        self._queued_ids.clear()
        for serving in list(self._servings.values()):
            self._put_back(serving)
            self._close(serving)

    @property
    def active_servings(self) -> int:
        """Number of remote operations currently being worked on."""
        return len(self._servings)
