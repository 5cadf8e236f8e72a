"""The lease manager: first point of contact for every operation.

Figure 2 of the paper places the lease manager in front of everything: "the
lease manager deals with all of the resource management within the system
and is the first point of contact for any operation.  If a lease is
refused, no further work is carried out on the operation."

The manager here owns:

* the negotiation loop with the application's lease requester;
* the granting policy (pluggable, see :mod:`repro.leasing.policy`);
* storage accounting — storage-bearing leases (``out``/``eval``) commit
  bytes against the instance's capacity until they end;
* the resource factories ("threads", "sockets") other components allocate
  through;
* expiry timers and last-resort revocation.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.check import probes
from repro.errors import LeaseRefusedError, LeaseRejectedByRequesterError
from repro.leasing.lease import Lease, LeaseState, LeaseTerms
from repro.leasing.policy import GrantPolicy, GenerousPolicy, UsageSnapshot
from repro.leasing.requester import LeaseRequester
from repro.leasing.resources import ResourceFactory
from repro.sim.kernel import Simulator


class OperationKind(enum.Enum):
    """The six Linda operations, as lease subjects."""

    OUT = "out"
    EVAL = "eval"
    IN = "in"
    INP = "inp"
    RD = "rd"
    RDP = "rdp"

    @property
    def is_deposit(self) -> bool:
        """Whether this operation stores a tuple (consumes storage budget)."""
        return self in (OperationKind.OUT, OperationKind.EVAL)

    @property
    def is_blocking(self) -> bool:
        """Whether this operation may wait for a match."""
        return self in (OperationKind.IN, OperationKind.RD)


class LeaseManager:
    """Per-instance lease negotiation, accounting, and revocation."""

    def __init__(self, sim: Simulator, policy: Optional[GrantPolicy] = None,
                 storage_capacity: Optional[int] = None,
                 thread_capacity: Optional[int] = None,
                 socket_capacity: Optional[int] = None) -> None:
        self.sim = sim
        self.policy = policy if policy is not None else GenerousPolicy()
        self.storage_capacity = storage_capacity
        self.storage_used = 0
        self.threads = ResourceFactory("threads", thread_capacity)
        self.sockets = ResourceFactory("sockets", socket_capacity)
        self._lease_ids = sim.ids("lease")
        # Planted bug for oracle validation (tests only): with the
        # `lease_leak` canary on, ended leases are never removed from the
        # active table — the lease-conservation oracle must notice that
        # ``active`` contains non-ACTIVE leases.  Read once at construction
        # (see repro.check.probes).
        self._canary_lease_leak = probes.canary(probes.CANARY_LEASE_LEAK)
        self.active: dict[int, Lease] = {}
        # Extra live pressure signals (0..1) folded into the usage
        # snapshot policies see — e.g. the query server's bounded inbound
        # serving queue registers its fullness here, so granting policies
        # feel inbound congestion the same way they feel storage pressure.
        self._pressure_signals: list = []
        # statistics
        self.negotiations = 0
        self.grants = 0
        self.refusals = 0
        self.requester_rejections = 0
        self.expirations = 0
        self.revocations = 0

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def negotiate(self, requester: LeaseRequester, operation: OperationKind,
                  storage_needed: int = 0) -> Lease:
        """Run the request/offer/accept protocol; returns a granted lease.

        ``storage_needed`` is the deposit size for ``out``/``eval`` (the
        codec size of the tuple); it is folded into the requested terms so
        the policy sees the true storage demand.

        Raises :class:`LeaseRefusedError` when the policy refuses and
        :class:`LeaseRejectedByRequesterError` when the requester declines
        the offer.  Either way, per the model, the caller must do no
        further work on the operation.
        """
        self.negotiations += 1
        requested = requester.desired()
        if operation.is_deposit and storage_needed:
            wanted = requested.storage_bytes
            if wanted is None or wanted < storage_needed:
                requested = LeaseTerms(requested.duration, requested.max_remotes,
                                       storage_needed)
        offer = self.policy.offer(requested, operation.value, self._usage())
        if offer is None:
            self.refusals += 1
            raise LeaseRefusedError(
                f"lease refused for {operation.value} (storage_needed={storage_needed})"
            )
        if operation.is_deposit and storage_needed:
            granted_storage = offer.storage_bytes
            if granted_storage is not None and granted_storage < storage_needed:
                self.refusals += 1
                raise LeaseRefusedError(
                    f"offered storage {granted_storage}B < needed {storage_needed}B"
                )
            if not self._storage_fits(storage_needed):
                self.refusals += 1
                raise LeaseRefusedError(
                    f"storage capacity exceeded ({self.storage_used}+"
                    f"{storage_needed}>{self.storage_capacity})"
                )
        if not requester.consider(offer):
            self.requester_rejections += 1
            raise LeaseRejectedByRequesterError(
                f"requester declined offer {offer!r} for {operation.value}"
            )
        return self._grant(offer, operation, storage_needed)

    # ------------------------------------------------------------------
    # Revocation (last resort)
    # ------------------------------------------------------------------
    def revoke(self, lease: Lease, reason: str = "") -> None:
        """Forcibly end a lease; holders learn via their ``on_end`` hook.

        "This behaviour should only be employed as a last resort to avoid
        undermining the leasing system altogether" — the manager provides
        the mechanism; deciding when is the caller's (policy's) burden.
        """
        if not lease.active:
            return
        self.revocations += 1
        lease._end(LeaseState.REVOKED)

    def revoke_storage_pressure(self, target_bytes: int) -> list[Lease]:
        """Revoke oldest storage-bearing leases until usage <= target.

        Returns the leases revoked.  Used by the T4 bench to demonstrate
        last-resort reclamation under storage pressure.
        """
        revoked = []
        for lease in sorted(self.active.values(), key=lambda l: l.lease_id):
            if self.storage_used <= target_bytes:
                break
            if lease.terms.storage_bytes:
                revoked.append(lease)
                self.revoke(lease, reason="storage pressure")
        return revoked

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of currently active leases."""
        return len(self.active)

    def attach_pressure_signal(self, signal) -> None:
        """Register a live 0..1 pressure callable (e.g. queue fullness).

        The maximum over all registered signals is exposed to granting
        policies as :attr:`UsageSnapshot.queue_pressure`.
        """
        self._pressure_signals.append(signal)

    def usage(self) -> UsageSnapshot:
        """A snapshot of current commitment (what policies see)."""
        return self._usage()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grant(self, terms: LeaseTerms, operation: OperationKind,
               storage_needed: int) -> Lease:
        lease = Lease(next(self._lease_ids), self, terms, self.sim.now,
                      operation.value)
        self.active[lease.lease_id] = lease
        self.grants += 1
        if probes.SINK is not None:
            probes.emit("lease.granted", manager=id(self),
                        lease=lease.lease_id, op=operation.value,
                        active_count=len(self.active))
        committed = storage_needed if operation.is_deposit else 0
        if committed:
            self.storage_used += committed
        timer = None
        if lease.expires_at is not None:
            timer = self.sim.schedule_at(lease.expires_at, self._expire,
                                         lease.lease_id)
        lease.on_end(lambda l, state: self._on_lease_end(l, state, committed, timer))
        return lease

    def _on_lease_end(self, lease: Lease, state: LeaseState, committed: int,
                      timer) -> None:
        if timer is not None:
            timer.cancel()  # a released lease must not pin its expiry timer
        if not self._canary_lease_leak:
            self.active.pop(lease.lease_id, None)
        # (planted bug: with the canary on, the ended lease stays in the
        # active table forever — conservation is violated.)
        if committed:
            self.storage_used -= committed
        if probes.SINK is not None:
            probes.emit("lease.ended", manager=id(self),
                        lease=lease.lease_id, state=state.value,
                        active_count=len(self.active))

    def _expire(self, lease_id: int) -> None:
        lease = self.active.get(lease_id)
        if lease is None or not lease.active:
            return
        self.expirations += 1
        lease._end(LeaseState.EXPIRED)

    def _storage_fits(self, needed: int) -> bool:
        if self.storage_capacity is None:
            return True
        return self.storage_used + needed <= self.storage_capacity

    def _usage(self) -> UsageSnapshot:
        queue_pressure = 0.0
        for signal in self._pressure_signals:
            queue_pressure = max(queue_pressure, signal())
        return UsageSnapshot(
            storage_used=self.storage_used,
            storage_capacity=self.storage_capacity,
            active_leases=len(self.active),
            thread_utilisation=self.threads.utilisation,
            queue_pressure=queue_pressure,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LeaseManager active={len(self.active)} "
                f"storage={self.storage_used}/{self.storage_capacity}>")
