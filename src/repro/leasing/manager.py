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
* the "threads" resource factory the query server allocates through;
* lease deadlines (one heap and one kernel timer for all of its leases,
  :class:`~repro.sim.kernel.Deadlines`) and last-resort revocation;
* ``lease_grant`` and ``lease_end`` events on its node's flight ring.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.check import CANARY_LEASE_LEAK, canary
from repro.errors import LeaseRefusedError, LeaseRejectedByRequesterError
from repro.leasing.lease import Lease, LeaseState, LeaseTerms
from repro.leasing.policy import GrantPolicy, GenerousPolicy, UsageSnapshot
from repro.leasing.requester import LeaseRequester
from repro.leasing.resources import ResourceFactory
from repro.sim.kernel import Deadlines, Simulator


class OperationKind(enum.Enum):
    """The six Linda operations, as lease subjects."""

    OUT = "out"
    EVAL = "eval"
    IN = "in"
    INP = "inp"
    RD = "rd"
    RDP = "rdp"

    def __init__(self, label: str) -> None:
        # Plain attributes, read on every operation (``value`` is a
        # property: a Python call per read).
        self.label = label
        self.is_deposit = label in ("out", "eval")  # consumes storage budget
        self.is_blocking = label in ("in", "rd")    # may wait for a match


class LeaseManager:
    """Per-instance lease negotiation, accounting, and revocation."""

    def __init__(self, sim: Simulator, policy: Optional[GrantPolicy] = None,
                 storage_capacity: Optional[int] = None,
                 thread_capacity: Optional[int] = None) -> None:
        self.sim = sim
        self.policy = policy if policy is not None else GenerousPolicy()
        self.storage_capacity = storage_capacity
        self.storage_used = 0
        self.threads = ResourceFactory("threads", thread_capacity)
        self._lease_ids = sim.ids("lease")
        #: This manager's identity in its events: a recovered node's new
        #: manager records on the same ring, under a new id.
        self.manager_id = next(sim.ids("lease_manager"))
        # Planted bug for oracle validation (tests only): with the
        # `lease_leak` canary on, ended leases are never removed from the
        # active table — the lease-conservation oracle must notice that
        # ``active`` contains non-ACTIVE leases.  Read once at construction
        # (see repro.check).
        self._canary_lease_leak = canary(CANARY_LEASE_LEAK)
        self.active: dict[int, Lease] = {}
        #: The owning node's flight ring, set by the instance that owns
        #: this manager; a bare manager records nothing.  Grants and ends
        #: carry ``(manager_id, lease_id, active_count)``.
        self.flight_ring = None
        self._deadlines = Deadlines(sim, self._armed, self._expire)
        #: ``fn(lease)`` run after a revocation, or ``None``.
        self.on_revoke: Optional[Callable[[Lease], None]] = None
        # Live 0..1 pressure signals folded into the policies' usage view.
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
                  storage_needed: int = 0, *, arm: bool = True) -> Lease:
        """Run the request/offer/accept protocol; returns a granted lease.

        ``storage_needed`` is the deposit size for ``out``/``eval`` (the
        codec size of the tuple); it is folded into the requested terms so
        the policy sees the true storage demand.  ``arm=False`` leaves the
        deadline to a later :meth:`arm`.

        Raises :class:`LeaseRefusedError` when the policy refuses and
        :class:`LeaseRejectedByRequesterError` when the requester declines
        the offer.  Either way, per the model, the caller must do no
        further work on the operation.
        """
        self.negotiations += 1
        label = operation.label
        deposit = operation.is_deposit and storage_needed
        requested = requester.desired()
        if deposit:
            wanted = requested.storage_bytes
            if wanted is None or wanted < storage_needed:
                requested = LeaseTerms(requested.duration, requested.max_remotes,
                                       storage_needed)
        # The manager is the policy's usage view: it reads the names a
        # UsageSnapshot holds, live, so a policy pays only for what it reads.
        offer = self.policy.offer(requested, label, self)
        if offer is None:
            self.refusals += 1
            raise LeaseRefusedError(
                f"lease refused for {label} (storage_needed={storage_needed})"
            )
        if deposit:
            granted_storage = offer.storage_bytes
            if granted_storage is not None and granted_storage < storage_needed:
                self.refusals += 1
                raise LeaseRefusedError(
                    f"offered storage {granted_storage}B < needed {storage_needed}B"
                )
            capacity = self.storage_capacity
            if capacity is not None and self.storage_used + storage_needed > capacity:
                self.refusals += 1
                raise LeaseRefusedError(
                    f"storage capacity exceeded ({self.storage_used}+"
                    f"{storage_needed}>{self.storage_capacity})"
                )
        if not requester.consider(offer):
            self.requester_rejections += 1
            raise LeaseRejectedByRequesterError(
                f"requester declined offer {offer!r} for {label}"
            )
        lease = Lease(next(self._lease_ids), self, offer, self.sim.now, label)
        self.active[lease.lease_id] = lease
        self.grants += 1
        ring = self.flight_ring
        if ring is not None:
            ring.append(lease.granted_at, "lease_grant", None, label, None,
                        (self.manager_id, lease.lease_id, len(self.active)))
        if deposit:
            lease.committed = storage_needed
            self.storage_used += storage_needed
        if arm:
            self.arm(lease)
        return lease

    def arm(self, lease: Lease) -> None:
        """Expire ``lease`` at its deadline (if it has one and is active)."""
        if lease.active and lease.expires_at is not None:
            self._deadlines.add(lease.expires_at, lease.lease_id)

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
        if self.on_revoke is not None:
            self.on_revoke(lease)

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
        """A snapshot of current commitment (what policies see, live)."""
        return UsageSnapshot(self.storage_used, self.storage_capacity, len(self.active),
                             self.thread_utilisation, self.queue_pressure)

    # The rest of UsageSnapshot's names, read live by the policies.
    active_leases = active_count
    storage_pressure = UsageSnapshot.storage_pressure

    @property
    def thread_utilisation(self) -> float:
        """Fraction of the thread factory in use."""
        return self.threads.utilisation

    @property
    def queue_pressure(self) -> float:
        """The highest registered pressure signal (0.0 with none)."""
        pressure = 0.0
        for signal in self._pressure_signals:
            pressure = max(pressure, signal())
        return pressure

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ended(self, lease: Lease, state: LeaseState) -> None:
        """Bookkeeping for a lease that ended, however (called by the lease)."""
        if not self._canary_lease_leak:
            self.active.pop(lease.lease_id, None)
        # (planted bug: with the canary on, the ended lease stays in the
        # active table forever — conservation is violated.)
        self.storage_used -= lease.committed
        ring = self.flight_ring
        if ring is not None:
            ring.append(self.sim.now, "lease_end", None, state.label, None,
                        (self.manager_id, lease.lease_id, len(self.active)))
        self._deadlines.ended(lease.lease_id)

    def _armed(self, lease_id: int, deadline: float) -> bool:
        lease = self.active.get(lease_id)
        return lease is not None and lease.active

    def _expire(self, lease_id: int) -> None:
        self.expirations += 1
        self.active[lease_id]._end(LeaseState.EXPIRED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LeaseManager active={len(self.active)} "
                f"storage={self.storage_used}/{self.storage_capacity}>")
