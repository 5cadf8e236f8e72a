"""Lease granting policies.

"The final decision as to what lease is actually granted, or if a lease is
granted at all, is made by the Tiamat instance" (section 2.5).  The policy
object is where that decision lives.  Policies see the requested terms, the
operation kind, and a usage view (storage pressure, resource factory
utilisation: a :class:`UsageSnapshot`, or the lease manager itself, which
reads the same names live) and return the terms to offer — or ``None`` to
refuse.

Three production policies are provided and benchmarked against each other
in the T4 ablation:

* :class:`GenerousPolicy` — offer what was asked, capped only in
  duration.  Models a resource-rich workstation.
* :class:`ConservativePolicy` — cap every dimension at fixed, low ceilings.
  Models a PDA-class device.
* :class:`AdaptivePolicy` — scale the offer by current resource pressure:
  the fuller the instance, the shorter and narrower the leases it offers.
  This is the "environment driven design" answer (section 5.1) expressed
  in the leasing layer.
"""

from __future__ import annotations

from typing import Optional

from repro.leasing.lease import LeaseTerms


class UsageSnapshot:
    """What a policy may inspect when deciding an offer."""

    __slots__ = ("storage_used", "storage_capacity", "active_leases",
                 "thread_utilisation", "queue_pressure")

    def __init__(self, storage_used: int = 0, storage_capacity: Optional[int] = None,
                 active_leases: int = 0, thread_utilisation: float = 0.0,
                 queue_pressure: float = 0.0) -> None:
        self.storage_used = storage_used
        self.storage_capacity = storage_capacity
        self.active_leases = active_leases
        self.thread_utilisation = thread_utilisation
        # Fullness (0..1) of the instance's bounded inbound serving queue
        # (0.0 when the instance serves inline / registers no signal).
        self.queue_pressure = queue_pressure

    @property
    def storage_pressure(self) -> float:
        """Fraction of storage capacity committed (0.0 if unbounded)."""
        if self.storage_capacity in (None, 0):
            return 0.0
        return min(1.0, self.storage_used / self.storage_capacity)


class GrantPolicy:
    """Protocol: decide what (if anything) to offer for a request."""

    def offer(self, requested: LeaseTerms, operation: str,
              usage: UsageSnapshot) -> Optional[LeaseTerms]:  # pragma: no cover
        """The terms to offer, or None to refuse the lease outright."""
        raise NotImplementedError


class GenerousPolicy(GrantPolicy):
    """Grant requests verbatim, capped only in duration.

    Unbounded *time* requests are still capped at ``max_duration`` —
    indefinite leases would defeat the garbage-collection role of leasing.
    """

    def __init__(self, max_duration: float = 3600.0) -> None:
        self.max_duration = max_duration

    def offer(self, requested: LeaseTerms, operation: str,
              usage: UsageSnapshot) -> Optional[LeaseTerms]:
        return requested.capped(duration=self.max_duration)


class ConservativePolicy(GrantPolicy):
    """Cap every dimension at fixed, low ceilings; refuse storage overflow.

    When the requested storage does not fit in what remains of capacity,
    the lease is refused rather than trimmed — a trimmed storage grant
    would silently truncate the tuple being deposited.
    """

    def __init__(self, max_duration: float = 60.0, max_remotes: int = 4,
                 max_storage_bytes: int = 64 * 1024) -> None:
        self.max_duration = max_duration
        self.max_remotes = max_remotes
        self.max_storage_bytes = max_storage_bytes

    def offer(self, requested: LeaseTerms, operation: str,
              usage: UsageSnapshot) -> Optional[LeaseTerms]:
        needed = requested.storage_bytes or 0
        if usage.storage_capacity is not None:
            if usage.storage_used + needed > usage.storage_capacity:
                return None
        if needed > self.max_storage_bytes:
            return None
        offer = requested.capped(duration=self.max_duration,
                                 max_remotes=self.max_remotes,
                                 storage_bytes=self.max_storage_bytes)
        if offer.duration is None:
            offer = LeaseTerms(self.max_duration, offer.max_remotes, offer.storage_bytes)
        if offer.max_remotes is None:
            offer = LeaseTerms(offer.duration, self.max_remotes, offer.storage_bytes)
        return offer


class AdaptivePolicy(GrantPolicy):
    """Scale offers down as resource pressure rises.

    The offered duration and remote budget shrink linearly with the
    dominant pressure signal (max of storage pressure and thread
    utilisation); above ``refuse_threshold`` pressure, new storage-bearing
    leases are refused entirely.
    """

    def __init__(self, base_duration: float = 300.0, base_remotes: int = 16,
                 refuse_threshold: float = 0.95) -> None:
        self.base_duration = base_duration
        self.base_remotes = base_remotes
        self.refuse_threshold = refuse_threshold

    def offer(self, requested: LeaseTerms, operation: str,
              usage: UsageSnapshot) -> Optional[LeaseTerms]:
        pressure = max(usage.storage_pressure, usage.thread_utilisation,
                       usage.queue_pressure)
        needed = requested.storage_bytes or 0
        if needed and pressure >= self.refuse_threshold:
            return None
        if usage.storage_capacity is not None:
            if usage.storage_used + needed > usage.storage_capacity:
                return None
        scale = max(0.05, 1.0 - pressure)
        duration_cap = self.base_duration * scale
        remote_cap = max(1, int(self.base_remotes * scale))
        offer = requested.capped(duration=duration_cap, max_remotes=remote_cap)
        if offer.duration is None:
            offer = LeaseTerms(duration_cap, offer.max_remotes, offer.storage_bytes)
        if offer.max_remotes is None:
            offer = LeaseTerms(offer.duration, remote_cap, offer.storage_bytes)
        return offer


class DenyAllPolicy(GrantPolicy):
    """Refuse every lease.  Exists for tests and the F2 architecture bench
    (a refused lease must prevent all further work on the operation)."""

    def offer(self, requested: LeaseTerms, operation: str,
              usage: UsageSnapshot) -> Optional[LeaseTerms]:
        return None
