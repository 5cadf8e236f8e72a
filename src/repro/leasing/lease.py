"""Lease terms and granted leases.

A :class:`LeaseTerms` bundle expresses *how much effort* an instance will
dedicate to an operation — in virtual seconds, in remote instances
contacted, and in bytes of storage held.  A granted :class:`Lease` tracks
consumption of those budgets and carries the expiry/revocation state
machine.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.errors import LeaseError


class LeaseTerms:
    """An (immutable) bundle of lease dimensions.

    ``None`` in a dimension means "unbounded" in that dimension.  The model
    discourages unbounded time for blocking operations — policies cap it —
    but the value type itself stays permissive so policies can express any
    offer.
    """

    __slots__ = ("duration", "max_remotes", "storage_bytes")

    def __init__(self, duration: Optional[float] = None,
                 max_remotes: Optional[int] = None,
                 storage_bytes: Optional[int] = None) -> None:
        if duration is not None and duration < 0:
            raise LeaseError(f"negative duration {duration}")
        if max_remotes is not None and max_remotes < 0:
            raise LeaseError(f"negative max_remotes {max_remotes}")
        if storage_bytes is not None and storage_bytes < 0:
            raise LeaseError(f"negative storage_bytes {storage_bytes}")
        self.duration = duration
        self.max_remotes = max_remotes
        self.storage_bytes = storage_bytes

    def satisfies(self, minimum: "LeaseTerms") -> bool:
        """Whether these terms are at least as generous as ``minimum``.

        Used by requesters to decide whether to accept an offer: every
        dimension the minimum bounds must be met (an unbounded offer
        dimension always satisfies).
        """
        def at_least(offered, wanted):
            if wanted is None:
                return True
            if offered is None:
                return True  # unbounded is maximally generous
            return offered >= wanted

        return (at_least(self.duration, minimum.duration)
                and at_least(self.max_remotes, minimum.max_remotes)
                and at_least(self.storage_bytes, minimum.storage_bytes))

    def capped(self, duration: Optional[float] = None,
               max_remotes: Optional[int] = None,
               storage_bytes: Optional[int] = None) -> "LeaseTerms":
        """These terms with upper caps applied per dimension."""
        def cap(value, limit):
            if limit is None:
                return value
            if value is None:
                return limit
            return min(value, limit)

        return LeaseTerms(
            duration=cap(self.duration, duration),
            max_remotes=cap(self.max_remotes, max_remotes),
            storage_bytes=cap(self.storage_bytes, storage_bytes),
        )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LeaseTerms)
                and (other.duration, other.max_remotes, other.storage_bytes)
                == (self.duration, self.max_remotes, self.storage_bytes))

    def __repr__(self) -> str:
        return (f"LeaseTerms(duration={self.duration!r}, "
                f"max_remotes={self.max_remotes!r}, "
                f"storage_bytes={self.storage_bytes!r})")


class LeaseState(enum.Enum):
    """Lifecycle of a granted lease."""

    ACTIVE = "active"
    EXPIRED = "expired"        # time ran out
    RELEASED = "released"      # holder finished early and returned it
    REVOKED = "revoked"        # the instance reclaimed it (last resort)


class Lease:
    """A granted lease: budgets, expiry, and revocation callbacks.

    Created only by :class:`~repro.leasing.manager.LeaseManager`, which
    draws ``lease_id`` from its simulation's ``ids("lease")``; holders
    interact with :meth:`use_remote`, :meth:`release`, and the ``on_end``
    callback hook.
    """

    def __init__(self, lease_id: int, manager, terms: LeaseTerms,
                 granted_at: float, operation: str) -> None:
        self.lease_id = lease_id
        self.manager = manager
        self.terms = terms
        self.granted_at = granted_at
        self.operation = operation
        self.state = LeaseState.ACTIVE
        self.remotes_used = 0
        self._on_end: list[Callable[["Lease", LeaseState], None]] = []

    # ------------------------------------------------------------------
    @property
    def expires_at(self) -> Optional[float]:
        """Absolute virtual expiry time; None when time-unbounded."""
        if self.terms.duration is None:
            return None
        return self.granted_at + self.terms.duration

    @property
    def active(self) -> bool:
        """True while the lease has not ended."""
        return self.state is LeaseState.ACTIVE

    def remaining_time(self, now: float) -> Optional[float]:
        """Seconds of lease left at ``now`` (None = unbounded)."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - now)

    # ------------------------------------------------------------------
    def use_remote(self) -> bool:
        """Consume one unit of the remote-contact budget.

        Returns False (without consuming) when the budget is exhausted or
        the lease has ended — the caller must then stop contacting further
        instances.
        """
        if not self.active:
            return False
        if self.terms.max_remotes is not None and self.remotes_used >= self.terms.max_remotes:
            return False
        self.remotes_used += 1
        return True

    @property
    def remotes_remaining(self) -> Optional[int]:
        """How many more remote contacts the lease allows (None = unbounded)."""
        if self.terms.max_remotes is None:
            return None
        return max(0, self.terms.max_remotes - self.remotes_used)

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Return the lease early (operation finished before expiry)."""
        self._end(LeaseState.RELEASED)

    def on_end(self, callback: Callable[["Lease", LeaseState], None]) -> None:
        """Register a callback for when the lease ends, however it ends."""
        self._on_end.append(callback)

    def _end(self, state: LeaseState) -> None:
        if not self.active:
            return
        self.state = state
        for callback in list(self._on_end):
            callback(self, state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Lease #{self.lease_id} {self.operation} {self.state.value} "
                f"{self.terms!r}>")
