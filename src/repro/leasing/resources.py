"""Resource factories controlled by the lease manager.

Section 3.1.1: "All resources that an instance wishes to manage (e.g.
threads, sockets) are allocated through factory objects controlled by the
lease manager.  This allows the lease manager to maintain control over the
amount of resources being consumed and allocate leases accordingly."

In the simulation, a resource is a counted pool: the factory hands out
tokens up to its capacity and reports utilisation back to the manager's
policy.  A Tiamat instance's query server takes a "threads" token per
query it serves, so serving pressure genuinely shapes what leases get
offered.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LeaseError


class ResourceToken:
    """A unit of a managed resource, returned to the pool on release."""

    __slots__ = ("factory", "released")

    def __init__(self, factory: "ResourceFactory") -> None:
        self.factory = factory
        self.released = False

    def release(self) -> None:
        """Return the unit to the pool (idempotent)."""
        if not self.released:
            self.released = True
            self.factory._return_token()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self.released else "held"
        return f"<ResourceToken {self.factory.name} {state}>"


class ResourceFactory:
    """A counted pool of one resource kind ("threads", ...)."""

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise LeaseError(f"negative capacity for {name!r}")
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self.peak = 0
        self.denials = 0

    def acquire(self) -> Optional[ResourceToken]:
        """Take one unit; None when the pool is exhausted."""
        if self.capacity is not None and self.in_use >= self.capacity:
            self.denials += 1
            return None
        self.in_use += 1
        self.peak = max(self.peak, self.in_use)
        return ResourceToken(self)

    @property
    def available(self) -> Optional[int]:
        """Units left (None = unbounded pool)."""
        if self.capacity is None:
            return None
        return self.capacity - self.in_use

    @property
    def utilisation(self) -> float:
        """Fraction of capacity in use (0.0 for unbounded pools)."""
        if self.capacity in (None, 0):
            return 0.0
        return self.in_use / self.capacity

    def _return_token(self) -> None:
        if self.in_use <= 0:
            raise LeaseError(f"double release on factory {self.name!r}")
        self.in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<ResourceFactory {self.name} {self.in_use}/{cap}>"
