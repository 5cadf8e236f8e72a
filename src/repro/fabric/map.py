"""The gossiped shard map: lease-governed fabric membership.

Each member's entry is a lease expiry (absolute virtual time); a member
that stops renewing lapses off the map — and therefore off the ring — and
its shards hand off to the successors.  Maps merge by per-member
``max(expiry)``, which is commutative, associative, and idempotent, so
gossip converges regardless of delivery order or duplication.

``digest()`` condenses the live member *name set* into a short stable hex
string that piggybacks on ordinary protocol frames (the ``"fmd"`` payload
key); a receiver whose own digest differs pushes its full map back, so any
two communicating members converge on membership within one round trip
even between heartbeats.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fabric.ring import HashRing, stable_hash


class ShardMap:
    """Membership (name -> lease expiry) plus the derived hash ring."""

    def __init__(self) -> None:
        self.members: Dict[str, float] = {}
        #: Bumped on every local mutation; exported as a gauge so operators
        #: can see map churn (and skew between nodes) directly.
        self.version = 0
        self._ring: HashRing = HashRing([])
        self._ring_members: tuple = ()
        self._digest_value = ""
        self._digest_version = -1
        self._digest_until = 0.0

    # ------------------------------------------------------------------
    def live(self, now: float) -> List[str]:
        """Members whose lease is still running, sorted by name."""
        return sorted(n for n, exp in self.members.items() if exp > now)

    def is_live(self, name: str, now: float) -> bool:
        return self.members.get(name, 0.0) > now

    def renew(self, name: str, expires_at: float) -> bool:
        """Extend (or add) one member's lease; True if anything changed."""
        if self.members.get(name, 0.0) >= expires_at:
            return False
        self.members[name] = expires_at
        self.version += 1
        return True

    def sweep(self, now: float) -> List[str]:
        """Drop every lapsed member; returns the names dropped."""
        lapsed = [n for n, exp in self.members.items() if exp <= now]
        for name in lapsed:
            del self.members[name]
        if lapsed:
            self.version += 1
        return sorted(lapsed)

    def merge(self, entries: Dict[str, float]) -> bool:
        """Fold another map's entries in (per-member max expiry)."""
        changed = False
        for name, expires_at in entries.items():
            if self.members.get(name, 0.0) < expires_at:
                self.members[name] = expires_at
                changed = True
        if changed:
            self.version += 1
        return changed

    # ------------------------------------------------------------------
    def ring(self, now: float) -> HashRing:
        """The consistent-hash ring over the currently-live members.

        Rebuilt only when the live set actually changes (renewals that
        keep a member live do not churn placement).
        """
        live = tuple(self.live(now))
        if live != self._ring_members:
            self._ring = HashRing(live)
            self._ring_members = live
        return self._ring

    def digest(self, now: float) -> str:
        """A short stable digest of the live membership for piggybacking.

        Deliberately covers the live *names* only — exactly what the ring
        (and therefore routing) depends on.  Expiries are excluded: lease
        renewals reach different members at different times, so including
        them would make any two maps perpetually "different" and turn the
        digest exchange into a full-map push on every frame.

        The digest piggybacks on *every* frame sent, so it is cached: the
        value can only change when the map version bumps or the earliest
        live lease lapses.
        """
        if self.version != self._digest_version or now >= self._digest_until:
            live = self.live(now)
            self._digest_value = format(stable_hash("|".join(live)), "016x")
            self._digest_version = self.version
            self._digest_until = min((self.members[n] for n in live),
                                     default=float("inf"))
        return self._digest_value

    def to_payload(self) -> dict:
        """Wire form: every entry (live and lapsed alike merge fine)."""
        return {name: expires_at for name, expires_at in self.members.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardMap v{self.version} members={len(self.members)}>"
