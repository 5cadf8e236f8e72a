"""The per-node local tuple space.

Every Tiamat instance (and every baseline node) carries one of these.  It is
the Linda kernel of the model: the six operations over a single space, with

* **blocking waiters** for ``rd``/``in`` — a waiter is registered against a
  pattern and satisfied as soon as a matching tuple is deposited; waiter
  deadlines are imposed by the layer above (the lease), which simply
  cancels the waiter when the lease expires;
* **lease-driven expiry** — an entry deposited with ``expires_at`` is
  removed when the virtual clock reaches that time ("once the lease expires,
  the tuple may be removed from the space at any time", section 2.5);
* **two-phase destructive match** (``hold_match``/``confirm``/``release``)
  used by the distributed `in` protocol;
* **non-deterministic selection** among multiple matches, drawn from a
  seeded stream so experiments stay reproducible;
* **listeners** so instrumentation and the communications manager can react
  to deposits and removals without polling;
* **a tuple's life in the flight stream** — ``deposit``, ``hold``, then
  ``take`` or the reason it left (``expired``, ``reconciled``,
  ``migrated``), each with the tuple as its detail, on the ring named
  after the space (an instance's space is named after its node).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.check import CANARY_DOUBLE_TAKE, canary
from repro.errors import TupleError
from repro.sim.events import Event
from repro.sim.kernel import Deadlines, Simulator
from repro.tuples.matching import matches
from repro.tuples.model import Pattern, Tuple
from repro.tuples.store import StoredEntry, TupleStore


class Waiter:
    """A pending blocking operation (``rd`` or ``in``) on a local space.

    ``event`` succeeds with the matching :class:`Tuple` when one becomes
    available.  Cancel (e.g. on lease expiry) with :meth:`cancel`; a
    cancelled waiter's event never triggers.
    """

    __slots__ = ("space", "pattern", "remove", "event", "cancelled")

    def __init__(self, space: "LocalTupleSpace", pattern: Pattern, remove: bool) -> None:
        self.space = space
        self.pattern = pattern
        self.remove = remove
        self.event = Event(space.sim)
        self.cancelled = False

    @property
    def satisfied(self) -> bool:
        """True once a matching tuple has been delivered."""
        return self.event.triggered

    def cancel(self) -> None:
        """Withdraw the waiter; a no-op if already satisfied or cancelled.

        A waiter leaves the space's list when it is satisfied or here, so
        an open one is on it.
        """
        if not self.cancelled and not self.event.triggered:
            self.cancelled = True
            self.space._waiters.remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "in" if self.remove else "rd"
        return f"<Waiter {kind} {self.pattern!r}>"


class LocalTupleSpace:
    """A single node's tuple space (store + waiters + entry deadlines)."""

    def __init__(self, sim: Simulator, name: str = "space") -> None:
        self.sim = sim
        self.name = name
        self.rng = sim.rng(f"space/{name}")
        self.store = TupleStore()
        self.flight_ring = sim.obs.flight.ring(name)
        # Planted bug for oracle validation (tests only): with the
        # `double_take` canary on, a deposited tuple keeps being offered to
        # further blocked ``in`` waiters after one has already consumed it —
        # the same tuple satisfies two destructive reads.  Read once at
        # construction (see repro.check).
        self._canary_double_take = canary(CANARY_DOUBLE_TAKE)
        self._waiters: list[Waiter] = []
        self._on_out: list[Callable[[StoredEntry], None]] = []
        self._on_removed: list[Callable[[StoredEntry, str], None]] = []
        self._deadlines = Deadlines(sim, self._expiring, self._expire)
        #: The storage backend currently logging this space (bound by
        #: ``attach_backend``, cleared by its ``detach()``), or ``None``:
        #: what the space-info handle advertises as persistence (2.4).
        self.backend = None
        # statistics
        self.deposits = 0
        self.expirations = 0
        self.consumed = 0
        self.restores = 0
        sim.obs.observe_space(self, name)

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def on_out(self, callback: Callable[[StoredEntry], None]) -> None:
        """Register a callback invoked after every successful deposit."""
        self._on_out.append(callback)

    def on_removed(self, callback: Callable[[StoredEntry, str], None]) -> None:
        """Register a callback invoked after any removal.

        ``reason`` is one of ``"consumed"``, ``"expired"``, or
        ``"reconciled"`` (an anti-entropy rejoin purged a restored entry
        that a peer consumed during the downtime).  A deposit a blocked
        ``in`` takes on arrival is ``"consumed"`` too (a transient entry, id 0).
        """
        self._on_removed.append(callback)

    # ------------------------------------------------------------------
    # The six operations (local semantics)
    # ------------------------------------------------------------------
    def out(self, tup: Tuple, expires_at: Optional[float] = None,
            meta: Optional[dict] = None) -> StoredEntry:
        """Deposit ``tup``; it becomes available to any other operation.

        ``expires_at`` is the absolute virtual time after which the entry
        may be reclaimed (the out-lease's expiry).  The deposit first offers
        the tuple to pending waiters — if an ``in`` waiter consumes it, the
        tuple never rests in the store, matching Linda semantics where a
        blocked ``in`` returns as soon as a match appears.
        """
        meta = dict(meta or {})
        if expires_at is not None:
            meta["expires_at"] = expires_at
        self.flight_ring.append(self.sim.now, "deposit", None, None, None, tup)
        consumed = self._offer_to_waiters(tup)
        if consumed:
            # The tuple was taken by a blocked `in`; record a transient entry
            # for the listeners, but it never becomes resident.
            entry = StoredEntry(0, tup, meta)
            entry.removed = True
            self.consumed += 1
            self.deposits += 1
            for callback in self._on_out:
                callback(entry)
            self._notify_removed(entry, "consumed")
            return entry
        entry = self.store.add(tup, meta)
        self.deposits += 1
        if expires_at is not None:
            self._deadlines.add(expires_at, entry.entry_id)
        for callback in self._on_out:
            callback(entry)
        return entry

    def restore_entry(self, tup: Tuple, expires_at: Optional[float] = None,
                      meta: Optional[dict] = None,
                      quarantine: bool = False,
                      entry_id: Optional[int] = None) -> StoredEntry:
        """Re-insert a tuple that survived a snapshot or crash recovery.

        A restore is *not* a deposit: it records no ``deposit`` event,
        so the checker's exactly-once oracle still counts the tuple's one
        original deposit — a resurrected ghost consumed a second time is a
        violation, exactly as it should be.  ``on_out`` listeners are not
        notified either (a recovering backend re-anchors itself
        explicitly via ``rebind``).

        With ``quarantine=True`` the entry is re-inserted *held* —
        invisible to every query — until the anti-entropy rejoin releases
        it (or purges it as a ghost).  Without it, the tuple is offered
        to pending waiters like any arrival.  ``entry_id`` pins the store
        id (durable recovery keeps a tuple's original identity, so peer
        witness records stay valid across incarnations).
        """
        meta = dict(meta or {})
        if expires_at is not None:
            meta["expires_at"] = expires_at
        self.restores += 1
        if not quarantine:
            consumed = self._offer_to_waiters(tup)
            if consumed:
                entry = StoredEntry(0, tup, meta)
                entry.removed = True
                self.consumed += 1
                self._notify_removed(entry, "consumed")
                return entry
        entry = self.store.add(tup, meta, entry_id=entry_id)
        if quarantine:
            self.store.hold(entry.entry_id)
        if expires_at is not None:
            self._deadlines.add(expires_at, entry.entry_id)
        return entry

    def rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking read: a copy of some matching tuple, or None."""
        entry = self.store.find(pattern, self.rng)
        return entry.tuple if entry else None

    def inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking take: remove and return some matching tuple, or None."""
        entry = self.store.find(pattern, self.rng)
        if entry is None:
            return None
        self.store.remove(entry.entry_id)
        self.consumed += 1
        self._notify_removed(entry, "consumed")
        return entry.tuple

    def rd(self, pattern: Pattern) -> Waiter:
        """Blocking read: returns a waiter whose event yields the tuple."""
        return self._blocking(pattern, remove=False)

    def in_(self, pattern: Pattern) -> Waiter:
        """Blocking take: returns a waiter whose event yields the tuple."""
        return self._blocking(pattern, remove=True)

    def wait(self, pattern: Pattern, remove: bool) -> Waiter:
        """A waiter for the next match, after an ``rdp``/``inp`` that missed."""
        waiter = Waiter(self, pattern, remove)
        self._waiters.append(waiter)
        return waiter

    # ------------------------------------------------------------------
    # Two-phase destructive match (for the distributed `in` protocol)
    # ------------------------------------------------------------------
    def hold_match(self, pattern: Pattern) -> Optional[StoredEntry]:
        """Find a match and hold it invisible, pending confirm/release."""
        entry = self.store.find(pattern, self.rng)
        if entry is None:
            return None
        self.store.hold(entry.entry_id)
        self.flight_ring.append(self.sim.now, "hold", None, None, None,
                                entry.tuple)
        return entry

    def confirm(self, entry_id: int) -> StoredEntry:
        """Finalize a held match's removal."""
        entry = self.store.confirm(entry_id)
        self.consumed += 1
        self._notify_removed(entry, "consumed")
        return entry

    def release(self, entry_id: int) -> Optional[StoredEntry]:
        """Put a held match back; if its lease expired meanwhile, reclaim it.

        Returns the entry if it went back into visibility, None if it was
        reclaimed on release.
        """
        entry = self.store.get(entry_id)
        if entry is None:
            raise TupleError(f"no entry #{entry_id} to release")
        expires_at = entry.meta.get("expires_at")
        if expires_at is not None and self.sim.now >= expires_at:
            self.store.remove(entry_id)
            self.expirations += 1
            self._notify_removed(entry, "expired")
            return None
        released = self.store.release(entry_id)
        # A tuple re-entering visibility may satisfy a blocked operation.
        self._offer_entry_to_waiters(released)
        return released if released.visible else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def count(self, pattern: Optional[Pattern] = None) -> int:
        """Number of visible tuples (matching ``pattern`` when given)."""
        if pattern is None:
            return self.store.visible_count
        return self.store.count(pattern)

    def snapshot(self, pattern: Optional[Pattern] = None) -> list[Tuple]:
        """All visible tuples (matching ``pattern`` when given), oldest first."""
        if pattern is None:
            entries = [e for e in self.store if e.visible]
            entries.sort(key=lambda e: e.entry_id)
        else:
            entries = self.store.find_all(pattern)
        return [e.tuple for e in entries]

    @property
    def waiter_count(self) -> int:
        """Number of registered, unsatisfied waiters."""
        return len(self._waiters)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _blocking(self, pattern: Pattern, remove: bool) -> Waiter:
        found = self.inp(pattern) if remove else self.rdp(pattern)
        if found is None:
            return self.wait(pattern, remove)
        waiter = Waiter(self, pattern, remove)
        waiter.event.succeed(found)
        return waiter

    def _offer_to_waiters(self, tup: Tuple) -> bool:
        """Offer a fresh tuple to waiters; True if an `in` consumed it."""
        consumed = False
        for waiter in list(self._waiters):
            if not matches(waiter.pattern, tup):
                continue
            self._waiters.remove(waiter)
            waiter.event.succeed(tup)
            if waiter.remove:
                if self._canary_double_take:
                    # Planted bug: keep offering the already-consumed tuple
                    # to further waiters — a second blocked `in` will take
                    # the same tuple (double destructive read).  The first
                    # take is recorded by the caller's _notify_removed.
                    if consumed:
                        self.flight_ring.append(self.sim.now, "take", None,
                                                None, None, tup)
                    consumed = True
                    continue
                return True
        return consumed

    def _offer_entry_to_waiters(self, entry: StoredEntry) -> None:
        """Offer a re-released resident entry to waiters."""
        for waiter in list(self._waiters):
            if not matches(waiter.pattern, entry.tuple):
                continue
            self._waiters.remove(waiter)
            waiter.event.succeed(entry.tuple)
            if waiter.remove:
                self.store.remove(entry.entry_id)
                self.consumed += 1
                self._notify_removed(entry, "consumed")
                return

    def _expiring(self, entry_id: int, deadline: float) -> bool:
        # A restored entry keeps its id under a new deadline.
        entry = self.store.get(entry_id)
        return (entry is not None and not entry.removed
                and entry.meta.get("expires_at") == deadline)

    def _expire(self, entry_id: int) -> None:
        entry = self.store.get(entry_id)
        if entry.held:
            return  # reclaimed on release (see `release`)
        self.store.remove(entry_id)
        self.expirations += 1
        self._notify_removed(entry, "expired")

    def _notify_removed(self, entry: StoredEntry, reason: str) -> None:
        """The one release point: every take, expiry, revocation,
        migration and reconciliation passes through here."""
        self.flight_ring.append(self.sim.now,
                                "take" if reason == "consumed" else reason,
                                None, None, None, entry.tuple)
        self._deadlines.ended(entry.entry_id)
        for callback in self._on_removed:
            callback(entry, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalTupleSpace {self.name!r} tuples={len(self.store)} waiters={len(self._waiters)}>"
