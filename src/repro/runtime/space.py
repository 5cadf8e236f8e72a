"""A thread-safe tuple space with truly blocking operations.

The same store and matching substrate as the simulated spaces
(:mod:`repro.tuples`), fronted by a lock + condition variable so multiple
OS threads can ``out``/``in``/``rd`` concurrently; lookups go through
``store.find`` / ``count`` / ``find_all``, as in the simulator.  Deadlines
are wall clock: a blocking operation that exceeds its lease duration
returns ``None`` — the model's bounded-effort semantics (section 2.5).
Expiry is lazy: a lookup removes a lapsed tuple it meets, never returns it.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.tuples.model import Pattern, Tuple
from repro.tuples.store import TupleStore


class ThreadSafeTupleSpace:
    """Monitor-style wrapper around a TupleStore."""

    def __init__(self, name: str = "space") -> None:
        self.name = name
        self._store = TupleStore()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.deposits = 0
        self.consumed = 0
        self._waiting = 0
        #: Cumulative number of blocking operations that actually parked
        #: on the condition variable (monotone — safe for tests to poll
        #: without racing the gauge's decrement).
        self.wait_entries = 0

    @property
    def waiting(self) -> int:
        """Blocked readers currently parked on the condition variable.

        A synchronization point for tests and telemetry: once this is
        non-zero, a blocking ``rd``/``in_`` has scanned the store, found
        no match, and is guaranteed to be woken by the next deposit —
        no wall-clock sleep needed to "let the reader start".
        """
        return self._waiting

    @property
    def store(self) -> TupleStore:
        """The underlying store.

        Hold the space's lock for any call into it, reads too: a lookup
        may build a value index.  Telemetry reads through :meth:`count`.
        """
        return self._store

    # ------------------------------------------------------------------
    def out(self, tup: Tuple, lease_duration: Optional[float] = None) -> None:
        """Deposit a tuple; wakes any blocked readers.

        ``lease_duration`` (wall-clock seconds) bounds the tuple's
        lifetime; expiry is enforced lazily at query time (cheap, and
        semantically identical to "may be removed at any time" after
        expiry).
        """
        expires_at = None if lease_duration is None else time.monotonic() + lease_duration
        with self._changed:
            self._store.add(tup, meta={"expires_at": expires_at})
            self.deposits += 1
            self._changed.notify_all()

    def rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking read."""
        with self._lock:
            entry = self._find_live(pattern)
            return entry.tuple if entry else None

    def inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking take."""
        with self._lock:
            entry = self._find_live(pattern)
            if entry is None:
                return None
            self._store.remove(entry.entry_id)
            self.consumed += 1
            return entry.tuple

    def rd(self, pattern: Pattern, timeout: Optional[float] = None) -> Optional[Tuple]:
        """Blocking read: waits up to ``timeout`` seconds for a match."""
        return self._blocking(pattern, remove=False, timeout=timeout)

    def in_(self, pattern: Pattern, timeout: Optional[float] = None) -> Optional[Tuple]:
        """Blocking take: waits up to ``timeout`` seconds for a match."""
        return self._blocking(pattern, remove=True, timeout=timeout)

    def count(self, pattern: Optional[Pattern] = None) -> int:
        """Number of live tuples (matching ``pattern`` when given)."""
        with self._lock:
            self._reap()
            if pattern is None:
                return self._store.visible_count
            return self._store.count(pattern)

    def snapshot(self, pattern: Optional[Pattern] = None) -> list[Tuple]:
        """All live tuples (matching ``pattern`` when given), oldest first."""
        with self._lock:
            self._reap()
            # Nothing is held here and ids are never pinned: every entry
            # is visible, in id order.
            entries = self._store if pattern is None else self._store.find_all(pattern)
            return [e.tuple for e in entries]

    # ------------------------------------------------------------------
    def _blocking(self, pattern: Pattern, remove: bool,
                  timeout: Optional[float]) -> Optional[Tuple]:
        deadline = None if timeout is None else time.monotonic() + timeout
        parked = False
        with self._changed:
            try:
                while True:
                    entry = self._find_live(pattern)
                    if entry is not None:
                        if remove:
                            self._store.remove(entry.entry_id)
                            self.consumed += 1
                        return entry.tuple
                    if not parked:
                        parked = True
                        self._waiting += 1
                        self.wait_entries += 1
                    if deadline is None:
                        self._changed.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return None
                        self._changed.wait(remaining)
            finally:
                if parked:
                    self._waiting -= 1

    def _find_live(self, pattern: Pattern):
        """The oldest live (unexpired) match; reaps expired ones it meets."""
        now = time.monotonic()
        while True:
            entry = self._store.find(pattern)
            if entry is None:
                return None
            expires_at = entry.meta.get("expires_at")
            if expires_at is None or now < expires_at:
                return entry
            self._store.remove(entry.entry_id)

    def _reap(self) -> None:
        now = time.monotonic()
        for entry in list(self._store):
            expires_at = entry.meta.get("expires_at")
            if expires_at is not None and now >= expires_at:
                self._store.remove(entry.entry_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadSafeTupleSpace {self.name!r}>"
