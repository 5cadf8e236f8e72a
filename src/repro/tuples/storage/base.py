"""The storage-backend trait: pluggable durability under a tuple space.

A backend mirrors the *durable* contents of one
:class:`~repro.tuples.space.LocalTupleSpace`: every resident deposit is
recorded (``record_out``), every removal — consume, lease expiry, or
anti-entropy reconciliation — is recorded (``record_remove``), and after a
crash :meth:`StorageBackend.recover` rebuilds the surviving entries so the
space can be repopulated.  Two implementations ship:

* :class:`MemoryBackend` — an in-process dict, the default and reference
  implementation (survives an instance crash, not a process death);
* :class:`~repro.tuples.storage.wal.WALBackend` — a CRC-framed append-only
  log with atomic snapshot compaction and torn-tail-tolerant replay.

Both keep tuples in the JSON record form; no backend uses the binary
codec of :mod:`repro.tuples.serialization`.

Backends subscribe to the space's ``on_out``/``on_removed`` listeners, so
the space itself stays storage-agnostic; a space with no backend attached
behaves bit-identically to one that never heard of this module.

Recovery id discipline
----------------------
Durable entry ids are the store's entry ids, and a tuple keeps its id for
life: recovery restores each survivor under its **original** id, and the
fresh store's counter is bumped past the backend's high-water mark
(:meth:`repro.tuples.store.TupleStore.bump_ids`) so new deposits can never
collide with any id ever logged.  Both halves matter for the anti-entropy
rejoin (``docs/PROTOCOL.md`` section 10): peers witness consumed entry
ids, so a reused id could let a stale witness purge an innocent survivor,
and a *renumbered* survivor would dodge the witness that should purge it
the next time its removal record is torn off the log.
"""

from __future__ import annotations

from typing import Optional

from repro.tuples.model import Pattern, Tuple
from repro.tuples.space import LocalTupleSpace

#: Tuple tags excluded from durability — the one copy of the list: the space-info tuple the owning instance recreates on every boot,
#: and the short-leased in-space telemetry rows of repro.obs.telemetry,
#: ephemeral operational data a restarted node republishes itself.
DEFAULT_SKIP_TAGS: tuple = ("__space_info__", "_telemetry")

#: The space-info tuple (section 2.4): ``(tag, instance name, persistent)``.
_SPACE_INFO = Pattern("__space_info__", str, bool)


def _advertise(space: LocalTupleSpace) -> None:
    """Make ``space``'s info tuple say whether a backend now logs it.

    The tuple is swapped in the store under its own id: not a deposit or a
    removal, so no listener, counter or log sees it.  Nor is it a lookup:
    it lists the index walk itself (the swap changes that index) rather
    than call ``find_all``, which counts a scan.
    """
    persistent = space.backend is not None
    store = space.store
    for entry in list(store.candidates(_SPACE_INFO)):
        tag, name, flag = entry.tuple.fields
        if flag is not persistent:
            store.remove(entry.entry_id)
            store.add(Tuple(tag, name, persistent), entry.meta,
                      entry_id=entry.entry_id)


class RecoveredState:
    """What a backend salvaged from its durable representation."""

    __slots__ = ("entries", "high_water", "last_time")

    def __init__(self, entries: list, high_water: int,
                 last_time: Optional[float] = None) -> None:
        #: ``(durable_id, tuple, expires_at)`` triples, oldest first.
        self.entries = entries
        #: Highest durable id ever logged (including removed entries).
        self.high_water = high_water
        #: Latest record timestamp seen (approximates the crash time).
        self.last_time = last_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RecoveredState entries={len(self.entries)} "
                f"high_water={self.high_water}>")


class RecoveryStats:
    """Outcome of one lease-aware recovery into a live space."""

    __slots__ = ("restored", "reclaimed", "replayed", "torn_truncations")

    def __init__(self, restored: int = 0, reclaimed: int = 0,
                 replayed: int = 0, torn_truncations: int = 0) -> None:
        self.restored = restored
        self.reclaimed = reclaimed
        self.replayed = replayed
        self.torn_truncations = torn_truncations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RecoveryStats restored={self.restored} "
                f"reclaimed={self.reclaimed} torn={self.torn_truncations}>")


class StorageBackend:
    """Base class: listener plumbing + shared accounting for all backends.

    Subclasses implement :meth:`record_out`, :meth:`record_remove`,
    :meth:`recover`, and :meth:`_rewrite`; :meth:`compact` and
    :meth:`close` are optional.
    """

    def __init__(self) -> None:
        # accounting (read by Observability.observe_storage)
        self.records_out = 0
        self.records_remove = 0
        self.bytes_appended = 0
        self.compactions = 0
        self.recoveries = 0
        self.records_replayed = 0
        self.torn_truncations = 0
        self.torn_bytes = 0
        # listener state: only the currently bound space may log.  Old
        # incarnations keep their listener closures alive (lease-expiry
        # timers outlive a crash), so every callback re-checks the bind.
        self._space: Optional[LocalTupleSpace] = None
        self._listeners_on: set[int] = set()
        self._observed = False

    # ------------------------------------------------------------------
    # The durable contract (subclass responsibilities)
    # ------------------------------------------------------------------
    def record_out(self, entry_id: int, tup: Tuple,
                   expires_at: Optional[float], at: float) -> None:
        """Log a deposit; durable when this returns."""
        raise NotImplementedError

    def record_remove(self, entry_id: int, reason: str, at: float) -> None:
        """Log a removal (``consumed`` / ``expired`` / ``reconciled``)."""
        raise NotImplementedError

    def recover(self) -> RecoveredState:
        """Rebuild the surviving entries from the durable representation."""
        raise NotImplementedError

    def _rewrite(self, mirror: dict, at: float) -> None:
        """Replace the durable contents with ``{id: (tuple, expires_at)}``."""
        raise NotImplementedError

    def compact(self, at: float) -> None:
        """Fold the log into its compact form (no-op by default)."""

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    # ------------------------------------------------------------------
    # Space binding
    # ------------------------------------------------------------------
    def attach(self, space: LocalTupleSpace) -> None:
        """Bind to ``space`` and start logging its deposits/removals.

        Transient entries (consumed at deposit by a blocked ``in``,
        ``entry_id == 0``) are skipped: they were never resident, so
        there is nothing to resurrect.  So are tuples tagged with one of
        ``DEFAULT_SKIP_TAGS``.  Holds are deliberately not logged — a
        two-phase claim cannot survive a power cycle, and the confirm (or
        the put-back) is what reaches the log.
        """
        self._space = space
        space.backend = self
        _advertise(space)
        key = id(space)
        if key in self._listeners_on:
            return
        self._listeners_on.add(key)

        def on_out(entry) -> None:
            if self._space is not space or entry.removed or not entry.entry_id:
                return
            tup = entry.tuple
            if tup.fields and tup.fields[0] in DEFAULT_SKIP_TAGS:
                return
            self.record_out(entry.entry_id, tup,
                            entry.meta.get("expires_at"), space.sim.now)

        def on_removed(entry, reason: str) -> None:
            if self._space is not space or not entry.entry_id:
                return
            tup = entry.tuple
            if tup.fields and tup.fields[0] in DEFAULT_SKIP_TAGS:
                return
            self.record_remove(entry.entry_id, reason, space.sim.now)

        space.on_out(on_out)
        space.on_removed(on_removed)
        obs = getattr(space.sim, "obs", None)
        if obs is not None and not self._observed:
            self._observed = True
            obs.observe_storage(self, space.name)

    def detach(self) -> None:
        """Stop logging (the bound space crashed; its timers may still fire)."""
        if self._space is not None and self._space.backend is self:
            self._space.backend = None
            _advertise(self._space)
        self._space = None

    def rebind(self, space: LocalTupleSpace) -> None:
        """Re-anchor the durable state to ``space``'s current contents.

        Called after recovery repopulated a fresh space: the durable
        representation is rewritten from the live store (one compaction —
        reclaimed leases fall out here without individual ``rm`` records)
        and listeners attach for the deposits and removals that follow.
        Quarantined (held) entries are included — they are logically
        present until the anti-entropy rejoin purges them, and a purge is
        logged like any removal.
        """
        mirror: dict = {}
        for entry in space.store:
            if entry.removed:
                continue
            tup = entry.tuple
            if tup.fields and tup.fields[0] in DEFAULT_SKIP_TAGS:
                continue
            mirror[entry.entry_id] = (tup, entry.meta.get("expires_at"))
        self._rewrite(mirror, space.sim.now)
        self.attach(space)


class MemoryBackend(StorageBackend):
    """The in-process dict backend: the trait's reference implementation.

    Durable against an *instance* crash (the backend object outlives the
    space; it is what ``CrashRestartInjector`` images a politely powered-
    down node into), not against process death.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mirror: dict[int, tuple] = {}
        self._high_water = 0
        self._last_time: Optional[float] = None

    def record_out(self, entry_id: int, tup: Tuple,
                   expires_at: Optional[float], at: float) -> None:
        self._mirror[entry_id] = (tup, expires_at)
        self._high_water = max(self._high_water, entry_id)
        self._last_time = at
        self.records_out += 1

    def record_remove(self, entry_id: int, reason: str, at: float) -> None:
        self._mirror.pop(entry_id, None)
        self._high_water = max(self._high_water, entry_id)
        self._last_time = at
        self.records_remove += 1

    def recover(self) -> RecoveredState:
        self.recoveries += 1
        entries = [(entry_id, tup, expires_at)
                   for entry_id, (tup, expires_at)
                   in sorted(self._mirror.items())]
        self.records_replayed += len(entries)
        return RecoveredState(entries, self._high_water, self._last_time)

    def _rewrite(self, mirror: dict, at: float) -> None:
        self._mirror = dict(mirror)
        if mirror:
            self._high_water = max(self._high_water, max(mirror))
        self._last_time = at

    def __len__(self) -> int:
        return len(self._mirror)


def attach_backend(space: LocalTupleSpace, backend: StorageBackend) -> StorageBackend:
    """Wire ``backend`` under ``space`` and return it.

    Anything already resident in the space is imaged into the backend
    first (one compaction, an empty log — followed by ``detach()`` that is
    a polite power-down), then deposits and removals stream into the log.  Storage metrics register with the space's observability hub on
    first attach; a run that never attaches a backend exports a
    bit-identical registry.
    """
    backend.rebind(space)
    return backend
