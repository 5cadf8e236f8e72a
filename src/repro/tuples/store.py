"""An indexed tuple multiset with two-phase removal.

The store is the passive data structure under every space implementation in
the repository (Tiamat's local spaces and all five baselines).  It supports:

* duplicate tuples (a multiset — two identical ``out``\\ s mean two tuples);
* **two-phase removal**: a destructive match can be *held* (made invisible
  to other queries), then *confirmed* (removed for good) or *released*
  (made visible again).  Tiamat's distributed `in` needs this: a remote
  instance that finds a match holds the tuple while it races other
  responders; the loser releases ("the remaining instances place the tuples
  back into their respective spaces", section 3.1.3).

**Indexes** are keyed by the tuple's signature (its per-field concrete
types, what :attr:`Tuple.signature` names): ``signature -> bucket`` and
``(signature, position, value) -> bucket``, each bucket an insertion-ordered
dict of entries.  A value index exists only at a position some query has
named an actual at: the first such query builds it from the signature
bucket, oldest first, and ``add``/``remove`` keep it from then on, so its
buckets match an index kept from the first add, and a resident pays nothing
for positions no query names.  Matching is exact-type, so a pattern made
only of actuals and scalar ``Formal``\\ s can match one signature only.

**A bucket is exact** when every entry in it matches: the pattern names
one signature, no actual is or holds a NaN and there is at most one of
them — or their smallest bucket holds a single, matching entry, the
id-addressed ``Pattern("job", 17, str)`` — and no entry is held.  Then
``len(bucket)`` *is* the match count; :meth:`TupleStore.find` draws what
the scan would draw (``rng.choice`` over that many items, or the oldest)
and returns that entry without calling ``matches()``, walking to it from
the nearer end of the bucket: no filter for the destructive take-any every
coordination pattern leans on.  The bucket lists the walk's matches in its
order, the ``ghost`` canary's too, so ``tests/test_store_pick.py``'s
reference machine catches that planted bug on this path as well.

**Everything else** (``ANY``, ``Range``, ``Formal(Tuple)``, several actuals
sharing a bucket, held entries) is a filtered walk, oldest entry first,
over the smallest bucket of each signature of the pattern's arity — and
only that walk is memoized.  A ``Range`` narrows it by **ordered index**
(a sorted ``(value, seq, entry)`` list per ``int``/``float`` position of a
signature, built on the first ``Range`` query naming it, then kept by
``add``/``remove``; NaN is in no range, so never in the list): the walk
visits the bisected slice, oldest first, when it beats the bucket.
``_scan`` keeps its result per pattern, keyed to a **store version** that
every visibility-changing mutation (add, remove, hold, release) bumps, so
a hit is provably identical to a fresh scan.  The memo still serves
``ANY``, ``Formal(Tuple)``, a ``Range`` wider than its bucket, shared
buckets and held entries; exact patterns never enter it.  Hits and misses
(``scan_cache_hits`` / ``scan_cache_misses``) reach the metrics registry
via ``Observability.observe_space``; an exact pick is neither.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter, itemgetter
from typing import Iterator, Optional

from repro.check import CANARY_GHOST, canary
from repro.errors import TupleError
from repro.sim.rng import RngStream
from repro.tuples.matching import matches
from repro.tuples.model import Pattern, Tuple

_EMPTY: dict = {}
_INF = float("inf")
_seq = itemgetter(1)


class StoredEntry:
    """A tuple resident in a store, with bookkeeping metadata.

    ``meta`` is an open dict for the layers above (lease expiry time, the
    identity of the depositing instance, and so on); the store itself never
    interprets it.
    """

    __slots__ = ("entry_id", "tuple", "meta", "held", "removed", "seq", "sig")

    def __init__(self, entry_id: int, tup: Tuple, meta: Optional[dict] = None,
                 seq: int = 0) -> None:
        self.entry_id = entry_id
        self.tuple = tup
        self.meta = meta if meta is not None else {}
        #: Insertion stamp (the store version at ``add``): "oldest first"
        #: across buckets, also when recovery pins ids out of order.
        self.seq = seq
        #: The concrete field types: the index key, computed once.
        self.sig = tuple(map(type, tup.fields))
        self.held = False
        self.removed = False

    @property
    def visible(self) -> bool:
        """Whether queries may currently see this entry."""
        return not self.held and not self.removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "held" if self.held else ("removed" if self.removed else "visible")
        return f"<StoredEntry #{self.entry_id} {self.tuple!r} {flags}>"


class TupleStore:
    """Signature-indexed multiset of tuples with hold/confirm/release removal."""

    #: Cached distinct patterns per store before the scan cache is wiped.
    #: Mutation-heavy workloads invalidate constantly (every bump strands
    #: the old version's entries), so the cap bounds stale-entry memory,
    #: not hit rate.
    SCAN_CACHE_MAX = 256

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        # Planted bug for oracle validation (tests only): with the `ghost`
        # canary on, candidate iteration ignores the visibility filter, so
        # scans can match tuples that were already removed or are held —
        # exactly the "ghost read after remove" class the reference machine
        # in tests/test_store_pick.py exists to catch.  Read once at
        # construction.
        self._canary_ghost = canary(CANARY_GHOST)
        self._entries: dict[int, StoredEntry] = {}
        # signature -> insertion-ordered dict of entry_id -> StoredEntry
        self._by_sig: dict[tuple, dict[int, StoredEntry]] = {}
        # (signature, position, value) -> dict of entry_id -> StoredEntry,
        # only at the positions in _indexed[signature]; the signature
        # keeps 1 / True / 1.0 apart.
        self._by_actual: dict[tuple, dict[int, StoredEntry]] = {}
        self._indexed: dict[tuple, set[int]] = {}
        # signature -> {position: sorted [(value, seq, entry)]} for Range
        self._ordered: dict[tuple, dict[int, list]] = {}
        self._held = 0
        # Monotone version, bumped by every visibility-changing mutation;
        # the scan cache keys its entries to it (see module docstring).
        self._version = 0
        self._scan_cache: dict[Pattern, tuple[int, list[StoredEntry]]] = {}
        # statistics: how much work match scans do (index effectiveness)
        self.scans = 0
        self.entries_scanned = 0
        self.scan_cache_hits = 0
        self.scan_cache_misses = 0
        #: Optional ``fn(candidates_examined)`` per scan (installed by
        #: ``Observability.observe_space`` — feeds the scan-length histogram).
        #: Cache hits report 0 examined entries: that is the point.
        self.scan_observer = None

    # ------------------------------------------------------------------
    # Insertion / removal
    # ------------------------------------------------------------------
    def bump_ids(self, floor: int) -> None:
        """Ensure every future entry id is greater than ``floor``.

        Durable recovery calls this before restoring, so entry ids stay
        globally unique across a node's incarnations: peers witness
        consumed ids for the anti-entropy rejoin, and a reused id could
        let a stale witness purge an innocent survivor.
        """
        self._ids = itertools.count(max(next(self._ids), floor + 1))

    def add(self, tup: Tuple, meta: Optional[dict] = None,
            entry_id: Optional[int] = None) -> StoredEntry:
        """Insert a tuple; returns its entry (ids are unique per store).

        ``entry_id`` pins the id instead of drawing from the counter —
        durable recovery restores entries under their *original* ids
        (after :meth:`bump_ids`), so a tuple's identity survives its
        node's death and peers' witness records stay valid.
        """
        self._version += 1
        if entry_id is None:
            entry_id = next(self._ids)
        elif entry_id in self._entries:
            raise TupleError(f"entry id #{entry_id} already in store")
        entry = StoredEntry(entry_id, tup, meta, self._version)
        sig = entry.sig
        self._entries[entry_id] = entry
        self._by_sig.setdefault(sig, {})[entry_id] = entry
        fields = tup.fields
        for pos in self._indexed.get(sig, ()):
            self._by_actual.setdefault((sig, pos, fields[pos]), {})[entry_id] = entry
        ordered = self._ordered.get(sig)
        if ordered:
            for pos, keys in ordered.items():
                value = fields[pos]
                if value == value:
                    insort(keys, (value, entry.seq, entry))
        return entry

    def remove(self, entry_id: int) -> StoredEntry:
        """Permanently remove an entry (held or visible)."""
        if self._canary_ghost:
            # Planted bug: the entry is flagged removed but never unindexed,
            # so (combined with the visibility filter the canary disables in
            # :meth:`candidates`) later scans can still match it — a ghost.
            entry = self._entries.get(entry_id)
            if entry is None:
                raise TupleError(f"no entry #{entry_id} in store")
            self._version += 1
            self._held -= entry.held
            entry.removed = True
            entry.held = False
            return entry
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            raise TupleError(f"no entry #{entry_id} in store")
        self._version += 1
        self._held -= entry.held
        entry.removed = True
        entry.held = False
        sig = entry.sig
        bucket = self._by_sig[sig]
        del bucket[entry_id]
        if not bucket:
            del self._by_sig[sig]
        fields = entry.tuple.fields
        ordered = self._ordered.get(sig)
        if ordered:
            for pos, keys in ordered.items():
                value = fields[pos]
                if value == value:
                    del keys[bisect_left(keys, (value, entry.seq))]
        for pos in self._indexed.get(sig, ()):
            key = (sig, pos, fields[pos])
            bucket = self._by_actual[key]
            del bucket[entry_id]
            if not bucket:
                del self._by_actual[key]
        return entry

    # ------------------------------------------------------------------
    # Two-phase removal
    # ------------------------------------------------------------------
    def hold(self, entry_id: int) -> StoredEntry:
        """Make an entry invisible pending confirm/release."""
        entry = self._require(entry_id)
        if entry.held:
            raise TupleError(f"entry #{entry_id} already held")
        self._version += 1
        self._held += 1
        entry.held = True
        return entry

    def confirm(self, entry_id: int) -> StoredEntry:
        """Finalize removal of a held entry."""
        entry = self._require(entry_id)
        if not entry.held:
            raise TupleError(f"entry #{entry_id} not held; cannot confirm")
        return self.remove(entry_id)

    def release(self, entry_id: int) -> StoredEntry:
        """Put a held entry back into visibility."""
        entry = self._require(entry_id)
        if not entry.held:
            raise TupleError(f"entry #{entry_id} not held; cannot release")
        self._version += 1
        self._held -= 1
        entry.held = False
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, pattern: Pattern) -> Iterator[StoredEntry]:
        """Visible entries that *may* match, oldest first, via the cheapest index.

        Per signature the pattern can match, uses the smallest bucket among
        the pattern's actual-field indexes and the signature bucket — or
        the slice of an ordered index its ``Range``\\ s bisect, when smaller.

        Iteration is **lazy** over the live index buckets — no per-scan
        copy of a potentially huge bucket — so the store must not change
        while it runs: a caller that changes it as it goes lists the walk
        first.
        """
        sig, actuals, ranges = pattern.index_plan
        if sig is not None:
            sigs = [sig]
        else:
            sigs = [s for s in self._by_sig if len(s) == pattern.arity]
        if ranges:
            sources = [self._ranged(s, actuals, ranges) for s in sigs]
        else:
            buckets = [self._smallest(s, actuals) for s in sigs]
            sources = [bucket.values() for bucket in buckets if bucket]
        if len(sources) > 1:
            source = heapq.merge(*sources, key=attrgetter("seq"))
        else:
            source = sources[0] if sources else ()
        if self._canary_ghost:
            # Planted bug: visibility (removed/held) is not filtered.
            yield from source
            return
        for entry in source:
            if entry.visible:
                yield entry

    def _smallest(self, sig: tuple, actuals: tuple) -> dict:
        """The smallest bucket holding every ``sig`` entry with these actuals."""
        bucket = entries = self._by_sig.get(sig, _EMPTY)
        if not bucket:
            return bucket
        for pos, value in actuals:
            narrowed = self._by_actual.get((sig, pos, value))
            if narrowed is None:    # no entry holds it, or pos is not indexed yet
                if pos not in self._indexed.get(sig, ()):  # the first query naming pos
                    self._indexed.setdefault(sig, set()).add(pos)
                    for entry_id, entry in entries.items():
                        self._by_actual.setdefault(
                            (sig, pos, entry.tuple.fields[pos]), {})[entry_id] = entry
                narrowed = self._by_actual.get((sig, pos, value), _EMPTY)
            if len(narrowed) < len(bucket):
                bucket = narrowed
        return bucket

    def _ranged(self, sig: tuple, actuals: tuple, ranges: tuple):
        """``_smallest``'s bucket or a narrower Range slice, oldest first."""
        bucket = self._smallest(sig, actuals)
        best = None
        for pos, lo, hi in ranges:
            if sig[pos] is not int and sig[pos] is not float:
                return ()   # a Range admits no other type
            keys = self._ordered.get(sig, _EMPTY).get(pos)
            if keys is None:    # the first Range query naming this position
                keys = self._ordered.setdefault(sig, {})[pos] = sorted(
                    (entry.tuple.fields[pos], entry.seq, entry)
                    for entry in self._by_sig[sig].values()
                    if entry.tuple.fields[pos] == entry.tuple.fields[pos])
            i = 0 if lo is None else bisect_left(keys, (lo,))
            j = len(keys) if hi is None else bisect_right(keys, (hi, _INF))
            if j - i < len(bucket if best is None else best):
                best = keys[i:j]
        if best is None:
            return bucket.values()
        best.sort(key=_seq)
        return [key[2] for key in best]

    def _exact_bucket(self, pattern: Pattern) -> Optional[dict]:
        """The bucket holding exactly ``pattern``'s matches, all visible.

        None when a filtered walk is needed (see the module docstring).
        """
        if self._held:
            return None
        sig, actuals, _ = pattern.index_plan
        if sig is None:
            return None
        for _, value in actuals:
            if value != value:
                return None  # NaN, bare or inside a nested tuple, equals nothing
        bucket = self._smallest(sig, actuals)
        if len(actuals) > 1 and bucket:
            # The other actuals still filter: exact only for a lone match.
            if len(bucket) > 1:
                return None
            fields = next(iter(bucket.values())).tuple.fields
            for pos, value in actuals:
                if fields[pos] != value:    # same signature, so same type
                    return None
        return bucket

    def find(self, pattern: Pattern, rng: Optional[RngStream] = None) -> Optional[StoredEntry]:
        """A visible entry matching ``pattern``, or None.

        When several entries match, one is chosen non-deterministically
        (uniformly from ``rng`` when given; otherwise the oldest), per the
        Linda specification of ``rdp``.  An exact bucket and the filtered
        walk make the same draw and return the same entry.
        """
        bucket = self._exact_bucket(pattern)
        if bucket is None:
            found = self._scan(pattern)
            if not found:
                return None
            if rng is not None and len(found) > 1:
                return rng.choice(found)
            return found[0]
        count = len(bucket)
        self._count_scan(1 if count else 0)
        if not count:
            return None
        k = rng.choice(range(count)) if rng is not None and count > 1 else 0
        if 2 * k >= count:  # walk to the drawn entry from the nearer end
            return next(itertools.islice(reversed(bucket.values()), count - 1 - k, None))
        return next(itertools.islice(bucket.values(), k, None))

    def find_all(self, pattern: Pattern) -> list[StoredEntry]:
        """All visible entries matching ``pattern`` (oldest first)."""
        return sorted(self._matching(pattern), key=lambda e: e.entry_id)

    def count(self, pattern: Pattern) -> int:
        """``len(find_all(pattern))`` without the list: O(1) when exact."""
        return len(self._matching(pattern))

    def _matching(self, pattern: Pattern):
        """The visible matches, unordered, counted as one scan."""
        bucket = self._exact_bucket(pattern)
        if bucket is None:
            return self._scan(pattern)
        self._count_scan(len(bucket))
        return bucket.values()

    def _count_scan(self, examined: int) -> None:
        self.scans += 1
        self.entries_scanned += examined
        if self.scan_observer is not None:
            self.scan_observer(examined)

    def _scan(self, pattern: Pattern) -> list[StoredEntry]:
        """Matching visible entries by filtered walk, with scan-cost accounting.

        Results are memoized per (pattern, store version): a repeat query
        against an unchanged store returns the cached match list without
        touching the indexes (counted as a scan that examined 0 entries).
        Both hit and miss return a fresh list — callers may sort or
        truncate their copy without corrupting the cache.
        """
        cached = self._scan_cache.get(pattern)
        examined = 0
        if cached is not None and cached[0] == self._version:
            found = cached[1]
            self.scan_cache_hits += 1
        else:
            found = []
            for entry in self.candidates(pattern):
                examined += 1
                if matches(pattern, entry.tuple):
                    found.append(entry)
            self.scan_cache_misses += 1
            if len(self._scan_cache) >= self.SCAN_CACHE_MAX:
                self._scan_cache.clear()
            self._scan_cache[pattern] = (self._version, found)
        self._count_scan(examined)
        return list(found)

    def get(self, entry_id: int) -> Optional[StoredEntry]:
        """The entry with this id, or None if it was removed."""
        return self._entries.get(entry_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoredEntry]:
        return iter(list(self._entries.values()))

    @property
    def visible_count(self) -> int:
        """Number of entries currently visible to queries."""
        return sum(1 for e in self._entries.values() if e.visible)

    def _require(self, entry_id: int) -> StoredEntry:
        entry = self._entries.get(entry_id)
        if entry is None:
            raise TupleError(f"no entry #{entry_id} in store")
        return entry
