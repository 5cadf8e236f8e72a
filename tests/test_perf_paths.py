"""The store's hot paths, and the reliable sublayer's books, pinned down:

* every reliable frame of a seeded workload is acknowledged;
* the store's scan cache serves hits only while the store is untouched
  (any add/remove/hold/release invalidates) and its counters reconcile;
* ``candidates`` iterates lazily without materialising the bucket.
"""

from __future__ import annotations

from repro.core import TiamatConfig, TiamatInstance
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import ANY, Pattern, Range, Tuple
from repro.tuples.store import TupleStore


# ---------------------------------------------------------------------------
# Reliability: every reliable frame is acknowledged
# ---------------------------------------------------------------------------
def test_reliability_counters_balance():
    """A mixed destructive/read workload: every op concludes with a hit,
    and every reliable frame got acknowledged; nothing expired or pends."""
    sim = Simulator(seed=11)
    net = Network(sim)
    config = TiamatConfig()
    names = ["a", "b", "c"]
    inst = {n: TiamatInstance(sim, net, n, config=config) for n in names}
    net.visibility.connect_clique(names)
    sim.run(until=1.0)

    for i in range(12):
        inst["b"].out(Tuple("item", i))
        inst["c"].out(Tuple("note", i, float(i)))

    results = []

    def driver():
        for i in range(12):
            results.append((yield inst["a"].in_(Pattern("item", int)).event))
            results.append(
                (yield inst["a"].rdp(Pattern("note", i, float)).event))

    sim.spawn(driver())
    sim.run(until=200.0)
    assert len(results) == 24 and all(r is not None for r in results)
    for n in names:
        node_stats = inst[n].reliability.stats()
        assert node_stats["acked"] == node_stats["sent"]
        assert node_stats["expired"] == 0
        assert node_stats["pending"] == 0


# ---------------------------------------------------------------------------
# Scan cache + lazy candidates
# ---------------------------------------------------------------------------
def test_scan_cache_hit_returns_equal_results():
    store = TupleStore()
    for i in range(50):
        store.add(Tuple("job", i))
    p = Pattern("job", ANY)         # not signature-exact: served by the memo
    first = store.find_all(p)
    second = store.find_all(p)
    assert [e.entry_id for e in first] == [e.entry_id for e in second]
    assert store.scan_cache_hits == 1
    assert store.scan_cache_misses == 1


def test_scan_cache_invalidation_on_every_mutation():
    store = TupleStore()
    e0 = store.add(Tuple("job", 0))
    p = Pattern("job", Range(0, None))

    def misses_after(mutate):
        store.find_all(p)           # ensure the cache is populated
        mutate()
        before = store.scan_cache_misses
        store.find_all(p)           # must re-scan, not hit
        return store.scan_cache_misses - before

    assert misses_after(lambda: store.add(Tuple("job", 1))) == 1
    assert misses_after(lambda: store.hold(e0.entry_id)) == 1
    assert misses_after(lambda: store.release(e0.entry_id)) == 1
    assert misses_after(lambda: store.remove(e0.entry_id)) == 1
    # Held entries never leak out of a cached result.
    e1 = store.find(p)
    store.hold(e1.entry_id)
    assert all(x.entry_id != e1.entry_id for x in store.find_all(p))


def test_scan_counters_reconcile():
    store = TupleStore()
    for i in range(20):
        store.add(Tuple("t", i))
    walked = Pattern("t", Range(0, None))
    for _ in range(5):
        store.find(walked)
    assert store.scans == store.scan_cache_hits + store.scan_cache_misses == 5
    # Hits examine nothing; the one miss examined the full bucket.
    assert store.entries_scanned == 20
    # A signature-exact pattern picks straight from its bucket: one scan
    # examining one entry (none on an empty bucket), never a memo event.
    for _ in range(3):
        store.find(Pattern("t", int))
    store.find(Pattern(str, 7))
    store.find(Pattern("absent", int))
    assert store.scans == 10
    assert store.entries_scanned == 24
    assert (store.scan_cache_hits, store.scan_cache_misses) == (4, 1)
    # find_all copies the bucket: every entry counts as examined.
    assert len(store.find_all(Pattern("t", int))) == 20
    assert (store.scans, store.entries_scanned) == (11, 44)
    # A held entry forces the filtered walk (and the memo) back on.
    store.hold(store.find(Pattern(str, 3)).entry_id)
    assert len(store.find_all(Pattern("t", int))) == 19
    assert store.scan_cache_misses == 2


def test_scan_cache_capped():
    store = TupleStore()
    store.add(Tuple("x", 1))
    for i in range(TupleStore.SCAN_CACHE_MAX * 2):
        store.find(Pattern("x", i))
    assert len(store._scan_cache) <= TupleStore.SCAN_CACHE_MAX


def test_mutating_cached_result_does_not_corrupt_cache():
    store = TupleStore()
    for i in range(10):
        store.add(Tuple("j", i))
    p = Pattern("j", ANY)
    first = store.find_all(p)
    first.reverse()                      # caller mangles its copy
    again = store.find_all(p)            # cache hit
    assert [e.entry_id for e in again] == sorted(e.entry_id for e in again)
    assert store.find(p).entry_id == again[0].entry_id


def test_candidates_iterates_lazily():
    store = TupleStore()
    for i in range(1000):
        store.add(Tuple("big", i))
    gen = store.candidates(Pattern("big", int))
    first = next(gen)
    assert first.tuple[1] == 0
    # Laziness: nothing was materialised; closing mid-way is free and the
    # scan counters are untouched until a full _scan runs.
    gen.close()
    assert store.scans == 0


def test_scan_observer_sees_zero_on_hits():
    store = TupleStore()
    lengths = []
    store.scan_observer = lengths.append
    for i in range(7):
        store.add(Tuple("w", i))
    walked = Pattern("w", ANY)
    store.find(walked)
    store.find(walked)
    assert lengths == [7, 0]
    # Exact picks report the one entry they return, or none.
    store.find(Pattern("w", int))
    store.find(Pattern("nope", int))
    store.find_all(Pattern("w", int))
    assert lengths == [7, 0, 1, 0, 7]
