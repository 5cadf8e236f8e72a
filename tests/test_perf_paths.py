"""The hot-path optimisations must be observationally passive.

The binary wire codec changes *how* frames are priced, never *what*
operations conclude — this module proves it in the PR-2 passivity style
(run the same seeded workload under both codecs, compare operation
outcomes value by value) and pins down the mechanics:

* every reliable frame is acknowledged under either codec;
* the store's scan cache serves hits only while the store is untouched
  (any add/remove/hold/release invalidates) and its counters reconcile;
* ``candidates`` iterates lazily without materialising the bucket.
"""

from __future__ import annotations

from repro.core import TiamatConfig, TiamatInstance
from repro.errors import CodecMismatchError
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import ANY, Pattern, Range, Tuple
from repro.tuples.store import TupleStore


# ---------------------------------------------------------------------------
# Passivity: the binary codec changes no operation outcome
# ---------------------------------------------------------------------------
def _run_workload(binary: bool, seed: int = 11):
    """A mixed destructive/read workload; returns (outcomes, wire stats)."""
    sim = Simulator(seed=seed)
    net = Network(sim, codec="binary" if binary else None)
    config = TiamatConfig(wire_codec="binary" if binary else "json")
    names = ["a", "b", "c"]
    inst = {n: TiamatInstance(sim, net, n, config=config) for n in names}
    net.visibility.connect_clique(names)
    sim.run(until=1.0)

    for i in range(12):
        inst["b"].out(Tuple("item", i))
        inst["c"].out(Tuple("note", i, float(i)))

    outcomes = []

    def driver():
        for i in range(12):
            op = inst["a"].in_(Pattern("item", int))
            result = yield op.event
            outcomes.append(("in", None if result is None else result.fields,
                             op.source))
            rop = inst["a"].rdp(Pattern("note", i, float))
            rresult = yield rop.event
            outcomes.append(("rdp",
                             None if rresult is None else rresult.fields,
                             rop.source))

    sim.spawn(driver())
    sim.run(until=200.0)
    rel_stats = {n: inst[n].reliability.stats() for n in names}
    return outcomes, {
        "now": sim.now,
        "messages": net.stats.total_messages,
        "bytes": net.stats.total_bytes,
        "rel": rel_stats,
        "tuples_left": {n: inst[n].space.count() for n in names},
    }


def test_fast_wire_paths_are_outcome_passive():
    base_outcomes, base_stats = _run_workload(binary=False)
    fast_outcomes, fast_stats = _run_workload(binary=True)
    # Bit-identical operation outcomes: same values, same sources, same order.
    assert base_outcomes == fast_outcomes
    assert len(base_outcomes) == 24
    assert all(r is not None for _, r, _ in base_outcomes)
    # Same residual state, for fewer bytes on the same number of frames.
    assert base_stats["tuples_left"] == fast_stats["tuples_left"]
    assert fast_stats["messages"] == base_stats["messages"]
    assert fast_stats["bytes"] < base_stats["bytes"]


def test_wire_codec_config_must_match_network():
    import pytest

    sim = Simulator(seed=0)
    net = Network(sim)                       # JSON-priced network
    with pytest.raises(ValueError, match="wire_codec"):
        TiamatInstance(sim, net, "x", config=TiamatConfig(wire_codec="binary"))
    # The check is symmetric (the old default-config leniency is gone): a
    # json config on a binary network is the same deployment error, and
    # every runtime raises the one shared CodecMismatchError.
    bnet = Network(Simulator(seed=0), codec="binary")
    with pytest.raises(CodecMismatchError, match="wire_codec"):
        TiamatInstance(bnet.sim, bnet, "z", config=TiamatConfig())
    # Matching codecs on both sides are fine.
    TiamatInstance(bnet.sim, bnet, "y", config=TiamatConfig(wire_codec="binary"))


def test_reliability_counters_balance_on_both_codecs():
    for binary in (False, True):
        _, stats = _run_workload(binary=binary)
        for node_stats in stats["rel"].values():
            # Every reliable frame got acknowledged; nothing expired or pends.
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
    # snapshot=True tolerates mutation-during-iteration.
    seen = 0
    for entry in store.candidates(Pattern("big", int), snapshot=True):
        store.remove(entry.entry_id)
        seen += 1
    assert seen == 1000
    assert len(store) == 0


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
