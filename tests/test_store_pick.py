"""``TupleStore.find`` picks the same entry, with the same draws, on every path.

The store answers a signature-exact pattern straight from an index bucket,
a ``Range`` from a bisected ordered index, and everything else by a
filtered walk.  All must behave like the reference below — filter every
entry by ``visible`` and ``matches``, oldest first, ``rng.choice`` when
more than one — down to the state the random stream is left in, or seeded
experiments would drift.  A value index exists only at the positions a
query has named, built on the first such query, so its buckets must hold
what an index kept from the first add would.

This machine owns "no lookup returns or counts an entry that was removed
or is held": the ``ghost`` canary, which plants exactly that bug, must
make it fail.
"""

import random

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule, run_state_machine_as_test)

from repro.sim.rng import RngStream
from repro.tuples import ANY, Formal, Pattern, Range, Tuple, TupleStore, matches

NAN = float("nan")
#: Values whose hashes and ``==`` collide across types (1 / True / 1.0,
#: 0.0 / -0.0), a value equal to nothing, bytes and nested tuples, and a
#: few more numbers for ranges to cut between.
SCALARS = [1, True, 1.0, 0.0, -0.0, 0, False, NAN, "a", "1", b"a", b"",
           2, -3, 2.5, float("inf")]
NESTED = [Tuple(1), Tuple(True), Tuple(1.0), Tuple("a", Tuple(0.0)), Tuple(NAN)]

values = st.sampled_from(SCALARS + NESTED)
tuples = st.lists(values, min_size=1, max_size=3).map(Tuple.of)

formals = st.sampled_from([bool, int, float, str, bytes]).map(Formal)
loose = st.sampled_from([ANY, Range(0, 1), Range(None, 0.5), Range(1.0, None),
                         Formal(Tuple)])


@st.composite
def patterns(draw):
    """All-formal, one-actual, two-actual and non-exact patterns, arity 1-3.

    Built around a tuple's own field types, so most of them match something.
    """
    like = draw(tuples)
    shape = draw(st.sampled_from(["formal", "one", "two", "loose", "mixed"]))
    specs = [Formal(Tuple if isinstance(f, Tuple) else type(f)) for f in like]
    if shape == "mixed":
        specs = [draw(st.one_of(st.just(spec), st.just(f), values, formals, loose))
                 for spec, f in zip(specs, like)]
    elif shape == "loose":
        specs[draw(st.integers(0, len(specs) - 1))] = draw(loose)
    elif shape != "formal":
        positions = draw(st.permutations(range(len(specs))))
        for pos in positions[:1 if shape == "one" else 2]:
            specs[pos] = like[pos]
    return Pattern.of(specs)


class Reference:
    """Every entry in insertion order; a find filters all of them."""

    def __init__(self):
        self.entries = []       # [entry_id, tuple, held]

    def found(self, pattern):
        return [e[0] for e in self.entries
                if not e[2] and matches(pattern, e[1])]

    def find(self, pattern, rng=None):
        found = self.found(pattern)
        if not found:
            return None
        if rng is not None and len(found) > 1:
            return rng.choice(found)
        return found[0]

    def ids(self, held):
        return [e[0] for e in self.entries if e[2] == held]

    def set_held(self, entry_id, held):
        next(e for e in self.entries if e[0] == entry_id)[2] = held

    def drop(self, entry_id):
        self.entries = [e for e in self.entries if e[0] != entry_id]


class PickMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TupleStore()
        self.ref = Reference()
        self.rng = RngStream(7)
        self.ref_rng = RngStream(7)
        # Recovery restores under original ids, in no particular order.
        self.pinned = iter(range(100_000, 0, -7))

    def _same_draws(self):
        assert self.rng._random.getstate() == self.ref_rng._random.getstate()

    @rule(tup=tuples)
    def add(self, tup):
        entry = self.store.add(tup)
        self.ref.entries.append([entry.entry_id, tup, False])

    @rule(values=st.lists(st.sampled_from([-3, 0, 1, 2, True, False, -0.0, 0.0,
                                           1.0, 2.5, NAN, float("inf")]),
                          min_size=1, max_size=8))
    def add_readings(self, values):
        """Dense buckets of ints, floats and bools at one position, out of
        value order, for ``Range`` slices to cut."""
        for value in values:
            self.add(Tuple("n", value))

    @rule(tup=tuples, quarantine=st.booleans())
    def restore(self, tup, quarantine):
        entry = self.store.add(tup, entry_id=next(self.pinned))
        if quarantine:
            self.store.hold(entry.entry_id)
        self.ref.entries.append([entry.entry_id, tup, quarantine])

    @rule(tup=tuples)
    def recover(self, tup):
        """Recovery bumps the counter past the pinned ids, then restores one
        under its original (lower) id: insertion order is not id order."""
        self.store.bump_ids(100_000)
        entry = self.store.add(tup, entry_id=next(self.pinned))
        self.ref.entries.append([entry.entry_id, tup, False])

    @precondition(lambda self: self.ref.entries)
    @rule(data=st.data())
    def remove(self, data):
        entry_id = data.draw(st.sampled_from([e[0] for e in self.ref.entries]))
        self.store.remove(entry_id)
        self.ref.drop(entry_id)

    @precondition(lambda self: self.ref.ids(held=False))
    @rule(data=st.data())
    def hold(self, data):
        entry_id = data.draw(st.sampled_from(self.ref.ids(held=False)))
        self.store.hold(entry_id)
        self.ref.set_held(entry_id, True)

    @precondition(lambda self: self.ref.ids(held=True))
    @rule(data=st.data(), confirm=st.booleans())
    def settle(self, data, confirm):
        entry_id = data.draw(st.sampled_from(self.ref.ids(held=True)))
        if confirm:
            self.store.confirm(entry_id)
            self.ref.drop(entry_id)
        else:
            self.store.release(entry_id)
            self.ref.set_held(entry_id, False)

    @rule(pattern=patterns(), take=st.booleans())
    def find_seeded(self, pattern, take):
        entry = self.store.find(pattern, self.rng)
        expected = self.ref.find(pattern, self.ref_rng)
        assert (entry.entry_id if entry else None) == expected
        self._same_draws()
        if entry is not None and take:
            self.store.remove(entry.entry_id)
            self.ref.drop(entry.entry_id)

    @rule(pattern=patterns())
    def find_oldest(self, pattern):
        entry = self.store.find(pattern)
        assert (entry.entry_id if entry else None) == self.ref.find(pattern)

    @rule(pattern=patterns())
    def find_all(self, pattern):
        got = [e.entry_id for e in self.store.find_all(pattern)]
        assert got == sorted(self.ref.found(pattern))
        assert all(self.store.get(i).visible for i in got)
        assert self.store.count(pattern) == len(got)

    @rule(data=st.data(), take=st.booleans())
    def find_range(self, data, take):
        """A pattern built around a resident, with a ``Range`` at one of its
        positions whose bounds are resident numbers (a bound can equal a
        resident; either may be open)."""
        residents = [e[1] for e in self.ref.entries] or [Tuple(1, 2.5)]
        numbers = [f for tup in residents for f in tup.fields
                   if type(f) in (int, float)] or [0, 1.5]
        bound = st.one_of(st.none(), st.sampled_from(numbers))
        lo, hi = data.draw(bound), data.draw(bound)
        if lo is None and hi is None:
            hi = numbers[0]
        elif lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        like = data.draw(st.sampled_from(residents))
        specs = [data.draw(st.sampled_from([ANY, f, Formal(type(f)), Range(lo, hi)]))
                 if not isinstance(f, Tuple) else Formal(Tuple) for f in like]
        specs[data.draw(st.integers(0, len(specs) - 1))] = Range(lo, hi)
        pattern = Pattern.of(specs)
        self.find_oldest(pattern)
        self.find_all(pattern)
        self.find_seeded(pattern, take)

    @invariant()
    def ordered_indexes_match_their_buckets(self):
        for sig, by_pos in self.store._ordered.items():
            bucket = self.store._by_sig.get(sig, {})
            for pos, keys in by_pos.items():
                assert keys == sorted(
                    (e.tuple[pos], e.seq, e) for e in bucket.values()
                    if e.tuple[pos] == e.tuple[pos])

    @invariant()
    def value_indexes_match_their_buckets(self):
        """Each indexed position holds what an index kept from the first add
        would, in the same order; no other position is indexed."""
        eager = {}
        for sig, positions in self.store._indexed.items():
            for entry_id, entry in self.store._by_sig.get(sig, {}).items():
                for pos in positions:
                    eager.setdefault((sig, pos, entry.tuple[pos]), []).append(
                        (entry_id, entry))
        assert {key: list(bucket.items())
                for key, bucket in self.store._by_actual.items()} == eager


PICK_SETTINGS = settings(max_examples=60, stateful_step_count=60,
                         deadline=None)
TestStorePick = PickMachine.TestCase
TestStorePick.settings = PICK_SETTINGS


def test_store_pick_catches_the_ghost_canary(monkeypatch):
    """With the ``ghost`` canary on, a lookup returns a removed or held
    entry and the machine fails; with it off, the same machine passes."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    first_failure = settings(PICK_SETTINGS, report_multiple_bugs=False,
                             phases=[Phase.generate])
    with pytest.raises(AssertionError):
        run_state_machine_as_test(PickMachine, settings=first_failure)
    monkeypatch.delenv("REPRO_CHECK_CANARY")
    run_state_machine_as_test(PickMachine, settings=PICK_SETTINGS)


def test_nan_actuals_never_match_through_the_index():
    store = TupleStore()
    store.add(Tuple(NAN))
    store.add(Tuple("x", NESTED[-1]))
    assert store.find(Pattern(NAN)) is None
    assert store.find(Pattern(str, NESTED[-1])) is None
    assert store.find(Pattern(float)).tuple.fields[0] is NAN
    assert store.find(Pattern("x", Formal(Tuple))) is not None


def test_range_narrows_by_bisect_and_never_admits_nan():
    store = TupleStore()
    for i in range(2000):
        store.add(Tuple("note", i, float(i)))
    store.add(Tuple("note", 5, NAN))
    store.add(Tuple("note", 5.0, 5.0))              # another signature
    p = Pattern("note", Range(5, 14), ANY)
    assert [e.tuple[1] for e in store.find_all(p)] == list(range(5, 15)) + [5, 5.0]
    assert store.find(Pattern("note", int, Range(0.0, 0.5))).tuple[2] == 0.0
    store.add(Tuple("note", 7, 7.5))                # a write strands the memo
    before = store.entries_scanned
    assert store.count(p) == 13
    assert store.entries_scanned - before == 13     # the slices, not 2000 notes
    assert store.find(Pattern("note", int, Range(hi=-1.0))) is None
    assert store.count(Pattern("note", int, float)) == 2002  # exact: len(bucket)


def test_a_ghost_stays_in_the_ordered_index(monkeypatch):
    """The ``ghost`` canary's removed-but-unindexed entry is still found
    through a ``Range`` — the index must not hide the planted bug."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    store = TupleStore()
    ghost = store.add(Tuple("n", 3))
    store.find(Pattern("n", Range(0, 9)))           # builds the index
    store.remove(ghost.entry_id)
    assert store.find(Pattern("n", Range(1, 5))) is ghost


def test_a_ghost_is_in_a_value_index_built_after_it_left(monkeypatch):
    """Under the ``ghost`` canary a removed entry stays in its signature
    bucket, so a value index built later holds it, as one kept from the
    first add did."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    store = TupleStore()
    ghost = store.add(Tuple("n", 3))
    store.remove(ghost.entry_id)
    assert not store._by_actual
    assert store.find(Pattern("n", 3)) is ghost


def test_values_are_indexed_only_at_positions_a_query_names():
    store = TupleStore()
    for i in range(100):
        store.add(Tuple("task", i, "%032x" % i))
    assert store._by_actual == {} and store._indexed == {}
    walk = Pattern(str, ANY, str)
    assert store.find(walk).tuple[1] == 0           # a walk, memoized
    assert store.find(Pattern(str, Range(5, 6), str)).tuple[1] == 5
    assert store._by_actual == {}                   # no actual named yet
    version, misses = store._version, store.scan_cache_misses
    assert store.find(Pattern("task", 7, str)).tuple[1] == 7
    assert store._indexed == {(str, int, str): {0, 1}}
    assert {key[1] for key in store._by_actual} == {0, 1}
    # Building an index changes no visibility: the memo still serves.
    assert store._version == version
    assert store.find(walk).tuple[1] == 0
    assert store.scan_cache_misses == misses
    store.remove(store.find(Pattern("task", 7, str)).entry_id)
    store.add(Tuple("task", 7, "again"))
    assert store.find(Pattern("task", 7, str)).tuple[2] == "again"
    assert {key[1] for key in store._by_actual} == {0, 1}


def test_an_index_built_late_picks_what_one_kept_from_the_start_does():
    """One store is queried from its first add, the other first after 500
    adds and removes; from then on both pick the same entries with the
    same seeded draws."""
    early, late = TupleStore(), TupleStore()
    script = random.Random(5)
    named = [Pattern("task", int, "b"), Pattern("task", 3, str),
             Pattern("task", 3, "c"), Pattern(str, 1.0, str)]
    for i in range(500):
        tup = Tuple("task", script.choice([0, 1, 2, 3, 1.0, True]),
                    script.choice("abc"))
        ids = {early.add(tup).entry_id, late.add(tup).entry_id}
        assert len(ids) == 1
        if i % 4 == 3:
            gone = script.randrange(1, i + 2)
            if early.get(gone) is not None:
                early.remove(gone)
                late.remove(gone)
        for pattern in named:
            early.find(pattern)
    assert late._by_actual == {}
    stores = [(early, RngStream(21)), (late, RngStream(21))]
    hits = 0
    for step in range(300):
        pattern = script.choice(named)
        ids = [e.entry_id if e else None for e in
               (store.find(pattern, rng) for store, rng in stores)]
        assert ids[0] == ids[1]
        assert stores[0][1]._random.getstate() == stores[1][1]._random.getstate()
        hits += ids[0] is not None
        if ids[0] is not None and step % 2:
            for store, _ in stores:
                store.remove(ids[0])
                store.add(Tuple("task", step % 4, "b"))
    assert hits > 200
    assert {k: list(b) for k, b in early._by_actual.items()} == {
        k: list(b) for k, b in late._by_actual.items()}


def test_take_any_walks_to_the_drawn_entry_from_the_nearer_end():
    """For every draw k over a 7-entry bucket the pick is the bucket's k-th
    entry, and the stream is left where ``rng.choice`` leaves it."""
    store = TupleStore()
    for i in range(9):
        store.add(Tuple("t", i))
    store.remove(3)
    store.remove(7)
    store.add(Tuple("t", 1.5), entry_id=100)        # another signature
    bucket = list(store._by_sig[(str, int)].values())
    assert len(bucket) == 7
    seen = set()
    for seed in range(200):
        rng, ref = RngStream(seed), RngStream(seed)
        k = ref.choice(range(7))
        assert store.find(Pattern("t", int), rng) is bucket[k]
        assert rng._random.getstate() == ref._random.getstate()
        seen.add(k)
    assert seen == set(range(7))


def test_count_is_find_all_without_the_list():
    counted, listed = TupleStore(), TupleStore()
    for store in (counted, listed):
        for i in range(50):
            store.add(Tuple("t", i % 7, float(i)))
    for p in (Pattern("t", int, float), Pattern("t", 3, float),
              Pattern("t", Range(2, 4), float), Pattern(str, ANY, ANY)):
        for store in (counted, listed):
            store.add(Tuple("t", 3, 0.5))           # strand the memo
        assert counted.count(p) == len(listed.find_all(p))
        assert (counted.scans, counted.entries_scanned) == (
            listed.scans, listed.entries_scanned)


def test_oldest_first_across_signatures_is_insertion_order_not_id_order():
    store = TupleStore()
    store.add(Tuple(True), entry_id=900)        # recovery pins original ids
    store.add(Tuple(1))                         # id 1, deposited later
    store.add(Tuple(1.0), entry_id=500)
    assert store.find(Pattern(ANY)).entry_id == 900
    assert [e.entry_id for e in store.candidates(Pattern(ANY))] == [900, 1, 500]
    assert [e.entry_id for e in store.find_all(Pattern(ANY))] == [1, 500, 900]
    rng, same = RngStream(5), RngStream(5)
    assert store.find(Pattern(ANY), rng).entry_id == same.choice([900, 1, 500])


def test_exact_pick_skips_the_walk_and_the_memo():
    store = TupleStore()
    for i in range(500):
        store.add(Tuple("task", i, "t"))
        store.add(Tuple("note", i, 0.5))
    rng = RngStream(3)
    for i in range(100):
        assert store.find(Pattern("task", int, str), rng) is not None
        assert store.find(Pattern("task", i, str), rng).tuple[1] == i
    assert store.entries_scanned == 200
    assert store.scan_cache_hits == store.scan_cache_misses == 0
    # A held entry brings the filtered walk back; settling it ends that.
    held = store.find(Pattern("note", int, float))
    store.hold(held.entry_id)
    assert store.find(Pattern("task", int, str), rng) is not None
    assert (store.entries_scanned, store.scan_cache_misses) == (701, 1)
    store.confirm(held.entry_id)
    assert store.find(Pattern("task", int, str), rng) is not None
    assert (store.entries_scanned, store.scan_cache_misses) == (702, 1)
