"""Unit and property tests for the indexed tuple store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TupleError
from repro.sim import RngStream
from repro.tuples import ANY, Pattern, Tuple, TupleStore


def test_add_and_find():
    store = TupleStore()
    store.add(Tuple("a", 1))
    entry = store.find(Pattern("a", int))
    assert entry is not None and entry.tuple == Tuple("a", 1)


def test_find_returns_none_when_no_match():
    store = TupleStore()
    store.add(Tuple("a", 1))
    assert store.find(Pattern("b", int)) is None
    assert store.find(Pattern("a", str)) is None


def test_duplicates_are_a_multiset():
    store = TupleStore()
    e1 = store.add(Tuple("dup"))
    e2 = store.add(Tuple("dup"))
    assert e1.entry_id != e2.entry_id
    assert len(store.find_all(Pattern("dup"))) == 2
    store.remove(e1.entry_id)
    assert len(store.find_all(Pattern("dup"))) == 1


def test_remove_unknown_entry_raises():
    with pytest.raises(TupleError):
        TupleStore().remove(123)


def test_find_all_is_oldest_first():
    store = TupleStore()
    for i in range(5):
        store.add(Tuple("seq", i))
    values = [e.tuple[1] for e in store.find_all(Pattern("seq", int))]
    assert values == [0, 1, 2, 3, 4]


def test_find_without_rng_returns_oldest():
    store = TupleStore()
    store.add(Tuple("x", 10))
    store.add(Tuple("x", 20))
    assert store.find(Pattern("x", int)).tuple[1] == 10


def test_find_with_rng_is_nondeterministic_but_valid():
    store = TupleStore()
    for i in range(10):
        store.add(Tuple("x", i))
    rng = RngStream(0)
    seen = {store.find(Pattern("x", int), rng).tuple[1] for _ in range(50)}
    assert len(seen) > 1  # more than one candidate gets picked
    assert seen <= set(range(10))


def test_hold_hides_from_queries():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    assert store.find(Pattern("held")) is None
    assert len(store) == 1  # still resident
    assert store.visible_count == 0


def test_release_restores_visibility():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    store.release(entry.entry_id)
    assert store.find(Pattern("held")) is not None


def test_confirm_removes_for_good():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    store.confirm(entry.entry_id)
    assert store.find(Pattern("held")) is None
    assert len(store) == 0


def test_double_hold_rejected():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    store.hold(entry.entry_id)
    with pytest.raises(TupleError):
        store.hold(entry.entry_id)


def test_confirm_or_release_without_hold_rejected():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    with pytest.raises(TupleError):
        store.confirm(entry.entry_id)
    with pytest.raises(TupleError):
        store.release(entry.entry_id)


def test_exact_type_indexing_does_not_cross_types():
    store = TupleStore()
    store.add(Tuple("k", 1))
    store.add(Tuple("k", True))
    assert store.find(Pattern("k", 1)).tuple == Tuple("k", 1)
    assert store.find(Pattern("k", True)).tuple == Tuple("k", True)


def test_candidates_use_actual_index():
    store = TupleStore()
    for i in range(100):
        store.add(Tuple("bulk", i))
    store.add(Tuple("rare", 0))
    # Searching for the rare tag should inspect only the rare bucket.
    candidates = list(store.candidates(Pattern("rare", int)))
    assert len(candidates) == 1


def test_get_and_iter():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    assert store.get(entry.entry_id) is entry
    assert store.get(9999) is None
    assert [e.tuple for e in store] == [Tuple("x")]


# ---------------------------------------------------------------------------
# Properties: the store behaves as a multiset under add/remove
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=30))
def test_multiset_semantics(values):
    store = TupleStore()
    ids = [store.add(Tuple("v", v)).entry_id for v in values]
    assert len(store) == len(values)
    for v in set(values):
        assert len(store.find_all(Pattern("v", v))) == values.count(v)
    for entry_id in ids:
        store.remove(entry_id)
    assert len(store) == 0
    assert store.find(Pattern("v", ANY)) is None


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
def test_hold_release_preserves_contents(values):
    store = TupleStore()
    entries = [store.add(Tuple("v", v)) for v in values]
    for entry in entries:
        store.hold(entry.entry_id)
    assert store.visible_count == 0
    for entry in entries:
        store.release(entry.entry_id)
    assert store.visible_count == len(values)
    assert sorted(e.tuple[1] for e in store.find_all(Pattern("v", ANY))) == sorted(values)
