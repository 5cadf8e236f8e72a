"""Tests for the real-thread runtime (concurrency, blocking, visibility).

Synchronization discipline: no bare ``time.sleep`` to "let a thread get
going".  Tests that need a reader to be *blocked* before acting wait on
the space's waiter counters (:func:`wait_until`), which is both faster
and deterministic under scheduler jitter.  ``pytest.mark.timeout`` caps
the whole module as a hang guard (enforced when pytest-timeout is
installed — CI — and inert locally).
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.runtime import ThreadSafeTupleSpace
from repro.runtime import space as runtime_space
from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode
from repro.tuples import Formal, Pattern, Tuple, TupleStore

pytestmark = pytest.mark.timeout(60)


def wait_until(predicate, timeout=5.0, interval=0.001, what="condition"):
    """Poll ``predicate`` until true; fail loudly instead of hanging."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"{what} not reached within {timeout}s")
        time.sleep(interval)


# ---------------------------------------------------------------------------
# ThreadSafeTupleSpace
# ---------------------------------------------------------------------------
def test_out_rdp_inp_roundtrip():
    space = ThreadSafeTupleSpace()
    space.out(Tuple("x", 1))
    assert space.rdp(Pattern("x", int)) == Tuple("x", 1)
    assert space.inp(Pattern("x", int)) == Tuple("x", 1)
    assert space.inp(Pattern("x", int)) is None


def test_blocking_rd_wakes_on_deposit():
    space = ThreadSafeTupleSpace()
    results = []

    def reader():
        results.append(space.rd(Pattern("ping"), timeout=5.0))

    thread = threading.Thread(target=reader)
    thread.start()
    # Condition-based sync: only deposit once the reader is parked, so
    # the wake-on-deposit path is exercised every run, not just usually.
    wait_until(lambda: space.waiting == 1, what="reader parked")
    space.out(Tuple("ping"))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [Tuple("ping")]


def test_blocking_in_times_out():
    space = ThreadSafeTupleSpace()
    start = time.monotonic()
    assert space.in_(Pattern("never"), timeout=0.1) is None
    assert time.monotonic() - start >= 0.09


def test_exactly_once_under_contention():
    """Many threads race to take N tuples: each tuple taken exactly once."""
    space = ThreadSafeTupleSpace()
    n = 50
    for i in range(n):
        space.out(Tuple("job", i))
    taken: list = []
    lock = threading.Lock()

    def worker():
        while True:
            tup = space.inp(Pattern("job", Formal(int)))
            if tup is None:
                return
            with lock:
                taken.append(tup[1])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert sorted(taken) == list(range(n))
    assert space.count() == 0


def test_lease_expiry_wall_clock():
    space = ThreadSafeTupleSpace()
    space.out(Tuple("mortal"), lease_duration=0.05)
    assert space.rdp(Pattern("mortal")) == Tuple("mortal")
    # Bounded poll instead of a fixed oversleep: pass as soon as the
    # lease has actually lapsed, fail loudly if it never does.
    wait_until(lambda: space.rdp(Pattern("mortal")) is None,
               what="lease expiry")
    assert space.count() == 0


def test_a_lapsed_tuple_is_never_returned_and_is_reaped_when_met(monkeypatch):
    """Expiry is lazy: a lookup that meets a tuple past its lease removes
    it and goes on to the oldest live match."""
    clock = [100.0]
    monkeypatch.setattr(runtime_space, "time",
                        SimpleNamespace(monotonic=lambda: clock[0]))
    space = ThreadSafeTupleSpace()
    job = Pattern("job", int)
    for i, lease in ((1, 5.0), (2, None), (3, 1.0), (4, 50.0), (5, None), (6, 2.0)):
        space.out(Tuple("job", i), lease_duration=lease)
    assert space.rdp(job) == Tuple("job", 1)
    clock[0] = 106.0                        # jobs 1, 3 and 6 have lapsed
    assert space.rdp(Pattern("job", 3)) is None
    assert len(space.store) == 5            # job 3 was met, so reaped
    assert space.rd(job, timeout=0) == Tuple("job", 2)
    assert len(space.store) == 4            # and job 1; job 6 was not met
    assert space.count(job) == 3
    assert space.snapshot(job) == [Tuple("job", i) for i in (2, 4, 5)]
    clock[0] = 200.0                        # job 4 lapses too
    assert space.inp(job) == Tuple("job", 2)
    assert space.in_(job, timeout=0) == Tuple("job", 5)
    assert len(space.store) == 0            # job 4 was met on the way
    assert space.in_(job, timeout=0) is None
    assert space.count(job) == 0 and space.snapshot(job) == []


def test_snapshot_ordering():
    space = ThreadSafeTupleSpace()
    for i in range(3):
        space.out(Tuple("seq", i))
    assert space.snapshot() == [Tuple("seq", 0), Tuple("seq", 1), Tuple("seq", 2)]


# ---------------------------------------------------------------------------
# ThreadedTiamatNode
# ---------------------------------------------------------------------------
def make_pair(visible=True):
    registry = ThreadedNodeRegistry()
    a = ThreadedTiamatNode(registry, "a")
    b = ThreadedTiamatNode(registry, "b")
    if visible:
        registry.set_visible("a", "b")
    return registry, a, b


def test_logical_space_reaches_visible_peer():
    registry, a, b = make_pair()
    a.out(Tuple("shared", 1))
    assert b.rdp(Pattern("shared", int)) == Tuple("shared", 1)
    assert b.inp(Pattern("shared", int)) == Tuple("shared", 1)
    assert a.space.count(Pattern("shared", int)) == 0


def test_isolated_nodes_see_only_local():
    registry, a, b = make_pair(visible=False)
    a.out(Tuple("private"))
    assert b.rdp(Pattern("private")) is None
    assert a.rdp(Pattern("private")) == Tuple("private")


def test_blocking_across_nodes_with_real_threads():
    registry, a, b = make_pair()
    results = []

    def consumer():
        results.append(b.in_(Pattern("work"), timeout=5.0))

    thread = threading.Thread(target=consumer)
    thread.start()
    # The node's blocking loop parks on its local space between peer
    # probes; one recorded wait entry proves the consumer is in the loop.
    wait_until(lambda: b.space.wait_entries >= 1, what="consumer blocking")
    a.out(Tuple("work"))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [Tuple("work")]


def test_visibility_change_mid_block_is_opportunistic():
    """A node that becomes visible mid-operation is used (model semantics)."""
    registry, a, b = make_pair(visible=False)
    a.out(Tuple("late-visible"))
    results = []

    def consumer():
        results.append(b.rd(Pattern("late-visible"), timeout=5.0))

    thread = threading.Thread(target=consumer)
    thread.start()
    # Wait for the consumer to be mid-block (it has already re-sampled
    # visibility at least once and found nothing), then flip the edge.
    wait_until(lambda: b.space.wait_entries >= 1, what="consumer blocking")
    registry.set_visible("a", "b")
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [Tuple("late-visible")]


def test_exactly_once_across_nodes_under_contention():
    registry = ThreadedNodeRegistry()
    nodes = [ThreadedTiamatNode(registry, f"n{i}") for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            registry.set_visible(f"n{i}", f"n{j}")
    n = 40
    for i in range(n):
        nodes[i % 4].out(Tuple("job", i))
    taken: list = []
    lock = threading.Lock()

    def worker(node):
        while True:
            tup = node.inp(Pattern("job", Formal(int)))
            if tup is None:
                return
            with lock:
                taken.append(tup[1])

    threads = [threading.Thread(target=worker, args=(node,)) for node in nodes]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert sorted(taken) == list(range(n))


def test_resident_scrape_counts_live_tuples_under_the_space_lock(monkeypatch):
    """``runtime_tuples_resident`` reads through ``space.count()``: under
    the space's lock, since a lookup on another thread may be building a
    value index, and without the tuples past their lease."""
    clock = [100.0]
    monkeypatch.setattr(runtime_space, "time",
                        SimpleNamespace(monotonic=lambda: clock[0]))
    registry = ThreadedNodeRegistry()
    space = ThreadedTiamatNode(registry, "a").space

    class LockedStore(TupleStore):
        def __iter__(self):
            assert space._lock.locked(), "store read outside the space's lock"
            return super().__iter__()

        @property
        def visible_count(self):
            assert space._lock.locked(), "store read outside the space's lock"
            return TupleStore.visible_count.fget(self)

    space._store = LockedStore()
    space.out(Tuple("live", 1))
    space.out(Tuple("mortal", 2), lease_duration=1.0)
    clock[0] = 102.0
    samples = registry.obs.registry.snapshot()["runtime_tuples_resident"]["samples"]
    assert samples == [{"labels": {"node": "a"}, "value": 1}]


def test_takers_and_a_scraper_race_without_losing_a_tuple():
    """Takers whose patterns name each position in turn (so their lookups
    build value indexes) race a telemetry scraper: every deposit is taken
    exactly once and no scrape fails."""
    registry = ThreadedNodeRegistry()
    space = ThreadedTiamatNode(registry, "a").space
    for k in range(1000):           # residents a scrape walks past
        space.out(Tuple("base", k))
    deposits, taken, errors = [], [], []
    stop = threading.Event()

    def taker(w):
        try:
            for i in range(200):
                tup = Tuple("job", w, i, "p%d" % i)
                deposits.append(tup)
                space.out(tup)
                named = i % 4
                got = space.inp(Pattern(*[f if k == named else Formal(type(f))
                                          for k, f in enumerate(tup.fields)]))
                if got is not None:     # another taker may have had it
                    taken.append(got)
        except Exception as exc:     # pragma: no cover - the failure itself
            errors.append(exc)

    def scraper():
        try:
            while not stop.is_set():
                registry.obs.registry.snapshot()
        except Exception as exc:     # pragma: no cover - the failure itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the threads' bytecode
    try:
        threads = [threading.Thread(target=taker, args=(w,)) for w in range(4)]
        watcher = threading.Thread(target=scraper)
        for t in threads + [watcher]:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        stop.set()
        watcher.join(timeout=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [watcher])
    assert errors == []
    while (got := space.inp(Pattern("job", int, int, str))) is not None:
        taken.append(got)
    assert sorted(taken, key=repr) == sorted(deposits, key=repr)
    assert space.count() == 1000


def test_threaded_eval_deposits_result():
    registry, a, b = make_pair()
    thread = a.eval(lambda x: Tuple("square", x * x), 7)
    thread.join(timeout=5.0)
    assert b.rdp(Pattern("square", int)) == Tuple("square", 49)


def test_blocking_timeout_returns_none():
    registry, a, b = make_pair()
    start = time.monotonic()
    assert b.in_(Pattern("never"), timeout=0.1) is None
    assert time.monotonic() - start >= 0.09
