"""Edge cases for the threaded runtime and persistence properties."""

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ThreadSafeTupleSpace
from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode
from repro.core import TiamatInstance
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple
from repro.tuples.storage import DEFAULT_SKIP_TAGS, MemoryBackend, attach_backend
from tests.test_matching import tuples as tuples_strategy


# ---------------------------------------------------------------------------
# Threaded runtime edges
# ---------------------------------------------------------------------------
def test_threaded_eval_bad_result_deposits_nothing():
    registry = ThreadedNodeRegistry()
    node = ThreadedTiamatNode(registry, "n")
    # Good eval deposits its tuple...
    thread = node.eval(lambda: Tuple("ok"))
    thread.join(timeout=5.0)
    assert node.rdp(Pattern("ok")) == Tuple("ok")
    # ...a failing eval dies on its own thread and deposits nothing.
    import threading as _threading

    captured = []
    original_hook = _threading.excepthook
    _threading.excepthook = lambda args: captured.append(args.exc_type)
    try:
        bad = node.eval(lambda: "not-a-tuple")
        bad.join(timeout=5.0)
    finally:
        _threading.excepthook = original_hook
    assert captured == [TypeError]
    assert node.space.count() == 1  # only the good result


def test_threaded_space_count_with_pattern():
    space = ThreadSafeTupleSpace()
    space.out(Tuple("a", 1))
    space.out(Tuple("a", 2))
    space.out(Tuple("b", 1))
    assert space.count(Pattern("a", int)) == 2
    assert space.count() == 3


def test_threaded_rd_does_not_consume_remote():
    registry = ThreadedNodeRegistry()
    a = ThreadedTiamatNode(registry, "a")
    b = ThreadedTiamatNode(registry, "b")
    registry.set_visible("a", "b")
    a.out(Tuple("keep"))
    assert b.rd(Pattern("keep"), timeout=1.0) == Tuple("keep")
    assert a.space.count(Pattern("keep")) == 1


def test_threaded_unbounded_rd_blocks_until_signal():
    space = ThreadSafeTupleSpace()
    results = []

    def reader():
        results.append(space.rd(Pattern("sig")))  # no timeout: waits

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not results
    space.out(Tuple("sig"))
    thread.join(timeout=5.0)
    assert results == [Tuple("sig")]


# ---------------------------------------------------------------------------
# Persistence properties
# ---------------------------------------------------------------------------
def power_cycle(items):
    """Image ``(tuple, expires_at)`` items on one device, recover on the next."""
    sim = Simulator()
    net = Network(sim)
    old = TiamatInstance(sim, net, "dev")
    for tup, expires_at in items:
        old.space.out(tup, expires_at=expires_at)
    backend = attach_backend(old.space, MemoryBackend())
    backend.detach()
    old.shutdown()
    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(backend, sync=False)
    return stats, [e for e in reborn.space.store
                   if e.tuple[0] not in DEFAULT_SKIP_TAGS]


@settings(max_examples=30, deadline=None)
@given(st.lists(tuples_strategy, max_size=10))
def test_snapshot_restore_roundtrip_property(tuples):
    stats, entries = power_cycle([(tup, None) for tup in tuples])
    assert stats.restored == len(tuples)
    assert (sorted((e.tuple for e in entries), key=repr)
            == sorted(tuples, key=repr))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(tuples_strategy,
                          st.one_of(st.none(),
                                    st.floats(min_value=1.0, max_value=100.0))),
                max_size=8))
def test_snapshot_preserves_lease_structure(items):
    _, entries = power_cycle(items)
    # A bounded tuple keeps its deadline; an unbounded one is re-leased for
    # whatever the policy grants an open-ended request (3600 s by default).
    assert (sorted(e.meta["expires_at"] for e in entries)
            == sorted(3600.0 if exp is None else exp for _, exp in items))
