"""The mini-protocol the threads and aio runtimes share (``runtime/base.py``).

One copy of the code, so one copy of the tests: every case runs on both
runtimes through ``repro.connect`` and must read the same on each —
registry and visibility relation, serving gate and ``SHED``, the origin's
capped per-peer back-off, and the plain operation counters.
"""

import time

import pytest

import repro
from repro.runtime import SHED
from repro.tuples import Pattern, Tuple

pytestmark = pytest.mark.timeout(60)


@pytest.fixture(params=["threads", "aio"])
def rt(request):
    with repro.connect(request.param) as runtime:
        yield runtime


def _serve_totals(rt):
    metrics = rt.registry.obs.registry.snapshot()["runtime_serve_total"]
    return {tuple(s["labels"].values()): s["value"]
            for s in metrics["samples"]}


def test_zero_serve_budget_is_rejected(rt):
    with pytest.raises(ValueError, match="max_concurrent_serves"):
        rt.node("bad", max_concurrent_serves=0)
    assert rt.registry.all_nodes() == []


def test_visibility_is_symmetric_sorted_dynamic_and_registered_only(rt):
    registry = rt.registry
    a, c, b = rt.node("a"), rt.node("c"), rt.node("b")
    assert [n.name for n in registry.all_nodes()] == ["a", "b", "c"]
    registry.set_visible("a", "a")                  # self-edge: ignored
    assert registry.visible_nodes("a") == []
    registry.set_visible("a", "c")
    registry.set_visible("a", "b")
    registry.set_visible("a", "ghost")              # declared, never registered
    assert registry.visible_nodes("a") == [b, c]    # by name, not by edge age
    assert registry.visible_nodes("c") == [a]
    registry.set_visible("b", "a", False)           # either end clears it
    assert registry.visible_nodes("a") == [c]
    assert registry.visible_nodes("b") == []
    assert registry.visible_nodes("stranger") == []


def test_backoff_window_doubles_per_shed_up_to_the_cap(rt):
    node = rt.node("a")
    for streak in range(1, 12):
        node._note_answer("peer", True, 100.0)
        delay = min(node.POLL_INTERVAL * 2 ** streak, node.SHED_BACKOFF_MAX)
        assert node._peer_backoff["peer"] == (streak, 100.0 + delay)
        assert node._backing_off("peer", 100.0 + delay / 2)
        assert not node._backing_off("peer", 100.0 + delay)
    assert delay == node.SHED_BACKOFF_MAX
    assert not node._backing_off("other", 100.0)    # windows are per peer
    node._note_answer("peer", False, 100.0)
    assert "peer" not in node._peer_backoff


def test_saturated_gate_sheds_and_origin_backs_off(rt):
    a = rt.node("a", max_concurrent_serves=1)
    b = rt.node("b")
    b.POLL_INTERVAL = 0.05      # first window 0.1 s: wide enough to probe inside
    rt.set_visible("a", "b")
    pattern = Pattern("t", int)
    a.out(Tuple("t", 1))

    assert not SHED             # falsy sentinel: plain truthiness keeps working
    assert b.rdp(pattern) == Tuple("t", 1)
    assert a.active_serves == 0

    # Saturate a's serving gate; b's probe is shed and opens a window.
    assert a._admit_serve()
    assert a.active_serves == 1
    assert a.serve_rdp(pattern) is SHED
    assert a.serve_inp(pattern) is SHED
    assert b.rdp(pattern) is None
    assert b._peer_backoff["a"][0] == 1
    assert a.sheds == 3
    a._release_serve()

    # Inside the window b does not even contact a.
    before = _serve_totals(rt)
    assert b.rdp(pattern) is None
    assert _serve_totals(rt) == before

    time.sleep(0.15)
    assert b.rdp(pattern) == Tuple("t", 1)
    assert "a" not in b._peer_backoff   # a served answer clears the window
    totals = _serve_totals(rt)
    assert totals[("a", "shed")] == 3
    assert totals[("a", "served")] == 2


def test_plain_counters_read_the_same_on_both_runtimes(rt):
    a, b = rt.node("a"), rt.node("b")
    rt.set_visible("a", "b")
    a.out(Tuple("x", 1))
    assert b.rdp(Pattern("x", int)) == Tuple("x", 1)    # remote hit
    assert b.inp(Pattern("nope")) is None               # miss everywhere
    assert b.rd(Pattern("nope"), timeout=0.0) is None
    assert b.in_(Pattern("x", int), timeout=1.0) == Tuple("x", 1)
    assert (a.ops_started, a.ops_unsatisfied, a.sheds) == (1, 0, 0)
    assert (b.ops_started, b.ops_unsatisfied, b.sheds) == (4, 2, 0)
    ops = rt.registry.obs.registry.snapshot()["runtime_ops_total"]
    counted = {tuple(s["labels"].values()): s["value"] for s in ops["samples"]}
    assert counted == {("a", "out", "ok"): 1, ("b", "rdp", "hit"): 1,
                       ("b", "inp", "miss"): 1, ("b", "rd", "miss"): 1,
                       ("b", "in", "hit"): 1}
