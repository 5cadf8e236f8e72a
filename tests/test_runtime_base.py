"""The mini-protocol the threads and aio runtimes share (``runtime/base.py``).

One copy of the code, so one copy of the tests: every case runs on both
runtimes through ``repro.connect`` and must read the same on each —
registry and visibility relation, the plain operation counters, and the
order a blocking ``rd``/``in_`` works in (probe first, park after).
"""

import threading
import time

import pytest

import repro
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


def test_plain_counters_read_the_same_on_both_runtimes(rt):
    a, b = rt.node("a"), rt.node("b")
    rt.set_visible("a", "b")
    a.out(Tuple("x", 1))
    assert b.rdp(Pattern("x", int)) == Tuple("x", 1)    # remote hit
    assert b.inp(Pattern("nope")) is None               # miss everywhere
    assert b.rd(Pattern("nope"), timeout=0.0) is None
    assert b.in_(Pattern("x", int), timeout=1.0) == Tuple("x", 1)
    assert (a.ops_started, a.ops_unsatisfied) == (1, 0)
    assert (b.ops_started, b.ops_unsatisfied) == (4, 2)
    ops = rt.registry.obs.registry.snapshot()["runtime_ops_total"]
    counted = {tuple(s["labels"].values()): s["value"] for s in ops["samples"]}
    assert counted == {("a", "out", "ok"): 1, ("b", "rdp", "hit"): 1,
                       ("b", "inp", "miss"): 1, ("b", "rd", "miss"): 1,
                       ("b", "in", "hit"): 1}
    assert _serve_totals(rt) == {("a", "served"): 4}   # every probe served


# ----------------------------------------------------------------------
# The blocking loop: local check -> peer round -> deadline -> park -> repeat
# ----------------------------------------------------------------------
@pytest.fixture()
def pair(rt):
    a, b = rt.node("a"), rt.node("b")
    rt.set_visible("a", "b")
    return a, b


def _timed(fn, *args, **kwargs):
    start = time.monotonic()
    return fn(*args, **kwargs), time.monotonic() - start


def _after(delay, action):
    """Run ``action`` on a thread ``delay`` seconds from now."""
    timer = threading.Timer(delay, action)
    timer.start()
    return timer


def test_blocking_probes_peers_before_it_parks(pair):
    a, b = pair
    b.POLL_INTERVAL = 30.0      # one instance; a park would be obvious
    a.out(Tuple("there", 1))
    pattern = Pattern("there", int)
    got, elapsed = _timed(b.rd, pattern, timeout=5.0)
    assert got == Tuple("there", 1) and elapsed < 1.0
    got, elapsed = _timed(b.in_, pattern, timeout=5.0)
    assert got == Tuple("there", 1) and elapsed < 1.0
    assert a.space.count() == 0         # the take removed it at the owner


def test_local_out_wakes_a_parked_op(pair):
    _, b = pair
    b.POLL_INTERVAL = 30.0
    deposited = []

    def deposit():
        deposited.append(time.monotonic())
        b.out(Tuple("late", 1))

    timer = _after(0.2, deposit)
    got = b.in_(Pattern("late", int), timeout=10.0)
    woke = time.monotonic()
    timer.join(timeout=5.0)
    assert got == Tuple("late", 1) and woke - deposited[0] < 1.0


def test_later_rounds_find_late_deposits_and_late_peers(rt, pair):
    a, b = pair
    timer = _after(0.1, lambda: a.out(Tuple("late", 1)))
    got, elapsed = _timed(b.in_, Pattern("late", int), timeout=10.0)
    timer.join(timeout=5.0)
    assert got == Tuple("late", 1) and elapsed < 1.0

    c = rt.node("c")
    c.out(Tuple("far", 2))
    timer = _after(0.1, lambda: rt.set_visible("b", "c"))
    got, elapsed = _timed(b.rd, Pattern("far", int), timeout=10.0)
    timer.join(timeout=5.0)
    assert got == Tuple("far", 2) and elapsed < 1.0


def test_blocking_does_not_overshoot_a_lease_shorter_than_the_poll(pair):
    a, b = pair
    b.POLL_INTERVAL = 0.5       # one instance; a full poll would be obvious
    got, elapsed = _timed(b.rd, Pattern("never"), timeout=0.02)
    assert got is None and elapsed < 0.25
    # a zero lease is still one local check and one peer round
    a.out(Tuple("there", 1))
    assert b.in_(Pattern("there", int), timeout=0.0) == Tuple("there", 1)
