"""``repro.connect``: one front door, three runtimes, one contract.

The v1.2 API redesign routes every runtime behind
``repro.connect(runtime=...)``; these tests pin the dispatch table, the
shared Protocol contract, and that the 1.x deprecation shims are gone.
"""

import pytest

import repro
from repro.core.config import TiamatConfig
from repro.errors import MalformedTupleError
from repro.runtime.api import (
    AioRuntime,
    SimRuntime,
    ThreadsRuntime,
    TiamatNodeHandle,
    TiamatRuntime,
    connect,
)
from repro.tuples.model import Pattern, Range, Tuple

pytestmark = pytest.mark.timeout(120)

RUNTIME_KINDS = ["sim", "threads", "aio"]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def test_connect_is_exported_at_top_level():
    assert repro.connect is connect
    assert "connect" in repro.__all__
    assert "TiamatRuntime" in repro.__all__
    assert "TiamatNodeHandle" in repro.__all__


@pytest.mark.parametrize("kind,cls", [
    ("sim", SimRuntime), ("threads", ThreadsRuntime), ("aio", AioRuntime)])
def test_connect_dispatches_by_kind(kind, cls):
    with connect(runtime=kind) as rt:
        assert isinstance(rt, cls)
        assert rt.kind == kind
        assert isinstance(rt, TiamatRuntime)


def test_connect_defaults_to_sim():
    with connect() as rt:
        assert rt.kind == "sim"


def test_unknown_runtime_is_rejected():
    with pytest.raises(ValueError, match="unknown runtime"):
        connect(runtime="carrier-pigeon")


def test_connect_threads_config_flows_through():
    # A config reaches every sim node; threads and aio take none.
    config = TiamatConfig(propagate_mode="continuous")
    with connect(runtime="sim", config=config) as rt:
        assert rt.node("a").instance.config is config


@pytest.mark.parametrize("kind", ["threads", "aio"])
def test_connect_refuses_a_config_it_would_not_apply(kind):
    with pytest.raises(TypeError, match="TiamatConfig"):
        connect(runtime=kind, config=TiamatConfig())


# ----------------------------------------------------------------------
# One behavioural contract across all three runtimes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_out_read_take(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        b = rt.node("b")
        rt.set_visible("a", "b")
        assert isinstance(a, TiamatNodeHandle)
        b.out(Tuple("shared", 1))
        a.out(Tuple("mine", 2))
        # local and remote reads through the identical facade
        assert a.rdp(Pattern("mine", int)) == Tuple("mine", 2)
        assert a.rdp(Pattern("shared", int)) == Tuple("shared", 1)
        assert a.inp(Pattern("shared", int)) == Tuple("shared", 1)
        assert a.rdp(Pattern("shared", int)) is None
        assert a.inp(Pattern("absent", str)) is None


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_blocking_timeout(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        assert a.rd(Pattern("never", int), timeout=0.2) is None
        assert a.in_(Pattern("never", int), timeout=0.2) is None


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_eval_deposits(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        a.eval(lambda: Tuple("made", 7))
        # eval's return shape is runtime-specific (see API.md); the
        # contract is the deposited result, observable via blocking read
        assert a.rd(Pattern("made", int), timeout=10.0) == Tuple("made", 7)


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_range_admits_no_nan(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        a.out(Tuple("load", float("nan")))
        assert a.rdp(Pattern("load", Range(0.0, 0.5))) is None
        a.out(Tuple("load", 0.25))
        assert a.rdp(Pattern("load", Range(0.0, 0.5))) == Tuple("load", 0.25)


def test_runtime_protocols_are_runtime_checkable():
    with connect(runtime="sim") as rt:
        assert isinstance(rt, TiamatRuntime)
        assert isinstance(rt.node("n"), TiamatNodeHandle)
        assert not isinstance(object(), TiamatRuntime)


# ----------------------------------------------------------------------
# The sim handle waits on the operation's event, not on a process
# ----------------------------------------------------------------------
def test_sim_handle_wait_costs_no_kernel_events():
    """40 handle calls, 32 of them waiting: the virtual clock ends where
    it did when each wait spawned a driver process (pinned at PR 21:
    2 node settles + 32 slices of 0.25 s, 402 events), and every waiting
    call costs exactly 2 kernel events fewer (the spawn step and the
    process's completion trigger)."""
    with connect("sim", seed=5) as rt:
        a, b = rt.node("a"), rt.node("b")
        rt.set_visible("a", "b")
        before = rt.sim.events_processed
        for i in range(8):
            b.out(Tuple("job", i))
            assert a.rdp(Pattern("job", i)) == Tuple("job", i)
            assert a.rd(Pattern("job", int), timeout=1.0) == Tuple("job", i)
            assert a.in_(Pattern("job", i), timeout=1.0) == Tuple("job", i)
            assert a.inp(Pattern("job", int)) is None
        assert rt.sim.now == 8.001999999999999
        assert rt.sim.events_processed - before == 402 - 2 * 32


def test_sim_handle_failed_eval_raises_once():
    with connect("sim") as rt:
        a = rt.node("a")
        with pytest.raises(MalformedTupleError):
            a.eval(lambda: 7)
        rt.run(until=rt.sim.now + 1.0)      # no unobserved driver re-raises


def test_sim_handle_raises_a_failed_event():
    with connect("sim") as rt:
        a = rt.node("a")
        failed = rt.sim.event().fail(MalformedTupleError("boom"))
        with pytest.raises(MalformedTupleError, match="boom"):
            a._await_event(failed, timeout=5.0)


def test_sim_handle_timeout_withdraws_the_operation():
    with connect("sim") as rt:
        a = rt.node("a")
        assert a.in_(Pattern("late", int), timeout=0.5) is None
        a.out(Tuple("late", 1))
        rt.run(until=rt.sim.now + 1.0)
        assert a.rdp(Pattern("late", int)) == Tuple("late", 1)


def test_sim_handle_returns_a_concluded_event_within_one_slice():
    with connect("sim") as rt:
        a = rt.node("a")
        concluded = rt.sim.event().succeed(Tuple("done", 1))
        rt.run(until=rt.sim.now + 1.0)      # triggered and flushed
        start = rt.sim.now
        assert a._await_event(concluded, timeout=60.0) == Tuple("done", 1)
        assert rt.sim.now == start + 0.25


# ----------------------------------------------------------------------
# The 1.x deprecation shims are gone (2.0)
# ----------------------------------------------------------------------
def test_runtime_package_dropped_threaded_reexports():
    import repro.runtime as runtime_pkg
    for removed in ("ThreadedTiamatNode", "ThreadedNodeRegistry"):
        with pytest.raises(AttributeError):
            getattr(runtime_pkg, removed)
    assert not hasattr(repro, "create_instance")


def test_runtime_package_rejects_unknown_attribute():
    import repro.runtime as runtime_pkg
    with pytest.raises(AttributeError):
        runtime_pkg.NoSuchThing
