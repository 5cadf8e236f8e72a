"""Tests for handle-directed ops, reply-to-origin out, eval, and routing."""

import pytest

from repro.core import (
    SpaceHandle,
    TiamatConfig,
    TiamatInstance,
    SocialRouter,
    UnavailablePolicy,
)
from repro.errors import OperationAbandonedError, TupleError
from repro.leasing import DenyAllPolicy, LeaseTerms, SimpleLeaseRequester
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=7)


# ---------------------------------------------------------------------------
# SpaceHandle model
# ---------------------------------------------------------------------------
def test_handle_tuple_roundtrip():
    handle = SpaceHandle("node1", persistent=True)
    assert SpaceHandle.from_tuple(handle.to_tuple()) == handle


def test_handle_reports_persistence_from_the_bound_backend(sim):
    from repro.tuples.storage import MemoryBackend, attach_backend

    net = Network(sim)
    inst = TiamatInstance(sim, net, "pda")
    assert inst.handle().persistent is False
    backend = attach_backend(inst.space, MemoryBackend())
    assert inst.handle().persistent is True
    backend.detach()
    assert inst.handle().persistent is False


def test_handle_from_bad_tuple_rejected():
    with pytest.raises(TupleError):
        SpaceHandle.from_tuple(Tuple("not-a-space-info", "x", True))


def test_known_handles_lists_self_and_peers(sim):
    net, inst = build(sim, ["a", "b"])
    inst["b"].out(Tuple("seed"))
    op = inst["a"].rd(Pattern("seed"))
    run_op(sim, op, until=5.0)
    handles = inst["a"].known_handles()
    assert SpaceHandle("a") in handles and SpaceHandle("b") in handles


# ---------------------------------------------------------------------------
# out_at / *_at
# ---------------------------------------------------------------------------
def test_out_at_deposits_remotely(sim):
    net, inst = build(sim, ["a", "b"])
    event = inst["a"].out_at(SpaceHandle("b"), Tuple("deposited", 1))
    sim.run(until=5.0)
    assert event.triggered and event.value is True
    assert inst["b"].space.count(Pattern("deposited", int)) == 1
    assert inst["a"].space.count(Pattern("deposited", int)) == 0


def test_out_at_self_handle_is_local(sim):
    net, inst = build(sim, ["a"])
    event = inst["a"].out_at(inst["a"].handle(), Tuple("here"))
    sim.run(until=1.0)
    assert event.value is True
    assert inst["a"].space.count(Pattern("here")) == 1


def test_out_at_invisible_target_fails(sim):
    net, inst = build(sim, ["a", "b"], clique=False)
    event = inst["a"].out_at(SpaceHandle("b"), Tuple("lost"))
    sim.run(until=5.0)
    assert event.value is False
    assert inst["b"].space.count(Pattern("lost")) == 0


def test_out_at_refused_by_remote_lease_manager(sim):
    """Remote deposits are leased at the destination (section 2.5)."""
    net = Network(sim)
    a = TiamatInstance(sim, net, "a")
    b = TiamatInstance(sim, net, "b", policy=DenyAllPolicy())
    net.visibility.set_visible("a", "b")
    event = a.out_at(SpaceHandle("b"), Tuple("refused"))
    sim.run(until=5.0)
    assert event.value is False
    # Only the (infrastructure) space-info tuple is present.
    assert b.space.count() == 1
    assert b.space.count(Pattern("refused")) == 0
    assert b.leases.refusals >= 1


def test_rdp_at_reads_only_named_space(sim):
    net, inst = build(sim, ["a", "b", "c"])
    inst["b"].out(Tuple("thing", "b"))
    inst["c"].out(Tuple("thing", "c"))
    op = inst["a"].rdp_at(SpaceHandle("b"), Pattern("thing", str))
    assert run_op(sim, op, until=5.0) == Tuple("thing", "b")
    # the local space and c were never consulted
    assert op.contacted == ["b"]


def test_inp_at_consumes_from_named_space(sim):
    net, inst = build(sim, ["a", "b"])
    inst["b"].out(Tuple("thing", 1))
    op = inst["a"].inp_at(SpaceHandle("b"), Pattern("thing", int))
    assert run_op(sim, op, until=5.0) == Tuple("thing", 1)
    sim.run(until=10.0)
    assert inst["b"].space.count(Pattern("thing", int)) == 0


def test_rdp_at_ignores_local_matches(sim):
    net, inst = build(sim, ["a", "b"])
    inst["a"].out(Tuple("thing", "local"))
    op = inst["a"].rdp_at(SpaceHandle("b"), Pattern("thing", str))
    assert run_op(sim, op, until=5.0) is None


def test_in_at_blocking_on_named_space(sim):
    net, inst = build(sim, ["a", "b"])
    op = inst["a"].in_at(SpaceHandle("b"), Pattern("later"))
    sim.schedule(2.0, inst["b"].out, Tuple("later"))
    assert run_op(sim, op, until=10.0) == Tuple("later")


def test_directed_op_to_invisible_target_finishes_none(sim):
    net, inst = build(sim, ["a", "b"], clique=False)
    op = inst["a"].rdp_at(SpaceHandle("b"), Pattern("x"))
    assert run_op(sim, op, until=10.0) is None


# ---------------------------------------------------------------------------
# out_back (reply-to-origin) and routing policies
# ---------------------------------------------------------------------------
def test_out_back_to_visible_source(sim):
    net, inst = build(sim, ["client", "server"])
    inst["client"].out(Tuple("request", 1))
    op = inst["server"].in_(Pattern("request", int))
    run_op(sim, op, until=5.0)
    assert op.source == "client"
    how = inst["server"].out_back(op.source, Tuple("response", 1))
    assert how == "remote"
    sim.run(until=10.0)
    assert inst["client"].space.count(Pattern("response", int)) == 1


def test_out_back_local_fallback(sim):
    net, inst = build(sim, ["client", "server"])
    inst["client"].out(Tuple("request", 1))
    op = inst["server"].in_(Pattern("request", int))
    run_op(sim, op, until=5.0)
    net.visibility.set_visible("client", "server", False)
    how = inst["server"].out_back(op.source, Tuple("response", 1),
                                  policy=UnavailablePolicy.LOCAL)
    assert how == "local"
    assert inst["server"].space.count(Pattern("response", int)) == 1


def test_out_back_abandon_raises(sim):
    net, inst = build(sim, ["a", "b"], clique=False)
    with pytest.raises(OperationAbandonedError):
        inst["a"].out_back("b", Tuple("response"),
                           policy=UnavailablePolicy.ABANDON)


def test_out_back_routes_via_relay(sim):
    # Chain topology: server - relay - client.
    net, inst = build(sim, ["client", "relay", "server"], clique=False)
    net.visibility.set_visible("server", "relay")
    net.visibility.set_visible("relay", "client")
    how = inst["server"].out_back("client", Tuple("response", 1),
                                  policy=UnavailablePolicy.ROUTE)
    assert how == "routed"
    sim.run(until=10.0)
    assert inst["client"].space.count(Pattern("response", int)) == 1
    assert inst["relay"].relays_forwarded == 1


def test_out_back_route_without_relay_falls_back_local(sim):
    net, inst = build(sim, ["a", "b"], clique=False)
    how = inst["a"].out_back("b", Tuple("response"),
                             policy=UnavailablePolicy.ROUTE)
    assert how == "local"


def test_relay_ttl_exhaustion_drops(sim):
    config = TiamatConfig(relay_ttl=0)
    net, inst = build(sim, ["a", "mid", "far"], config=config, clique=False)
    net.visibility.set_visible("a", "mid")
    # far is never reachable from mid either -> drop at mid.
    inst["a"].out_back("far", Tuple("r"), policy=UnavailablePolicy.ROUTE)
    sim.run(until=10.0)
    assert inst["mid"].relays_dropped == 1
    assert inst["far"].space.count(Pattern("r")) == 0


def test_social_router_prefers_high_degree_relay(sim):
    net = Network(sim)
    names = ["src", "hub", "leaf", "dst", "x1", "x2"]
    inst = {n: TiamatInstance(sim, net, n, router=SocialRouter()) for n in names}
    # hub is connected to many nodes including dst; leaf only to src.
    net.visibility.set_visible("src", "hub")
    net.visibility.set_visible("src", "leaf")
    net.visibility.set_visible("hub", "dst")
    net.visibility.set_visible("hub", "x1")
    net.visibility.set_visible("hub", "x2")
    how = inst["src"].out_back("dst", Tuple("r"), policy=UnavailablePolicy.ROUTE)
    assert how == "routed"
    sim.run(until=10.0)
    assert inst["dst"].space.count(Pattern("r")) == 1
    assert inst["hub"].relays_forwarded == 1
    assert inst["leaf"].relays_forwarded == 0


# ---------------------------------------------------------------------------
# eval (active tuples)
# ---------------------------------------------------------------------------
def test_eval_computes_then_deposits(sim):
    _, inst = build(sim, ["a"])
    task = inst["a"].eval(lambda x, y: Tuple("sum", x + y), 2, 3, compute_time=5.0)
    sim.run(until=4.0)
    # During computation the result is not yet available (active tuple).
    assert inst["a"].space.count(Pattern("sum", int)) == 0
    sim.run(until=6.0)
    assert task.result == Tuple("sum", 5)
    assert inst["a"].space.count(Pattern("sum", int)) == 1


def test_eval_result_findable_by_blocking_rd(sim):
    net, inst = build(sim, ["a", "b"])
    inst["a"].eval(lambda: Tuple("answer", 42), compute_time=2.0)
    op = inst["b"].rd(Pattern("answer", int))
    assert run_op(sim, op, until=10.0) == Tuple("answer", 42)


def test_eval_halted_when_lease_expires(sim):
    """2.5: when the eval lease expires the computation may be halted."""
    _, inst = build(sim, ["a"])
    task = inst["a"].eval(lambda: Tuple("slow"), compute_time=100.0,
                          requester=SimpleLeaseRequester(LeaseTerms(duration=5.0)))
    sim.run(until=10.0)
    assert task.halted
    assert task.event.value is None
    assert inst["a"].space.count(Pattern("slow")) == 0


def test_eval_result_expires_with_lease(sim):
    _, inst = build(sim, ["a"])
    inst["a"].eval(lambda: Tuple("mortal"), compute_time=1.0,
                   requester=SimpleLeaseRequester(LeaseTerms(duration=10.0)))
    sim.run(until=5.0)
    assert inst["a"].space.count(Pattern("mortal")) == 1
    sim.run(until=11.0)
    assert inst["a"].space.count(Pattern("mortal")) == 0


def test_eval_bad_return_value_fails(sim):
    _, inst = build(sim, ["a"])
    task = inst["a"].eval(lambda: "not-a-tuple", compute_time=1.0)
    task.event.defuse()
    with pytest.raises(Exception):
        sim.run(until=5.0)
    assert task.event.triggered and not task.event.ok
