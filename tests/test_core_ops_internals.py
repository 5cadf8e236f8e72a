"""Tests for origin-side operation internals: budgets, refunds, cancels."""

import pytest

from repro.core import TiamatConfig
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=23)


def test_failed_send_refunds_remote_budget(sim):
    """Contacting an invisible peer is not a 'remote instance contacted'."""
    net, inst = build(sim, ["origin", "up", "down"], clique=False)
    net.visibility.set_visible("origin", "up")
    # Seed the known list with a peer that then disappears entirely.
    inst["origin"].comms.note_alive("down")
    inst["origin"].comms.note_alive("up")
    inst["up"].out(Tuple("x"))
    op = inst["origin"].rdp(
        Pattern("x"),
        requester=SimpleLeaseRequester(LeaseTerms(duration=10.0, max_remotes=1)))
    result = run_op(sim, op, until=15.0)
    # Budget of 1: the dead peer must not consume it.
    assert result == Tuple("x")
    assert op.contacted == ["up"]
    assert op.lease.remotes_used == 1


def test_dead_peer_removed_from_known_list(sim):
    net, inst = build(sim, ["origin", "dead"], clique=False)
    inst["origin"].comms.note_alive("dead")
    op = inst["origin"].rdp(Pattern("x"))
    run_op(sim, op, until=10.0)
    assert "dead" not in inst["origin"].comms.plan()


def test_operation_cancel(sim):
    net, inst = build(sim, ["origin", "peer"])
    op = inst["origin"].in_(Pattern("never"))
    sim.run(until=1.0)
    op.cancel()
    assert op.done and op.result is None
    assert not op.lease.active
    sim.run(until=5.0)
    assert inst["peer"].server.active_servings == 0


def test_finalize_releases_lease_exactly_once(sim):
    net, inst = build(sim, ["a"])
    inst["a"].out(Tuple("x"))
    op = inst["a"].rdp(Pattern("x"))
    run_op(sim, op, until=5.0)
    from repro.leasing import LeaseState

    assert op.lease.state is LeaseState.RELEASED
    op.cancel()  # idempotent: already done
    assert op.lease.state is LeaseState.RELEASED


def test_probe_sequential_contact_stops_at_first_hit(sim):
    """Peers after the satisfying one in the list are never contacted."""
    names = ["origin", "p0", "p1", "p2", "p3"]
    net, inst = build(sim, names)
    comms = inst["origin"].comms
    for p in ("p0", "p1", "p2", "p3"):
        comms.note_alive(p)
    inst["p1"].out(Tuple("goal"))
    op = inst["origin"].rdp(Pattern("goal"))
    assert run_op(sim, op, until=10.0) == Tuple("goal")
    assert op.contacted == ["p0", "p1"]


def test_blocking_op_contacts_all_known_peers(sim):
    names = ["origin", "p0", "p1", "p2"]
    net, inst = build(sim, names)
    comms = inst["origin"].comms
    for p in ("p0", "p1", "p2"):
        comms.note_alive(p)
    op = inst["origin"].in_(Pattern("eventually"),
                            requester=SimpleLeaseRequester(LeaseTerms(5.0, 8)))
    sim.run(until=1.0)
    assert sorted(op.contacted) == ["p0", "p1", "p2"]
    sim.run(until=10.0)


def test_blocking_op_respects_remote_budget(sim):
    names = ["origin"] + [f"p{i}" for i in range(6)]
    net, inst = build(sim, names)
    for i in range(6):
        inst["origin"].comms.note_alive(f"p{i}")
    op = inst["origin"].in_(Pattern("never"),
                            requester=SimpleLeaseRequester(LeaseTerms(3.0, 2)))
    sim.run(until=1.0)
    assert len(op.contacted) == 2
    sim.run(until=10.0)


def test_continuous_mode_budget_still_enforced(sim):
    config = TiamatConfig(propagate_mode="continuous")
    net, inst = build(sim, ["origin", "a", "b", "c"], config=config,
                      clique=False)
    op = inst["origin"].in_(Pattern("never"),
                            requester=SimpleLeaseRequester(LeaseTerms(20.0, 1)))
    sim.run(until=1.0)
    for peer, t in (("a", 2.0), ("b", 3.0), ("c", 4.0)):
        sim.schedule_at(t, net.visibility.set_visible, "origin", peer, True)
    sim.run(until=10.0)
    assert len(op.contacted) == 1  # budget of one remote contact
    sim.run(until=30.0)


def test_two_competing_ins_from_same_node(sim):
    net, inst = build(sim, ["origin", "holder"])
    inst["holder"].out(Tuple("single"))
    op1 = inst["origin"].in_(Pattern("single"),
                             requester=SimpleLeaseRequester(LeaseTerms(5.0, 4)))
    op2 = inst["origin"].in_(Pattern("single"),
                             requester=SimpleLeaseRequester(LeaseTerms(5.0, 4)))
    sim.run(until=20.0)
    winners = [op for op in (op1, op2) if op.result is not None]
    assert len(winners) == 1
    assert inst["holder"].space.count(Pattern("single")) == 0


def test_out_lease_revocation_reclaims_tuple(sim):
    net, inst = build(sim, ["a"])
    entry = inst["a"].out(Tuple("revocable"))
    lease = entry.meta["lease"]
    assert inst["a"].space.count(Pattern("revocable")) == 1
    inst["a"].leases.revoke(lease, reason="pressure")
    assert inst["a"].space.count(Pattern("revocable")) == 0


def test_consumed_tuple_releases_out_lease_early(sim):
    net, inst = build(sim, ["a"])
    entry = inst["a"].out(Tuple("quick"))
    lease = entry.meta["lease"]
    op = inst["a"].inp(Pattern("quick"))
    run_op(sim, op, until=5.0)
    from repro.leasing import LeaseState

    assert lease.state is LeaseState.RELEASED
    assert inst["a"].leases.storage_used == 0


def test_deposit_taken_on_arrival_releases_its_out_lease(sim):
    """A parked `in` takes the deposit before it is resident: the out
    lease has nothing to fund and must not hold its bytes until expiry."""
    net, inst = build(sim, ["a"])
    op = inst["a"].in_(Pattern("job", int))
    sim.run(until=1.0)
    entry = inst["a"].out(Tuple("job", 1))
    assert entry.removed
    sim.run(until=2.0)
    from repro.leasing import LeaseState

    assert op.result == Tuple("job", 1)
    assert entry.meta["lease"].state is LeaseState.RELEASED
    assert inst["a"].leases.active_count == 0
    assert inst["a"].leases.storage_used == 0


def test_eval_result_taken_on_arrival_releases_its_eval_lease(sim):
    """An eval's result that a parked `in` takes as it is deposited never
    rests in the space: the eval lease funds nothing and must end."""
    net, inst = build(sim, ["a"])
    op = inst["a"].in_(Pattern("r", int))
    sim.run(until=1.0)
    task = inst["a"].eval(lambda: Tuple("r", 1))
    sim.run(until=2.0)
    from repro.leasing import LeaseState

    assert op.result == Tuple("r", 1)
    assert task.lease.state is LeaseState.RELEASED
    assert inst["a"].leases.active_count == 0


def test_ops_registry_is_purged(sim):
    net, inst = build(sim, ["a"])
    inst["a"].out(Tuple("x"))
    op = inst["a"].rdp(Pattern("x"))
    run_op(sim, op, until=5.0)
    sim.run(until=60.0)
    assert op.op_id not in inst["a"]._ops


def test_stats_classification(sim):
    net, inst = build(sim, ["a", "b"])
    inst["a"].out(Tuple("local"))
    inst["b"].out(Tuple("remote"))
    run_op(sim, inst["a"].rdp(Pattern("local")), until=5.0)
    run_op(sim, inst["a"].rdp(Pattern("remote")), until=10.0)
    op = inst["a"].rdp(Pattern("missing"))
    run_op(sim, op, until=20.0)
    assert inst["a"].ops_satisfied_local == 1
    assert inst["a"].ops_satisfied_remote == 1
    assert inst["a"].ops_unsatisfied == 1
    assert inst["a"].ops_started == 3


def test_shutdown_detaches_instance(sim):
    net, inst = build(sim, ["a", "b"])
    inst["b"].out(Tuple("x"))
    inst["b"].shutdown()
    op = inst["a"].rdp(Pattern("x"))
    assert run_op(sim, op, until=10.0) is None
