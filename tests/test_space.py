"""Unit tests for the local tuple space (blocking ops, expiry, 2-phase)."""

import pytest

from repro.errors import TupleError
from repro.sim import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple


@pytest.fixture()
def sim():
    return Simulator(seed=11)


@pytest.fixture()
def space(sim):
    return LocalTupleSpace(sim, name="test")


def test_out_then_rdp_copies(space):
    space.out(Tuple("a", 1))
    assert space.rdp(Pattern("a", int)) == Tuple("a", 1)
    assert space.count() == 1  # rdp does not remove


def test_out_then_inp_removes(space):
    space.out(Tuple("a", 1))
    assert space.inp(Pattern("a", int)) == Tuple("a", 1)
    assert space.count() == 0
    assert space.inp(Pattern("a", int)) is None


def test_rdp_inp_return_none_when_empty(space):
    assert space.rdp(Pattern("a")) is None
    assert space.inp(Pattern("a")) is None


def test_blocking_rd_satisfied_immediately_if_present(space):
    space.out(Tuple("a", 1))
    waiter = space.rd(Pattern("a", int))
    assert waiter.satisfied and waiter.event.value == Tuple("a", 1)
    assert space.count() == 1


def test_blocking_in_satisfied_immediately_if_present(space):
    space.out(Tuple("a", 1))
    waiter = space.in_(Pattern("a", int))
    assert waiter.satisfied
    assert space.count() == 0


def test_blocking_rd_waits_for_future_out(sim, space):
    waiter = space.rd(Pattern("later", int))
    assert not waiter.satisfied
    sim.schedule(5.0, space.out, Tuple("later", 9))
    sim.run()
    assert waiter.satisfied and waiter.event.value == Tuple("later", 9)
    assert space.count() == 1  # rd left it in place


def test_blocking_in_consumes_future_out(sim, space):
    waiter = space.in_(Pattern("later", int))
    sim.schedule(5.0, space.out, Tuple("later", 9))
    sim.run()
    assert waiter.satisfied
    assert space.count() == 0


def test_one_tuple_satisfies_many_rd_but_one_in(sim, space):
    rd1 = space.rd(Pattern("x"))
    rd2 = space.rd(Pattern("x"))
    in1 = space.in_(Pattern("x"))
    in2 = space.in_(Pattern("x"))
    space.out(Tuple("x"))
    sim.run()
    assert rd1.satisfied and rd2.satisfied
    assert in1.satisfied and not in2.satisfied  # FIFO: first `in` wins
    assert space.count() == 0


def test_waiter_fifo_order(sim, space):
    first = space.in_(Pattern("x"))
    second = space.in_(Pattern("x"))
    space.out(Tuple("x"))
    assert first.satisfied and not second.satisfied
    space.out(Tuple("x"))
    assert second.satisfied


def test_waiter_cancel(sim, space):
    waiter = space.in_(Pattern("x"))
    waiter.cancel()
    space.out(Tuple("x"))
    sim.run()
    assert not waiter.satisfied
    assert space.count() == 1  # nothing consumed it
    assert space.waiter_count == 0


def test_cancel_after_satisfied_is_noop(space):
    space.out(Tuple("x"))
    waiter = space.rd(Pattern("x"))
    waiter.cancel()
    assert waiter.satisfied


def test_expiry_removes_tuple(sim, space):
    space.out(Tuple("mortal"), expires_at=10.0)
    sim.run(until=9.0)
    assert space.count() == 1
    sim.run(until=11.0)
    assert space.count() == 0
    assert space.expirations == 1


def test_no_expiry_without_deadline(sim, space):
    space.out(Tuple("immortal"))
    sim.run(until=1000.0)
    assert space.count() == 1


def test_consumed_before_expiry_no_double_removal(sim, space):
    space.out(Tuple("x"), expires_at=10.0)
    assert space.inp(Pattern("x")) is not None
    sim.run(until=20.0)
    assert space.expirations == 0


def test_hold_match_hides_and_confirm_removes(sim, space):
    space.out(Tuple("x", 1))
    entry = space.hold_match(Pattern("x", int))
    assert entry is not None
    assert space.rdp(Pattern("x", int)) is None  # hidden while held
    space.confirm(entry.entry_id)
    assert space.count() == 0


def test_release_restores_and_satisfies_waiters(sim, space):
    space.out(Tuple("x", 1))
    entry = space.hold_match(Pattern("x", int))
    waiter = space.in_(Pattern("x", int))
    assert not waiter.satisfied  # held tuple invisible
    space.release(entry.entry_id)
    assert waiter.satisfied
    assert space.count() == 0  # the waiter consumed it on release


def test_release_after_expiry_reclaims(sim, space):
    space.out(Tuple("x"), expires_at=5.0)
    entry = space.hold_match(Pattern("x"))
    sim.run(until=10.0)
    assert space.count() == 0 or space.store.get(entry.entry_id) is not None
    result = space.release(entry.entry_id)
    assert result is None  # reclaimed, not restored
    assert space.rdp(Pattern("x")) is None
    assert space.expirations == 1


def test_release_unknown_entry_raises(space):
    with pytest.raises(TupleError):
        space.release(424242)


def test_expiry_while_held_defers_to_release(sim, space):
    space.out(Tuple("x"), expires_at=5.0)
    entry = space.hold_match(Pattern("x"))
    sim.run(until=6.0)
    # Entry still resident (held), but invisible.
    assert space.store.get(entry.entry_id) is not None
    assert space.rdp(Pattern("x")) is None


def test_nondeterministic_selection_uses_stream(sim):
    space = LocalTupleSpace(sim, name="nd")
    for i in range(10):
        space.out(Tuple("x", i))
    picks = {space.rdp(Pattern("x", int))[1] for _ in range(50)}
    assert len(picks) > 1


def test_listeners_fire(sim, space):
    outs, removed = [], []
    space.on_out(lambda e: outs.append(e.tuple))
    space.on_removed(lambda e, reason: removed.append((e.tuple, reason)))
    space.out(Tuple("a"))
    space.inp(Pattern("a"))
    space.out(Tuple("b"), expires_at=1.0)
    sim.run(until=2.0)
    assert outs == [Tuple("a"), Tuple("b")]
    assert (Tuple("a"), "consumed") in removed
    assert (Tuple("b"), "expired") in removed


def test_snapshot_and_count_pattern(space):
    space.out(Tuple("a", 1))
    space.out(Tuple("a", 2))
    space.out(Tuple("b", 1))
    assert space.snapshot() == [Tuple("a", 1), Tuple("a", 2), Tuple("b", 1)]
    assert space.snapshot(Pattern("a", int)) == [Tuple("a", 1), Tuple("a", 2)]
    assert space.snapshot(Pattern(str, 1)) == [Tuple("a", 1), Tuple("b", 1)]
    assert space.count(Pattern("a", int)) == 2
    assert space.count() == 3


def test_out_to_waiter_counts_as_deposit(sim, space):
    space.in_(Pattern("x"))
    space.out(Tuple("x"))
    assert space.deposits == 1
    assert space.consumed == 1


def test_cancelling_a_waiter_twice_is_a_noop(sim, space):
    waiter = space.in_(Pattern("x"))
    waiter.cancel()
    waiter.cancel()
    assert waiter.cancelled and space.waiter_count == 0
