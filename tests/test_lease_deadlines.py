"""Leases are deadlines: one heap and one kernel timer per owner.

A :class:`~repro.leasing.LeaseManager` and a
:class:`~repro.tuples.LocalTupleSpace` each keep their deadlines in a
:class:`~repro.sim.kernel.Deadlines` heap behind a single kernel timer.
The model test holds the manager to a reference that arms one kernel timer
per lease (the design it replaced); the structural tests pin what the
kernel is asked for: live timers per resident, pushes per local hit and
per leased ``out``, and the heap's size under churn.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.leasing import (
    GenerousPolicy,
    LeaseManager,
    LeaseState,
    LeaseTerms,
    OperationKind,
    SimpleLeaseRequester,
)
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

FOREVER = 1e9


class TimerPerLease:
    """The reference: every lease arms its own timer on its own kernel."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.timers: dict[int, object] = {}
        self.committed: dict[int, int] = {}
        self.expired: list[tuple[float, int]] = []

    def grant(self, key: int, duration: float, size: int) -> None:
        self.committed[key] = size
        self.timers[key] = self.sim.schedule(duration, self._expire, key)

    def end(self, key: int) -> None:
        self.timers.pop(key).cancel()
        del self.committed[key]

    def _expire(self, key: int) -> None:
        del self.timers[key]
        del self.committed[key]
        self.expired.append((self.sim.now, key))


class DeadlinesMatchTimers(RuleBasedStateMachine):
    """Grant, release, revoke and advance, against :class:`TimerPerLease`.

    Durations and steps come from a small set, so deadlines collide and
    equal-deadline leases must end in grant order.  ``arm=False`` grants
    are armed at once or released unarmed, as an operation's lease is.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.manager = LeaseManager(self.sim)
        self.ref = TimerPerLease()
        self.leases: dict[int, object] = {}    # grant index -> lease
        self.expired: list[tuple[float, int]] = []
        self.grants = 0

    def _on_end(self, key: int):
        def ended(lease, state) -> None:
            if state is LeaseState.EXPIRED:
                self.expired.append((self.sim.now, key))
                del self.leases[key]
        return ended

    @rule(duration=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
          size=st.integers(0, 300), deposit=st.booleans(),
          armed=st.sampled_from(["now", "after", "never"]))
    def grant(self, duration, size, deposit, armed):
        key, self.grants = self.grants, self.grants + 1
        kind = OperationKind.OUT if deposit else OperationKind.RD
        size = size if deposit else 0
        lease = self.manager.negotiate(
            SimpleLeaseRequester(LeaseTerms(duration=duration)), kind,
            storage_needed=size, arm=armed == "now")
        if armed == "never":       # a local hit: released inside the call
            lease.release()
            return
        if armed == "after":
            self.manager.arm(lease)
        lease.on_end(self._on_end(key))
        self.leases[key] = lease
        self.ref.grant(key, duration, size)

    @rule(data=st.data(), revoke=st.booleans())
    def end_early(self, data, revoke):
        if not self.leases:
            return
        key = data.draw(st.sampled_from(sorted(self.leases)))
        lease = self.leases.pop(key)
        if revoke:
            self.manager.revoke(lease)
        else:
            lease.release()
        self.ref.end(key)

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
    def advance(self, dt):
        until = self.sim.now + dt
        self.sim.run(until=until)
        self.ref.sim.run(until=until)

    @invariant()
    def agrees_with_one_timer_per_lease(self):
        assert self.expired == self.ref.expired
        assert self.manager.expirations == len(self.ref.expired)
        assert self.manager.storage_used == sum(self.ref.committed.values())
        assert sorted(lease.lease_id for lease in self.leases.values()) \
            == sorted(self.manager.active)
        assert self.sim.pending == (1 if self.ref.sim.pending else 0)


TestDeadlinesMatchTimers = DeadlinesMatchTimers.TestCase
TestDeadlinesMatchTimers.settings = settings(max_examples=60,
                                             stateful_step_count=60,
                                             deadline=None)


# ----------------------------------------------------------------------
# What the kernel is asked for
# ----------------------------------------------------------------------
def _node(residents: int):
    rt = repro.connect("sim", seed=3)
    node = rt.node("n", policy=GenerousPolicy(max_duration=2 * FOREVER))
    for i in range(residents):
        node.out(Tuple("task", i, "%08x" % i), FOREVER)
    return rt.sim, node


def _pushes_per_call(sim, call, n: int) -> float:
    """Kernel pushes per ``call(i)``, read off the advance of ``sim._seq``."""
    before = next(sim._seq)
    for i in range(n):
        call(i)
    return (next(sim._seq) - before - 1) / n


def test_leased_residents_hold_one_timer_per_owner():
    sim, node = _node(4000)
    assert len(node.space.snapshot()) == 4001    # and the space-info tuple
    assert sim.pending <= 2                      # one per timer-per-lease: 8000


def test_a_local_hit_pushes_only_its_event_flush():
    sim, node = _node(400)
    per_hit = _pushes_per_call(
        sim, lambda i: node.rdp(Pattern("task", i, str)), 200)
    assert per_hit <= 1.25                       # timer per lease: 2.0


def test_a_leased_out_pushes_nothing():
    sim, node = _node(400)
    per_out = _pushes_per_call(
        sim, lambda i: node.out(Tuple("extra", i), FOREVER), 200)
    assert per_out <= 0.1                        # timer per lease: 2.0


def test_churn_keeps_each_deadline_heap_within_twice_its_live_records():
    sim, node = _node(500)
    inst = node.instance
    for i in range(10_000):
        assert node.inp(Pattern("task", int, str)) is not None
        node.out(Tuple("task", 500 + i, "x"), FOREVER)
    live = 500                                   # leased residents, steady
    assert len(inst.leases.active) == live
    for heap in (inst.leases._deadlines, inst.space._deadlines):
        assert len(heap) <= 2 * live + Simulator.COMPACT_FLOOR
