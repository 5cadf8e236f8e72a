"""Reliability sublayer, fault injectors, and exactly-once under chaos.

Three layers of coverage:

* unit tests for :class:`repro.core.reliability.ReliableChannel`
  (retransmit-until-ack, deadline bounding, dedup, epoch separation) and
  for the :mod:`repro.net.faults` injectors;
* scenario tests for :class:`repro.net.faults.CrashRestartInjector`
  (the §2.4 power-cycle story through :mod:`repro.tuples.storage`)
  and for :class:`repro.core.serving.QueryServer` cleanup;
* a Hypothesis property: a destructive ``in`` consumes each tuple
  **exactly once** under combined loss, duplication, and visibility
  churn, across seeds.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TiamatConfig, TiamatInstance, protocol
from repro.core import config as core_config
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import (
    CorruptPayload,
    DuplicateFrames,
    FaultInjector,
    FaultPlan,
    GilbertElliottLoss,
    Network,
    OneWayLink,
)
from repro.net.message import Message
from repro.net.stats import DROP_CORRUPT, DROP_FAULT
from repro.net.faults import CrashRestartInjector
from repro.sim import Simulator
from repro.tuples import Formal, Pattern, Tuple


def make_pair(loss_rate: float = 0.0, plan: FaultPlan | None = None,
              seed: int = 7, **config):
    """Two connected instances over one network."""
    sim = Simulator(seed=seed)
    net = Network(sim, loss_rate=loss_rate)
    if plan is not None:
        net.use_faults(plan)
    a = TiamatInstance(sim, net, "a", config=TiamatConfig(**config))
    b = TiamatInstance(sim, net, "b", config=TiamatConfig(**config))
    net.visibility.set_visible("a", "b")
    return sim, net, a, b


class DropFirst(FaultInjector):
    """Test helper: swallow the first ``count`` matching frames."""

    def __init__(self, count: int, **scope) -> None:
        super().__init__(**scope)
        self.count = count

    def apply(self, verdict, msg, rng) -> None:
        if self.matched <= self.count:
            verdict.drop()


# ======================================================================
# ReliableChannel
# ======================================================================
class TestReliableChannel:
    def test_retransmits_until_acked(self, monkeypatch):
        monkeypatch.setattr(core_config, "PEER_TIMEOUT", 5.0)
        plan = FaultPlan([DropFirst(3, kinds={protocol.REMOTE_OUT})])
        sim, net, a, b = make_pair(plan=plan)
        done = a.out_at(b.handle(), Tuple("x", 1))
        sim.run(until=10.0)
        assert done.value is True
        assert b.space.count(Pattern("x", 1)) == 1
        # the three swallowed attempts were made up by retransmissions
        assert a.reliability.retransmits >= 3
        assert a.reliability.acked >= 1
        assert a.reliability.pending_count == 0

    def test_no_retries_after_deadline(self):
        """A dead peer never pins retransmission state past the deadline."""
        plan = FaultPlan([OneWayLink("a", "b")])
        sim, net, a, b = make_pair(plan=plan)
        a.reliability.send("b", {"kind": protocol.REMOTE_OUT_ACK,
                                 "rid": 1, "ok": True},
                           deadline=sim.now + 0.5)
        snapshots = {}

        def snap(label):
            snapshots[label] = plan.frames_seen

        sim.schedule(0.6, snap, "at_deadline")
        sim.run(until=30.0)
        snap("end")
        assert a.reliability.expired == 1
        assert a.reliability.pending_count == 0
        # every transmission happened before the deadline; none after
        assert snapshots["end"] == snapshots["at_deadline"]

    def test_blocking_query_retries_stop_at_lease_expiry(self):
        """Leases stay the only effort budget: a blocking `in` against a
        black-holed peer retransmits its QUERY only within its lease."""
        plan = FaultPlan([OneWayLink("a", "b")])
        sim, net, a, b = make_pair(plan=plan)
        op = a.in_(Pattern("x", Formal(int)),
                   requester=SimpleLeaseRequester(LeaseTerms(1.0, 8)))
        seen_at_expiry = {}
        sim.schedule(1.1, lambda: seen_at_expiry.setdefault(
            "frames", plan.frames_seen))
        sim.run(until=30.0)
        assert op.done and op.result is None
        assert a.reliability.pending_count == 0
        assert plan.frames_seen == seen_at_expiry["frames"]

    def test_dedup_drops_duplicated_frames(self):
        """Network duplication must not double-deposit a REMOTE_OUT."""
        plan = FaultPlan([DuplicateFrames(1.0, copies=3,
                                          kinds={protocol.REMOTE_OUT})])
        sim, net, a, b = make_pair(plan=plan)
        done = a.out_at(b.handle(), Tuple("x", 1))
        sim.run(until=5.0)
        assert done.value is True
        assert b.space.count(Pattern("x", 1)) == 1
        assert b.reliability.duplicates_dropped == 2

    def test_epoch_separates_incarnations(self):
        """A restarted instance restarts its sequence numbers; the fresh
        epoch keeps peers from dedup-swallowing the new frames."""
        sim = Simulator(seed=7)
        net = Network(sim)
        b = TiamatInstance(sim, net, "b")
        a1 = TiamatInstance(sim, net, "a")
        net.visibility.set_visible("a", "b")
        a1.out_at(b.handle(), Tuple("x", 1))
        sim.run(until=2.0)
        a1.shutdown()
        a2 = TiamatInstance(sim, net, "a")  # same name, new incarnation
        net.visibility.set_visible("a", "b")
        assert a2.reliability.epoch != a1.reliability.epoch
        a2.out_at(b.handle(), Tuple("x", 2))  # rseq restarts at 1
        sim.run(until=4.0)
        assert b.space.count(Pattern("x", Formal(int))) == 2
        assert b.reliability.duplicates_dropped == 0


# ======================================================================
# Fault injectors
# ======================================================================
def _frame(sim, src="a", dst="b", kind="query"):
    return Message(src=src, dst=dst, payload={"kind": kind}, sent_at=sim.now)


class TestFaultInjectors:
    def test_gilbert_elliott_losses_come_in_bursts(self):
        sim = Simulator(seed=11)
        net = Network(sim)
        ge = GilbertElliottLoss(p_gb=0.1, p_bg=0.4)
        plan = FaultPlan([ge])
        net.use_faults(plan)
        outcomes = [plan.judge(_frame(sim)).dropped for _ in range(2000)]
        losses = sum(outcomes)
        assert 0 < losses < 2000
        assert ge.bursts > 0
        # burstiness: consecutive-loss pairs far exceed the i.i.d.
        # expectation for the same marginal loss rate
        pairs = sum(1 for x, y in zip(outcomes, outcomes[1:]) if x and y)
        rate = losses / len(outcomes)
        assert pairs > 1.5 * rate * rate * len(outcomes)

    def test_corruption_is_caught_by_checksum(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        received = []
        net.attach("a", received.append)
        net.attach("b", received.append)
        net.visibility.set_visible("a", "b")
        net.use_faults(FaultPlan([CorruptPayload(1.0)]))
        net.unicast("a", "b", {"kind": "query"})
        sim.run(until=1.0)
        assert received == []           # dropped at delivery, not handled
        assert net.stats.drops_by_reason[DROP_CORRUPT] == 1
        assert net.stats.node("b").received == 0
        assert net.stats.node("a").drops[DROP_CORRUPT] == 1

    def test_one_way_link_is_asymmetric(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        got = {"a": [], "b": []}
        net.attach("a", got["a"].append)
        net.attach("b", got["b"].append)
        net.visibility.set_visible("a", "b")
        net.use_faults(FaultPlan([OneWayLink("a", "b")]))
        net.unicast("a", "b", {"kind": "query"})
        net.unicast("b", "a", {"kind": "query"})
        sim.run(until=1.0)
        assert got["b"] == []
        assert len(got["a"]) == 1
        assert net.stats.drops_by_reason[DROP_FAULT] == 1

    def test_scoping_limits_an_injector_to_its_link(self):
        sim = Simulator(seed=3)
        inj = DropFirst(10**9, link=("a", "b"))
        assert inj.matches(_frame(sim, "a", "b"))
        assert inj.matches(_frame(sim, "b", "a"))
        assert not inj.matches(_frame(sim, "a", "c"))
        kinds_inj = DropFirst(10**9, kinds={protocol.QUERY})
        assert kinds_inj.matches(_frame(sim, kind=protocol.QUERY))
        assert not kinds_inj.matches(_frame(sim, kind=protocol.CANCEL))


# ======================================================================
# Crash + restart through persistence (§2.4 power cycle, end to end)
# ======================================================================
class TestCrashRestart:
    def _build(self, seed=21):
        sim = Simulator(seed=seed)
        net = Network(sim)
        registry = {}

        def factory(name):
            inst = TiamatInstance(sim, net, name)
            for peer in registry:
                net.visibility.set_visible(name, peer)
            return inst

        for name in ("n", "peer"):
            registry[name] = factory(name)
        injector = CrashRestartInjector(sim, registry, factory)
        return sim, net, registry, injector

    def test_power_cycle_respects_lease_deadlines(self):
        sim, net, registry, injector = self._build()
        n = registry["n"]
        n.out(Tuple("short", 1),
              requester=SimpleLeaseRequester(LeaseTerms(duration=5.0)))
        n.out(Tuple("long", 1),
              requester=SimpleLeaseRequester(LeaseTerms(duration=100.0)))
        injector.power_cycle("n", crash_time=1.0, restart_time=10.0)
        sim.run(until=15.0)
        revived = registry["n"]
        assert revived is not n
        # the 5 s lease died during the 9 s outage; the 100 s one survived
        assert revived.space.count(Pattern("short", 1)) == 0
        assert revived.space.count(Pattern("long", 1)) == 1
        assert injector.tuples_reclaimed == 1
        assert injector.tuples_restored == 1
        # the survivor's deadline was re-anchored, not forgotten
        sim.run(until=120.0)
        assert registry["n"].space.count(Pattern("long", 1)) == 0

    def test_inflight_ops_against_dead_node_terminate(self):
        sim, net, registry, injector = self._build()
        peer = registry["peer"]
        op = peer.in_(Pattern("never", Formal(int)),
                      requester=SimpleLeaseRequester(LeaseTerms(3.0, 8)))
        injector.crash_at("n", 1.0)
        sim.run(until=10.0)
        assert op.done and op.result is None
        assert peer.reliability.pending_count == 0  # nothing wedged

    def test_restarted_instance_serves_restored_tuples(self):
        sim, net, registry, injector = self._build()
        registry["n"].out(Tuple("doc", 7),
                          requester=SimpleLeaseRequester(
                              LeaseTerms(duration=500.0)))
        injector.power_cycle("n", crash_time=1.0, restart_time=2.0)
        results = []

        def consumer():
            yield sim.timeout(3.0)  # after the restart
            op = registry["peer"].in_(
                Pattern("doc", Formal(int)),
                requester=SimpleLeaseRequester(LeaseTerms(10.0, 8)))
            results.append((yield op.event))

        sim.spawn(consumer())
        sim.run(until=30.0)
        assert results == [Tuple("doc", 7)]


# ======================================================================
# QueryServer cleanup audit
# ======================================================================
class TestQueryServerCleanup:
    def _serving_pair(self, **config):
        sim, net, a, b = make_pair(seed=13, **config)
        return sim, net, a, b

    def test_cancel_releases_everything(self):
        sim, net, a, b = self._serving_pair()
        op = a.in_(Pattern("x", Formal(int)),
                   requester=SimpleLeaseRequester(LeaseTerms(30.0, 8)))
        sim.run(until=2.0)
        assert b.server.active_servings == 1
        threads_before = b.leases.threads.in_use
        assert threads_before >= 1
        op.cancel()
        sim.run(until=4.0)
        assert b.server.active_servings == 0
        assert b.leases.threads.in_use == 0

    def test_origin_lease_expiry_releases_serving(self):
        sim, net, a, b = self._serving_pair()
        a.in_(Pattern("x", Formal(int)),
              requester=SimpleLeaseRequester(LeaseTerms(2.0, 8)))
        sim.run(until=1.0)
        assert b.server.active_servings == 1
        # origin lease ends at t=2; the CANCEL it sends closes the serving
        sim.run(until=4.0)
        assert b.server.active_servings == 0
        assert b.leases.threads.in_use == 0

    def test_holder_shutdown_puts_held_tuple_back(self):
        sim, net, a, b = self._serving_pair()
        b.out(Tuple("x", 1),
              requester=SimpleLeaseRequester(LeaseTerms(duration=500.0)))
        # Black-hole b's offers (QUERY_REPLY) so the serving sits with a
        # held entry and a live claim timer (discovery still works)...
        net.use_faults(FaultPlan([OneWayLink("b", "a",
                                             kinds={protocol.QUERY_REPLY})]))
        a.in_(Pattern("x", Formal(int)),
              requester=SimpleLeaseRequester(LeaseTerms(30.0, 8)))
        sim.run(until=1.0)
        assert b.server.active_servings == 1
        # ...then the holder dies: everything is released, nothing leaks.
        b.shutdown()
        assert b.server.active_servings == 0
        assert b.leases.threads.in_use == 0
        assert b.space.count(Pattern("x", 1)) == 1  # held entry put back
        sim.run(until=40.0)  # and nothing explodes afterwards

    def test_claim_timeout_puts_tuple_back(self):
        sim, net, a, b = self._serving_pair(claim_timeout=1.0,
                                            reliability_enabled=False)
        b.out(Tuple("x", 1),
              requester=SimpleLeaseRequester(LeaseTerms(duration=500.0)))
        # a's CLAIM_ACCEPT frames never arrive (and reliability is off,
        # reproducing the prototype): the hold must self-release.
        net.use_faults(FaultPlan([OneWayLink("a", "b",
                                             kinds={protocol.CLAIM_ACCEPT})]))
        op = a.in_(Pattern("x", Formal(int)),
                   requester=SimpleLeaseRequester(LeaseTerms(5.0, 8)))
        sim.run(until=10.0)
        assert op.done and op.result == Tuple("x", 1)  # origin believes it won
        assert b.server.offers_put_back == 1           # holder disagrees
        assert b.space.count(Pattern("x", 1)) == 1     # the ghost, measurable
        assert b.server.active_servings == 0


# ======================================================================
# The property: exactly-once under loss + duplication + churn
# ======================================================================
ITEMS = 6


# The exactly-once guarantee is parametric: the claim window must cover
# enough retransmission attempts that a CLAIM_ACCEPT reaching the holder
# before put-back is (near-)certain.  A dense schedule (~12 attempts per
# claim window) puts the residual Two-Generals probability at ~0.25^12
# even at the worst loss rate tested.
@mock.patch.multiple(core_config, RETRY_INITIAL=0.05, RETRY_MAX_INTERVAL=0.2)
def run_chaos(seed: int, loss: float, dup: float, churn: bool) -> None:
    sim = Simulator(seed=seed)
    net = Network(sim, loss_rate=loss)
    injectors = []
    if dup > 0:
        injectors.append(DuplicateFrames(dup))
    if injectors:
        net.use_faults(FaultPlan(injectors))
    config = TiamatConfig(claim_timeout=2.5)
    server = TiamatInstance(sim, net, "server", config=config)
    client = TiamatInstance(sim, net, "client", config=config)
    net.visibility.set_visible("server", "client")
    for i in range(ITEMS):
        server.out(Tuple("item", i),
                   requester=SimpleLeaseRequester(LeaseTerms(duration=5000.0)))

    if churn:
        # deterministic visibility flapping while the ops run
        def flapper():
            up = True
            for _ in range(12):
                yield sim.timeout(0.9)
                up = not up
                net.visibility.set_visible("server", "client", up)
            net.visibility.set_visible("server", "client", True)
        sim.spawn(flapper())

    consumed = []

    def consumer():
        while "server" not in client.comms.plan():
            yield client.comms.discover()
        for i in range(ITEMS):
            op = client.in_(Pattern("item", i),
                            requester=SimpleLeaseRequester(
                                LeaseTerms(4.0, 8)))
            result = yield op.event
            if result is not None:
                consumed.append(i)
        yield sim.timeout(5.0)  # let claim windows + retransmits settle

    process = sim.spawn(consumer())
    sim.run(until=300.0)
    assert process.triggered, "scenario never settled"
    assert server.server.active_servings == 0

    for i in range(ITEMS):
        took = 1 if i in consumed else 0
        resident = server.space.count(Pattern("item", i))
        assert took + resident == 1, (
            f"item {i}: consumed {took} times, resident {resident} "
            f"(seed={seed} loss={loss} dup={dup} churn={churn})")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       loss=st.sampled_from([0.0, 0.1, 0.25]),
       dup=st.sampled_from([0.0, 0.25]),
       churn=st.booleans())
def test_destructive_in_is_exactly_once_under_chaos(seed, loss, dup, churn):
    run_chaos(seed, loss, dup, churn)
