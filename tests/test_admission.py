"""Admission control: pricing, fair share, refusal wire shape, backoff.

Covers the :mod:`repro.core.admission` decision logic in isolation, the
QueryServer integration (every refusal path emits the one structured
QUERY_REFUSED shape), origin-side surfacing (``op.refusals``) and
retry-after-honouring backoff, the stale-drop path, the threaded runtime's
serve gate, and determinism of the token-bucket refill.
"""

import pytest

from repro.core import TiamatConfig, TiamatInstance, protocol
from repro.core.admission import (
    ALL_REFUSAL_REASONS,
    REFUSE_DEADLINE,
    REFUSE_FAIR_SHARE,
    REFUSE_QUEUE_FULL,
    REFUSE_SERVING_LEASE,
    REFUSE_THREADS,
    AdmissionController,
    AdmissionDecision,
    FairShare,
    Refusal,
    parse_refusal,
)
from repro.leasing import DenyAllPolicy, LeaseTerms, SimpleLeaseRequester
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple, encode_pattern


@pytest.fixture()
def sim():
    return Simulator(seed=23)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Refusal parsing (the wire shape)
# ---------------------------------------------------------------------------
def test_parse_refusal_legacy_shape_defaults_to_serving_lease():
    refusal = parse_refusal("peer", {"kind": protocol.QUERY_REFUSED,
                                     "op_id": "x", "found": False})
    assert refusal == Refusal("peer", REFUSE_SERVING_LEASE, None)


def test_parse_refusal_structured_shape():
    refusal = parse_refusal("peer", {"reason": REFUSE_FAIR_SHARE,
                                     "retry_after": "0.25"})
    assert refusal.reason == REFUSE_FAIR_SHARE
    assert refusal.retry_after == 0.25
    assert "fair_share" in repr(refusal)


def test_refusal_reasons_vocabulary_is_closed():
    assert ALL_REFUSAL_REASONS == {
        REFUSE_SERVING_LEASE, REFUSE_THREADS, REFUSE_QUEUE_FULL,
        REFUSE_DEADLINE, REFUSE_FAIR_SHARE}


# ---------------------------------------------------------------------------
# FairShare: deterministic lazy-refill token buckets
# ---------------------------------------------------------------------------
def test_fair_share_spend_and_refill():
    clock = FakeClock()
    fair = FairShare(clock, capacity_rate=1.0, burst=0.5)
    # A fresh bucket starts at burst: a half-second of work is afforded.
    assert fair.spend("a", 0.5) is None
    # Empty now: the retry hint is the exact refill time at the full rate
    # (one active peer enjoys the whole capacity_rate).
    assert fair.spend("a", 0.3) == pytest.approx(0.3)
    clock.now = 0.3
    assert fair.spend("a", 0.3) is None  # refilled exactly enough


def test_fair_share_rate_splits_across_active_peers():
    clock = FakeClock()
    fair = FairShare(clock, capacity_rate=1.0, burst=0.1)
    fair.spend("a", 0.1)
    fair.spend("b", 0.1)
    assert fair.rate_per_peer() == pytest.approx(0.5)
    # An idle peer is pruned after the window; the survivor gets it back.
    clock.now = 10.0
    fair.spend("a", 0.0)
    assert fair.rate_per_peer() == pytest.approx(1.0)


def test_fair_share_refill_is_deterministic():
    def drive(fair, clock):
        out = []
        for step in range(40):
            clock.now = step * 0.05
            peer = "a" if step % 3 else "b"
            out.append(fair.spend(peer, 0.04))
        return out

    c1, c2 = FakeClock(), FakeClock()
    runs = [drive(FairShare(c, capacity_rate=1.0, burst=0.1), c)
            for c in (c1, c2)]
    assert runs[0] == runs[1]


def test_fair_share_debts_reports_pressure():
    clock = FakeClock()
    fair = FairShare(clock, capacity_rate=1.0, burst=0.5)
    fair.spend("hot", 0.5)
    fair.spend("cold", 0.1)
    debts = dict(fair.debts())
    assert debts["hot"] == pytest.approx(0.5)
    assert debts["cold"] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# AdmissionController decision edges
# ---------------------------------------------------------------------------
def _controller(**kwargs):
    defaults = dict(clock=FakeClock(), queue_bound=4, capacity_rate=2.0,
                    unit_cost=0.1)
    defaults.update(kwargs)
    return AdmissionController(**defaults)


def test_admit_records_price_and_counter():
    ctl = _controller(fairness=False)
    decision = ctl.consider("o", "rd", queue_depth=0, drain_rate=20.0,
                            utilisation=0.0, active_servings=0)
    assert decision.admitted
    assert decision.price == pytest.approx(0.1 * 2.0)  # unit_cost x weight
    assert ctl.admitted == 1 and ctl.shed_total == 0


def test_exhausted_worker_pool_sheds_before_any_lease():
    ctl = _controller()
    decision = ctl.consider("o", "rdp", queue_depth=0, drain_rate=0.0,
                            utilisation=1.0, active_servings=0)
    assert not decision.admitted
    assert decision.reason == REFUSE_THREADS
    assert decision.retry_after >= ctl.retry_floor


def test_full_queue_sheds():
    ctl = _controller(queue_bound=2)
    decision = ctl.consider("o", "rdp", queue_depth=2, drain_rate=10.0,
                            utilisation=0.0, active_servings=0)
    assert decision.reason == REFUSE_QUEUE_FULL


def test_inline_serving_uses_active_servings_as_depth():
    ctl = _controller(queue_bound=2)
    decision = ctl.consider("o", "rdp", queue_depth=0, drain_rate=0.0,
                            utilisation=0.0, active_servings=2)
    assert decision.reason == REFUSE_QUEUE_FULL


def test_unmeetable_deadline_sheds_with_retry_hint():
    ctl = _controller(fairness=False)
    # est delay = (3+1)/2 = 2.0s; rd weight 2.0 -> priced 4.0 >= 0.5
    decision = ctl.consider("o", "rd", queue_depth=3, drain_rate=2.0,
                            utilisation=0.0, active_servings=0, deadline=0.5)
    assert decision.reason == REFUSE_DEADLINE
    assert decision.retry_after == pytest.approx(4.0 - 0.5 + 0.5)


def test_fair_share_shed_carries_refill_hint():
    ctl = _controller(burst=0.1)
    first = ctl.consider("hog", "rdp", queue_depth=0, drain_rate=20.0,
                         utilisation=0.0, active_servings=0)
    assert first.admitted
    second = ctl.consider("hog", "rdp", queue_depth=0, drain_rate=20.0,
                          utilisation=0.0, active_servings=0)
    assert second.reason == REFUSE_FAIR_SHARE
    assert second.retry_after > 0
    assert ctl.shed_by_reason == {REFUSE_FAIR_SHARE: 1}


def test_delay_observer_sees_estimates():
    ctl = _controller(fairness=False)
    seen = []
    ctl.delay_observer = seen.append
    ctl.consider("o", "rdp", queue_depth=4, drain_rate=2.0,
                 utilisation=0.0, active_servings=0)
    assert seen == [pytest.approx(2.5)]


def test_admission_decision_constructors():
    assert AdmissionDecision.admit(1.5).price == 1.5
    shed = AdmissionDecision.shed(REFUSE_QUEUE_FULL, 0.2)
    assert (shed.admitted, shed.reason, shed.retry_after) == (
        False, REFUSE_QUEUE_FULL, 0.2)


# ---------------------------------------------------------------------------
# QueryServer integration: every refusal path emits the structured shape
# ---------------------------------------------------------------------------
def _query(net, origin, target, op_id, op="rdp", deadline=30.0,
           pattern=None):
    net.unicast(origin, target, {
        "kind": protocol.QUERY, "op_id": op_id, "op": op,
        "pattern": encode_pattern(pattern or Pattern("x")),
        "deadline": deadline,
    })


def _spy(net, name):
    inbox = []
    net.attach(name, lambda msg: inbox.append(msg.payload))
    return inbox


def _fixed_net(sim, latency=0.001):
    """A Network whose messages all take exactly ``latency`` seconds, so
    staggered sends arrive in send order (no jitter reordering)."""
    return Network(sim, latency_factory=lambda net: (
        lambda src, dst, size: latency))


def test_lease_refusal_sends_reason_on_the_wire(sim):
    net = Network(sim)
    TiamatInstance(sim, net, "server", policy=DenyAllPolicy())
    inbox = _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    _query(net, "origin", "server", "q1")
    sim.run(until=1.0)
    refusals = [p for p in inbox if p["kind"] == protocol.QUERY_REFUSED]
    assert len(refusals) == 1
    assert refusals[0]["reason"] == REFUSE_SERVING_LEASE
    # Admission off: no retry hint (legacy-compatible shape).
    assert "retry_after" not in refusals[0]


def test_thread_exhaustion_sends_reason_on_the_wire(sim):
    net = Network(sim)
    server = TiamatInstance(sim, net, "server", thread_capacity=1)
    inbox = _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    _query(net, "origin", "server", "q1", op="in", deadline=30.0)
    _query(net, "origin", "server", "q2", op="in", deadline=30.0)
    sim.run(until=1.0)
    refusals = [p for p in inbox if p["kind"] == protocol.QUERY_REFUSED]
    assert [p["reason"] for p in refusals] == [REFUSE_THREADS]
    assert server.server.active_servings == 1


def test_admission_shed_carries_retry_after(sim):
    config = TiamatConfig(admission_enabled=True, serve_cost=0.1,
                          serve_workers=1, admission_queue_bound=1)
    net = Network(sim)
    server = TiamatInstance(sim, net, "server", config=config)
    inbox = _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    # Three probes: one dispatched, one queued, one shed (queue full).
    for i in range(3):
        _query(net, "origin", "server", f"q{i}", deadline=60.0)
    sim.run(until=5.0)
    refusals = [p for p in inbox if p["kind"] == protocol.QUERY_REFUSED]
    shed = [p for p in refusals if p["reason"] == REFUSE_QUEUE_FULL]
    assert len(shed) == 1
    assert shed[0]["retry_after"] > 0
    assert server.server.sheds == 1
    assert server.server.admission.shed_by_reason == {REFUSE_QUEUE_FULL: 1}


def test_duplicate_query_while_shed_is_refused_again_not_tracked(sim):
    """A retransmitted QUERY for shed work must not create serving state."""
    config = TiamatConfig(admission_enabled=True, serve_cost=0.1,
                          serve_workers=1, admission_queue_bound=1,
                          admission_fairness=False)
    net = _fixed_net(sim)
    server = TiamatInstance(sim, net, "server", config=config)
    inbox = _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    for i in range(2):
        _query(net, "origin", "server", f"q{i}", deadline=60.0)
        sim.run(until=sim.now + 0.002)
    _query(net, "origin", "server", "shed-me", deadline=60.0)
    sim.run(until=0.05)
    # The origin (not having heard, or retransmitting) re-sends the shed op.
    _query(net, "origin", "server", "shed-me", deadline=60.0)
    sim.run(until=0.09)
    refusals = [p for p in inbox if p["kind"] == protocol.QUERY_REFUSED
                and p["op_id"] == "shed-me"]
    assert len(refusals) == 2          # refused both times, structurally
    assert server.server.duplicate_queries == 0  # shed work is not tracked
    assert "shed-me" not in server.server._servings
    assert "shed-me" not in server.server._queued_ids


def test_duplicate_query_while_queued_is_deduplicated(sim):
    config = TiamatConfig(admission_enabled=True, serve_cost=0.2,
                          serve_workers=1, admission_queue_bound=8,
                          admission_fairness=False)
    net = _fixed_net(sim)
    server = TiamatInstance(sim, net, "server", config=config)
    _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    _query(net, "origin", "server", "q0", deadline=60.0)
    sim.run(until=sim.now + 0.002)
    _query(net, "origin", "server", "q1", deadline=60.0)
    sim.run(until=0.05)
    assert "q1" in server.server._queued_ids
    _query(net, "origin", "server", "q1", deadline=60.0)  # retransmit
    sim.run(until=0.1)
    assert server.server.duplicate_queries == 1


def test_stale_queued_work_dropped_at_dispatch(sim):
    """Admitted work that expires while queued dies at the queue head."""
    # price_curve deliberately underestimates, so short-deadline work is
    # admitted into a queue it cannot survive.
    config = TiamatConfig(admission_enabled=True, serve_cost=0.2,
                          serve_workers=1, admission_queue_bound=16,
                          admission_price_curve=0.1,
                          admission_fairness=False)
    net = _fixed_net(sim)
    server = TiamatInstance(sim, net, "server", config=config)
    _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    for i in range(4):
        _query(net, "origin", "server", f"long{i}", deadline=60.0)
        sim.run(until=sim.now + 0.002)
    # est wait ~0.8s, priced at 0.08 < 0.5 -> admitted, but expires queued.
    _query(net, "origin", "server", "doomed", deadline=0.5)
    sim.run(until=3.0)
    assert server.server.stale_dropped == 1
    assert server.server.served == 4


def test_backoff_retry_honours_retry_after_and_succeeds(sim):
    """A shed blocking op retries after the hint and eventually wins."""
    config = TiamatConfig(admission_enabled=True, serve_cost=0.05,
                          serve_workers=1, admission_burst=0.05)
    net = Network(sim)
    server = TiamatInstance(sim, net, "server", config=config)
    hog = TiamatInstance(sim, net, "hog")
    net.visibility.set_visible("server", "hog")
    server.out(Tuple("item", 1), requester=SimpleLeaseRequester(
        LeaseTerms(duration=300.0)))
    ops = [hog.rd_at(server.handle(), Pattern("item", int),
                     requester=SimpleLeaseRequester(
                         LeaseTerms(duration=20.0, max_remotes=8)))
           for _ in range(3)]
    sim.run(until=20.0)
    # The burst affords one immediate serve; the rest were shed with a
    # retry_after hint, backed off, re-contacted, and finally served.
    assert all(op.satisfied for op in ops)
    assert server.server.sheds >= 1
    refused_ops = [op for op in ops if op.refusals]
    assert refused_ops, "expected at least one op to see a refusal"
    for op in refused_ops:
        assert all(r.reason in ALL_REFUSAL_REASONS for r in op.refusals)
        assert all(r.retry_after is not None for r in op.refusals)


def test_admission_metrics_families_registered(sim):
    config = TiamatConfig(admission_enabled=True, serve_cost=0.1,
                          serve_workers=1, admission_queue_bound=1)
    net = Network(sim)
    TiamatInstance(sim, net, "server", config=config)
    inbox = _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    for i in range(3):
        _query(net, "origin", "server", f"q{i}", deadline=60.0)
    sim.run(until=2.0)
    snap = sim.obs.registry.snapshot()
    assert snap["admission_decisions_total"]["samples"]
    assert snap["admission_shed_total"]["samples"]
    assert snap["serving_queue_depth"]["samples"]
    assert snap["admission_queue_wait_seconds"]["samples"]
    assert snap["admission_peer_debt"]["samples"]
    assert inbox  # sanity: traffic actually flowed


def test_default_off_registers_no_admission_families(sim):
    net = Network(sim)
    TiamatInstance(sim, net, "server")
    sim.run(until=0.1)
    snap = sim.obs.registry.snapshot()
    for family in ("admission_decisions_total", "admission_shed_total",
                   "serving_queue_depth", "admission_queue_wait_seconds",
                   "admission_peer_debt", "admission_stale_dropped_total"):
        assert family not in snap


def test_lease_policy_sees_queue_pressure(sim):
    """The serving queue's fullness reaches granting policies (5.1)."""
    from repro.leasing.policy import AdaptivePolicy

    config = TiamatConfig(admission_enabled=True, serve_cost=0.5,
                          serve_workers=1, admission_queue_bound=4,
                          admission_fairness=False)
    net = _fixed_net(sim)
    server = TiamatInstance(sim, net, "server", config=config,
                            policy=AdaptivePolicy(base_duration=100.0))
    _spy(net, "origin")
    net.visibility.set_visible("server", "origin")
    for i in range(4):
        _query(net, "origin", "server", f"q{i}", deadline=600.0)
        sim.run(until=sim.now + 0.002)
    sim.run(until=0.05)
    usage = server.leases.usage()
    assert usage.queue_pressure > 0.0
    # AdaptivePolicy scales its offer down under that pressure.
    offer = server.leases.policy.offer(
        LeaseTerms(duration=None), "rd", usage)
    assert offer.duration < 100.0


# ---------------------------------------------------------------------------
# Threaded runtime: bounded serve concurrency (SHED and the origin backoff
# are checked once for both runtimes in tests/test_runtime_base.py)
# ---------------------------------------------------------------------------
def test_threaded_serve_gate_validates_bound():
    from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode

    registry = ThreadedNodeRegistry()
    with pytest.raises(ValueError):
        ThreadedTiamatNode(registry, "bad", max_concurrent_serves=0)


# ---------------------------------------------------------------------------
# Determinism: identical seeds, identical admission outcomes
# ---------------------------------------------------------------------------
def test_overload_point_is_deterministic():
    from repro.bench.overload import run_overload_point

    runs = [run_overload_point(7, 60.0, admission=True, duration=2.0,
                               clients=4)
            for _ in range(2)]
    assert runs[0].started == runs[1].started
    assert runs[0].satisfied == runs[1].satisfied
    assert runs[0].sheds == runs[1].sheds
    assert runs[0].shed_by_reason == runs[1].shed_by_reason
    assert runs[0].refusals_seen == runs[1].refusals_seen
    # Latencies match to sub-millisecond only: op ids come from a global
    # counter, so their byte length (and thus modelled wire latency) can
    # differ between in-process runs.  Counts above are exact.
    assert runs[0].latencies == pytest.approx(runs[1].latencies, abs=1e-3)
