"""Tests for the section 5 monitoring/adaptation extension."""

import pytest

from repro.core import (
    AppMonitor,
    ConflictResolver,
    LeaseTuner,
    RtsMonitor,
    TiamatInstance,
)
from repro.core.monitoring import NeighborRecord
from repro.errors import LeaseError
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=91)


# ---------------------------------------------------------------------------
# RtsMonitor (5.2 / 5.3)
# ---------------------------------------------------------------------------
def test_rts_monitor_tracks_sessions(sim):
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me", stable_session=10.0)
    net.visibility.set_visible("me", "peer")
    sim.run(until=5.0)
    assert monitor.stability_of("peer") == 5.0
    assert monitor.classify("peer") == "mobile"
    sim.run(until=20.0)
    assert monitor.classify("peer") == "stable"
    net.visibility.set_visible("me", "peer", False)
    assert monitor.stability_of("peer") == 0.0
    assert monitor.records["peer"].sessions == 1


def test_rts_monitor_availability(sim):
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me")
    net.visibility.set_visible("me", "flaky")
    sim.run(until=10.0)
    net.visibility.set_visible("me", "flaky", False)
    sim.run(until=20.0)
    # Visible 10 of 20 seconds.
    assert monitor.availability_of("flaky") == pytest.approx(0.5, abs=0.05)
    assert monitor.availability_of("stranger") == 0.0


def test_rts_monitor_stable_neighbors_ranking(sim):
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me", stable_session=5.0)
    net.visibility.set_visible("me", "old")
    sim.run(until=10.0)
    net.visibility.set_visible("me", "young")
    sim.run(until=16.0)
    assert monitor.stable_neighbors() == ["old", "young"]


def test_rts_monitor_ignores_unrelated_edges(sim):
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me")
    net.visibility.set_visible("x", "y")
    assert monitor.records == {}


def test_neighbor_record_availability_zero_window():
    """A zero (or negative) observation window yields 0.0, not a div error."""
    record = NeighborRecord()
    record.total_visible = 5.0
    assert record.availability(now=10.0, window=0.0) == 0.0
    assert record.availability(now=10.0, window=-1.0) == 0.0


def test_rts_monitor_availability_at_start_instant(sim):
    """availability_of at the exact start time (elapsed == 0) is safe."""
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me")
    net.visibility.set_visible("me", "peer")
    # No time has elapsed since the monitor started observing.
    assert monitor.availability_of("peer") == 0.0


def test_rts_monitor_close_unsubscribes(sim):
    net = Network(sim)
    net.visibility.add_node("me")
    monitor = RtsMonitor(sim, net, "me")
    monitor.close()
    net.visibility.set_visible("me", "peer")
    assert "peer" not in monitor.records


# ---------------------------------------------------------------------------
# AppMonitor (5.4)
# ---------------------------------------------------------------------------
def test_app_monitor_attach_records_ops(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=5.0)
    run_op(sim, inst["a"].rdp(Pattern("y", int)), until=10.0)
    assert monitor.op_mix["rdp"] == 2
    assert monitor.success_rate(Pattern("x", int)) == 1.0
    assert monitor.success_rate(Pattern("y", int)) == 0.0
    assert 0.0 < monitor.success_rate() < 1.0


def test_app_monitor_success_rate_no_data_vs_all_failed(sim):
    """0.0 from *no data* and 0.0 from *all failures* are both reachable."""
    monitor = AppMonitor(sim)
    # No operations observed at all: no data.
    assert monitor.success_rate() == 0.0
    # An op that started but never finished is still "no data".
    monitor.observe("rd", Pattern("pending"))
    assert monitor.success_rate() == 0.0
    # All finished ops failed: genuinely zero success.
    failed = monitor.observe("inp", Pattern("gone"))
    monitor.resolve(failed, False)
    assert monitor.success_rate() == 0.0
    assert monitor.success_rate(Pattern("gone")) == 0.0
    # One success flips the aggregate away from zero.
    won = monitor.observe("inp", Pattern("gone"))
    monitor.resolve(won, True)
    assert monitor.success_rate(Pattern("gone")) == 0.5


def test_app_monitor_attach_is_idempotent(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    wrapped = inst["a"]._start_op
    monitor.attach(inst["a"])  # second attach must be a no-op
    assert inst["a"]._start_op is wrapped
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=5.0)
    # The op is recorded exactly once despite the double attach.
    assert monitor.op_mix["rdp"] == 1


def test_app_monitor_detach_restores_and_stops_recording(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=5.0)
    monitor.detach(inst["a"])
    # The instance override is gone: back to the plain class method.
    assert "_start_op" not in vars(inst["a"])
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=10.0)
    # History from before detach is retained; nothing new is recorded.
    assert monitor.op_mix["rdp"] == 1
    # Detaching twice (or an instance never attached) is a no-op.
    monitor.detach(inst["a"])
    assert "_start_op" not in vars(inst["a"])


def test_app_monitor_stacked_monitors_detach_safely(sim):
    """Detaching a monitor buried under another leaves the chain intact."""
    net, inst = build(sim, ["a"])
    inner = AppMonitor(sim)
    outer = AppMonitor(sim)
    inner.attach(inst["a"])
    outer.attach(inst["a"])
    # inner's wrapper is no longer the installed one, so detach must not
    # clobber outer's hook.
    top = inst["a"]._start_op
    inner.detach(inst["a"])
    assert inst["a"]._start_op is top
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=5.0)
    assert outer.op_mix["rdp"] == 1


def test_app_monitor_latency_and_hot_patterns(sim):
    net, inst = build(sim, ["a", "b"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    inst["b"].out(Tuple("remote", 1))
    run_op(sim, inst["a"].rd(Pattern("remote", int)), until=10.0)
    latency = monitor.mean_match_latency(Pattern("remote", int))
    assert latency is not None and latency > 0.0
    assert monitor.mean_match_latency(Pattern("never")) is None
    for _ in range(3):
        run_op(sim, inst["a"].rdp(Pattern("remote", int)), until=sim.now + 5.0)
    assert monitor.hot_patterns(top=1)[0][0] == 2  # arity of the hot pattern


# ---------------------------------------------------------------------------
# LeaseTuner (5.5)
# ---------------------------------------------------------------------------
def test_lease_tuner_grows_on_failures(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    tuner = LeaseTuner(monitor, base_duration=10.0, max_duration=100.0)
    pattern = Pattern("slow")
    first = tuner.suggest(pattern)
    assert first.duration == 10.0  # no data yet
    # Three failing blocking ops.
    for _ in range(3):
        op = inst["a"].in_(pattern,
                           requester=SimpleLeaseRequester(LeaseTerms(1.0)))
        sim.run(until=sim.now + 3.0)
        assert op.result is None
    grown = tuner.suggest(pattern)
    assert grown.duration > 10.0


def test_lease_tuner_shrinks_toward_observed_latency(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    tuner = LeaseTuner(monitor, base_duration=200.0, min_duration=1.0)
    pattern = Pattern("fast", int)
    for i in range(5):
        inst["a"].out(Tuple("fast", i))
        op = inst["a"].in_(pattern)
        sim.run(until=sim.now + 1.0)
        assert op.result is not None
    suggestion = tuner.suggest(pattern)
    assert suggestion.duration < 200.0


def test_lease_tuner_respects_bounds(sim):
    net, inst = build(sim, ["a"])
    monitor = AppMonitor(sim)
    monitor.attach(inst["a"])
    tuner = LeaseTuner(monitor, base_duration=10.0, min_duration=5.0,
                       max_duration=20.0)
    pattern = Pattern("bounded")
    for _ in range(10):
        op = inst["a"].in_(pattern,
                           requester=SimpleLeaseRequester(LeaseTerms(0.5)))
        sim.run(until=sim.now + 1.0)
        tuner.suggest(pattern)
    assert tuner.suggest(pattern).duration <= 20.0


# ---------------------------------------------------------------------------
# ConflictResolver (5.6)
# ---------------------------------------------------------------------------
def test_conflict_resolver_relieves_pressure(sim):
    net = Network(sim)
    inst = TiamatInstance(sim, net, "dev", storage_capacity=8 * 1024)
    resolver = ConflictResolver(sim, inst.leases, period=2.0,
                                high_water=0.8, low_water=0.5)
    resolver.start()

    def producer():
        i = 0
        while sim.now < 60.0:
            try:
                inst.out(Tuple("blob", i, "x" * 300),
                         requester=SimpleLeaseRequester(
                             LeaseTerms(duration=1000.0)))
            except LeaseError:
                pass
            i += 1
            yield sim.timeout(0.5)

    sim.spawn(producer())
    sim.run(until=60.0)
    assert resolver.interventions > 0
    # Pressure was actually relieved below the high-water mark each time.
    assert inst.leases.storage_used <= 8 * 1024


def test_conflict_resolver_reverses_bad_guesses(sim):
    net = Network(sim)
    inst = TiamatInstance(sim, net, "dev", storage_capacity=4 * 1024)
    resolver = ConflictResolver(sim, inst.leases, period=1.0,
                                high_water=0.7, low_water=0.3)
    low_before = resolver.low_water
    resolver.start()

    def aggressive_producer():
        i = 0
        while sim.now < 40.0:
            try:
                inst.out(Tuple("blob", i, "y" * 400),
                         requester=SimpleLeaseRequester(
                             LeaseTerms(duration=1000.0)))
            except LeaseError:
                pass
            i += 1
            yield sim.timeout(0.1)

    sim.spawn(aggressive_producer())
    sim.run(until=40.0)
    # Under relentless demand refusals keep rising after interventions, so
    # the resolver backs off its water mark at least once.
    assert resolver.reversals > 0
    assert resolver.low_water > low_before


def test_conflict_resolver_stop(sim):
    net = Network(sim)
    inst = TiamatInstance(sim, net, "dev", storage_capacity=1024)
    resolver = ConflictResolver(sim, inst.leases, period=1.0)
    resolver.start()
    sim.run(until=2.5)
    resolver.stop()
    interventions = resolver.interventions
    sim.run(until=20.0)
    assert resolver.interventions == interventions
