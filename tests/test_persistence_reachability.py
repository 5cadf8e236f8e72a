"""Tests for space persistence (2.4) and multi-hop visibility (2.2)."""

import pytest

from repro.check.oracles import InvariantMonitor, LeaseConservationOracle
from repro.core import SPACE_INFO_PATTERN, TiamatConfig, TiamatInstance
from repro.leasing import LeaseState, LeaseTerms, SimpleLeaseRequester
from repro.net import (
    CrashRestartInjector,
    MultiHopVisibilityDriver,
    Network,
    Position,
    StaticPlacement,
    VisibilityGraph,
    WaypointTrace,
)
from repro.sim import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import encoded_size
from repro.tuples.storage import (
    DEFAULT_SKIP_TAGS,
    MemoryBackend,
    MemoryFS,
    WALBackend,
    attach_backend,
)


# ---------------------------------------------------------------------------
# Persistence: one power-cycle contract, whatever the log lives in
# ---------------------------------------------------------------------------
@pytest.fixture(params=["memory", "wal-memfs", "wal-file"])
def reopen(request, tmp_path):
    """Each call is one boot's handle on the device's durable state (for
    ``memory`` the object itself is that state, so it is handed back)."""
    if request.param == "memory":
        backend = MemoryBackend()
        return lambda: backend
    if request.param == "wal-memfs":
        fs = MemoryFS()
        return lambda: WALBackend("dev", fs=fs)
    return lambda: WALBackend(str(tmp_path / "dev"))


@pytest.fixture
def world():
    sim = Simulator(seed=11)
    return sim, Network(sim)


def leased(duration):
    return SimpleLeaseRequester(LeaseTerms(duration=duration))


def power_down(instance, backend):
    """A polite power-down: image the space, then cut the power."""
    attach_backend(instance.space, backend).detach()
    instance.shutdown()


def residents(instance):
    """The application's entries (the instance's own rows left out)."""
    return [e for e in sorted(instance.space.store, key=lambda e: e.entry_id)
            if e.visible and e.tuple[0] not in DEFAULT_SKIP_TAGS]


def test_image_then_recover_yields_the_same_tuples(world, reopen):
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    deposited = [Tuple("a", 1), Tuple("a", 1), Tuple("b", 2.5, b"\x00\xff"),
                 Tuple("c", "text", Tuple("nested"))]
    for tup in deposited:
        old.out(tup, requester=leased(1000.0))
    power_down(old, reopen())

    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(reopen(), sync=False)
    assert (stats.restored, stats.reclaimed) == (4, 0)
    assert (sorted((e.tuple for e in residents(reborn)), key=repr)
            == sorted(deposited, key=repr))


@pytest.mark.parametrize("charge", [True, False])
def test_outage_burns_lease_time_or_the_remainder_is_preserved(
        world, reopen, charge):
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    old.out(Tuple("short"), requester=leased(5.0))
    old.out(Tuple("long"), requester=leased(100.0))
    sim.run(until=1.0)
    power_down(old, reopen())
    sim.run(until=10.0)            # a 9 s outage

    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(reopen(), downtime=9.0,
                                charge_downtime=charge, sync=False)
    count = reborn.space.count
    if charge:
        # the 5 s lease died in the dark; the 100 s one keeps its deadline
        assert (stats.restored, stats.reclaimed) == (1, 1)
        assert count(Pattern("short")) == 0
        sim.run(until=99.0)
        assert count(Pattern("long")) == 1
        sim.run(until=101.0)
        assert count(Pattern("long")) == 0
    else:
        # 4 s and 99 s were left at power-down, and are left at boot
        assert (stats.restored, stats.reclaimed) == (2, 0)
        sim.run(until=13.0)
        assert count(Pattern("short")) == 1
        sim.run(until=15.0)
        assert count(Pattern("short")) == 0
        sim.run(until=108.0)
        assert count(Pattern("long")) == 1
        sim.run(until=110.0)
        assert count(Pattern("long")) == 0


def test_infrastructure_rows_are_not_imaged(world, reopen):
    sim, net = world
    old = TiamatInstance(sim, net, "dev",
                         config=TiamatConfig(telemetry_enabled=True))
    old.out(Tuple("user-data", 1))
    sim.run(until=2.1)
    assert ({t[0] for t in old.space.snapshot()}
            == {"__space_info__", "_telemetry", "user-data"})
    power_down(old, reopen())
    imaged = [tup for _, tup, _ in reopen().recover().entries]
    assert imaged == [Tuple("user-data", 1)]


def test_space_info_tuple_follows_the_bound_backend(world, reopen):
    sim, net = world
    inst = TiamatInstance(sim, net, "dev")
    info = Tuple("__space_info__", "dev", False)
    assert inst.space.rdp(SPACE_INFO_PATTERN) == info
    backend = attach_backend(inst.space, reopen())
    assert inst.handle().persistent
    assert inst.space.rdp(SPACE_INFO_PATTERN) == Tuple("__space_info__", "dev", True)
    backend.detach()
    assert not inst.handle().persistent
    assert inst.space.rdp(SPACE_INFO_PATTERN) == info
    # The swap is no deposit: it reached no log and no counter.
    assert reopen().recover().entries == []
    assert (inst.space.deposits, inst.space.consumed) == (1, 0)


def test_recovery_keeps_entry_ids_and_bumps_the_counter(world, reopen):
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    for i in range(3):
        old.out(Tuple("row", i))
    old.space.inp(Pattern("row", 0))    # ids need not be dense
    ids = {e.tuple: e.entry_id for e in residents(old)}
    power_down(old, reopen())

    reborn = TiamatInstance(sim, net, "dev")
    reborn.recover_from(reopen(), sync=False)
    assert {e.tuple: e.entry_id for e in residents(reborn)} == ids
    assert reborn.out(Tuple("fresh")).entry_id > max(ids.values())


def assert_residents_are_leased(instance):
    """Every resident is funded by an ACTIVE lease that ends when it does,
    and the manager's storage gauge is exactly their encoded size."""
    entries = residents(instance)
    for entry in entries:
        lease = entry.meta["lease"]
        assert lease.state is LeaseState.ACTIVE
        assert instance.leases.active[lease.lease_id] is lease
        assert lease.expires_at == entry.meta["expires_at"]
    assert instance.leases.storage_used == sum(
        encoded_size(e.tuple) for e in entries)
    return entries


def test_recovered_tuples_re_enter_lease_accounting(world, reopen):
    sim, net = world
    with InvariantMonitor(sim, oracles=[LeaseConservationOracle()],
                          stop_on_violation=False) as monitor:
        old = TiamatInstance(sim, net, "dev")
        for i in range(5):
            old.out(Tuple("item", i), requester=leased(300.0))
        before = old.leases.storage_used
        sim.run(until=1.0)
        power_down(old, reopen())
        sim.run(until=3.0)

        reborn = TiamatInstance(sim, net, "dev")
        reborn.recover_from(reopen(), sync=False)
        assert len(assert_residents_are_leased(reborn)) == 5
        assert reborn.leases.storage_used == before
        assert residents(reborn)[0].meta["expires_at"] == 300.0
        # a consume hands the bytes back, exactly as for a fresh deposit
        assert reborn.space.inp(Pattern("item", 0)) == Tuple("item", 0)
        assert len(assert_residents_are_leased(reborn)) == 4
        # and the leases end with their tuples
        sim.run(until=301.0)
        assert reborn.leases.active_count == reborn.leases.storage_used == 0
        monitor.check_managers([old.leases, reborn.leases])
    assert not monitor.violations


def test_a_refused_re_lease_reclaims_the_tuple(world):
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    for i in range(3):
        old.out(Tuple("item", i), requester=leased(300.0))
    backend = MemoryBackend()
    power_down(old, backend)
    # the replacement device has room for two of the three
    room = 2 * encoded_size(Tuple("item", 0))
    reborn = TiamatInstance(sim, net, "dev", storage_capacity=room)
    stats = reborn.recover_from(backend, sync=False)
    assert (stats.restored, stats.reclaimed) == (2, 1)
    assert reborn.leases.storage_used == room
    assert len(backend) == 2            # the refused one left the log too


def test_a_survivor_taken_on_restore_releases_its_lease(world):
    """A parked `in` on the reborn device takes a survivor as it is
    restored: the fresh out lease (and its bytes) must end with it."""
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    old.out(Tuple("item", 1), requester=leased(300.0))
    backend = MemoryBackend()
    power_down(old, backend)
    reborn = TiamatInstance(sim, net, "dev2")
    op = reborn.in_(Pattern("item", int))
    sim.run(until=sim.now + 1.0)
    reborn.recover_from(backend, sync=False)
    sim.run(until=sim.now + 1.0)
    assert op.result == Tuple("item", 1)
    assert reborn.leases.active_count == reborn.leases.storage_used == 0


def injected_world(logged):
    """n + peer under a CrashRestartInjector; ``logged`` gives n a WAL."""
    sim = Simulator(seed=21)
    net = Network(sim)
    registry = {}

    def factory(name):
        inst = TiamatInstance(sim, net, name)
        for peer in registry:
            net.visibility.set_visible(name, peer)
        return inst

    for name in ("n", "peer"):
        registry[name] = factory(name)
    backends = {}
    if logged:
        backends["n"] = attach_backend(registry["n"].space,
                                       WALBackend("n", fs=MemoryFS()))
    return sim, registry, CrashRestartInjector(sim, registry, factory,
                                               backends=backends)


@pytest.mark.parametrize("logged", [False, True], ids=["imaged", "wal"])
def test_injector_power_cycle_conserves_leases(logged):
    sim, registry, injector = injected_world(logged)
    with InvariantMonitor(sim, oracles=[LeaseConservationOracle()],
                          stop_on_violation=False) as monitor:
        old = registry["n"]
        for i in range(4):
            old.out(Tuple("item", i), requester=leased(300.0))
        injector.power_cycle("n", crash_time=1.0, restart_time=3.0)
        sim.run(until=10.0)             # restart + (for the WAL) the rejoin
        revived = registry["n"]
        assert revived is not old
        assert revived.rejoins_completed == (1 if logged else 0)
        assert len(assert_residents_are_leased(revived)) == 4
        # the peer takes one over the wire: its bytes come back too
        op = registry["peer"].in_(Pattern("item", 1))
        sim.run(until=20.0)
        assert op.result == Tuple("item", 1)
        assert len(assert_residents_are_leased(revived)) == 3
        monitor.check_managers(
            [old.leases, revived.leases, registry["peer"].leases])
    assert not monitor.violations


def test_snapshot_excludes_held_entries():
    """The injector's own image skips the rejoin, so nothing would ever
    settle a claim that was in flight at power-down: it is left out."""
    sim, registry, injector = injected_world(logged=False)
    n = registry["n"]
    n.out(Tuple("held"))
    n.out(Tuple("free"))
    assert n.space.hold_match(Pattern("held")) is not None
    injector.crash("n")
    injector.restart("n")
    assert injector.tuples_restored == 1
    assert [e.tuple for e in residents(registry["n"])] == [Tuple("free")]


def test_instance_power_cycle_via_snapshot(world):
    """A device images its space, 'reboots' as a new instance, and a peer
    finds the recovered tuple."""
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    old.out(Tuple("kept", 42), requester=leased(1000.0))
    backend = MemoryBackend()
    power_down(old, backend)

    reborn = TiamatInstance(sim, net, "dev2")
    assert reborn.recover_from(backend, sync=False).restored == 1
    peer = TiamatInstance(sim, net, "peer")
    net.visibility.set_visible("dev2", "peer")
    op = peer.rd(Pattern("kept", int))
    sim.run(until=10.0)
    assert op.result == Tuple("kept", 42)


def test_save_and_load_file(world, tmp_path):
    """On disk an image is a compaction with an empty log."""
    sim, net = world
    old = TiamatInstance(sim, net, "dev")
    for i in range(5):
        old.out(Tuple("row", i))
    base = str(tmp_path / "space")
    power_down(old, WALBackend(base))
    assert (tmp_path / "space.snap").stat().st_size > 0
    assert (tmp_path / "space.wal").stat().st_size == 0

    reborn = TiamatInstance(sim, net, "dev")
    assert reborn.recover_from(WALBackend(base), sync=False).restored == 5
    assert reborn.space.count(Pattern("row", int)) == 5


# ---------------------------------------------------------------------------
# Multi-hop visibility
# ---------------------------------------------------------------------------
def chain_placement(n, spacing):
    return StaticPlacement({f"c{i}": Position(i * spacing, 0.0)
                            for i in range(n)})


def test_multihop_extends_visibility_along_chain():
    sim = Simulator()
    graph = VisibilityGraph()
    # 4 nodes in a line, each only in radio range of its neighbour.
    placement = chain_placement(4, spacing=10.0)
    driver = MultiHopVisibilityDriver(sim, graph, placement,
                                      radio_range=10.0, max_hops=2)
    driver.start()
    assert graph.visible("c0", "c1")      # 1 hop
    assert graph.visible("c0", "c2")      # 2 hops
    assert not graph.visible("c0", "c3")  # 3 hops > max


def test_one_hop_equals_direct_visibility():
    sim = Simulator()
    graph = VisibilityGraph()
    placement = chain_placement(3, spacing=10.0)
    MultiHopVisibilityDriver(sim, graph, placement,
                             radio_range=10.0, max_hops=1).start()
    assert graph.visible("c0", "c1")
    assert not graph.visible("c0", "c2")


def test_multihop_tracks_movement():
    sim = Simulator()
    graph = VisibilityGraph()
    trace = WaypointTrace()
    trace.add_keyframe("a", 0.0, 0, 0)
    trace.add_keyframe("a", 100.0, 0, 0)
    trace.add_keyframe("relay", 0.0, 10, 0)
    trace.add_keyframe("relay", 10.0, 500, 0)  # relay walks away
    trace.add_keyframe("b", 0.0, 20, 0)
    trace.add_keyframe("b", 100.0, 20, 0)
    driver = MultiHopVisibilityDriver(sim, graph, trace,
                                      radio_range=10.0, max_hops=2, tick=1.0)
    driver.start()
    assert graph.visible("a", "b")  # via the relay
    sim.run(until=20.0)
    assert not graph.visible("a", "b")  # relay gone, chain broken
    driver.stop()


def test_multihop_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MultiHopVisibilityDriver(sim, VisibilityGraph(),
                                 chain_placement(2, 10.0),
                                 radio_range=10.0, max_hops=0)


def test_tiamat_coordinates_across_multihop_visibility():
    """End to end: A and C coordinate though only B is in radio range."""
    sim = Simulator(seed=12)
    net = Network(sim)
    a = TiamatInstance(sim, net, "c0")
    b = TiamatInstance(sim, net, "c1")
    c = TiamatInstance(sim, net, "c2")
    placement = chain_placement(3, spacing=10.0)
    MultiHopVisibilityDriver(sim, net.visibility, placement,
                             radio_range=10.0, max_hops=2).start()
    c.out(Tuple("far-away", 1))
    op = a.in_(Pattern("far-away", int))
    sim.run(until=10.0)
    assert op.result == Tuple("far-away", 1)
    assert op.source == "c2"


# ---------------------------------------------------------------------------
# Pluggable space
# ---------------------------------------------------------------------------
def test_instance_accepts_custom_space():
    sim = Simulator(seed=13)
    net = Network(sim)
    prefilled = LocalTupleSpace(sim, name="prefilled")
    prefilled.out(Tuple("legacy", 7))
    inst = TiamatInstance(sim, net, "node", space=prefilled)
    assert inst.space is prefilled
    op = inst.rdp(Pattern("legacy", int))
    sim.run(until=5.0)
    assert op.result == Tuple("legacy", 7)
