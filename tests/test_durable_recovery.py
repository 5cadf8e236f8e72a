"""Instance-level durable recovery and the anti-entropy rejoin.

The dangerous window (docs/PROTOCOL.md section 10): a peer destructively
consumes a tuple, the origin's acknowledgement reaches the consumer, and
*then* the origin dies with the consume's removal record torn off its
write-ahead log.  Naive replay resurrects the tuple — a second destructive
take of something the network already consumed exactly once.  The rejoin
protocol closes it: restored entries come back quarantined, SYNC_REQUEST
collects every visible peer's consume witnesses, witnessed ghosts are
purged, and entries that cannot be verified before the sync window closes
are dropped rather than risked.
"""

import pytest

from repro.core import TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import CrashRestartInjector, Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple
from repro.tuples.storage import MemoryBackend, MemoryFS, WALBackend, attach_backend


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def net(sim):
    return Network(sim)


def terms(duration=1000.0):
    return SimpleLeaseRequester(LeaseTerms(duration=duration, max_remotes=8))


# ---------------------------------------------------------------------------
# recover_from: lease-aware replay, id discipline
# ---------------------------------------------------------------------------
def test_recover_restores_original_ids_and_bumps_counter(sim, net):
    old = TiamatInstance(sim, net, "dev")
    backend = attach_backend(old.space, MemoryBackend())
    old.space.out(Tuple("a"))
    old.space.out(Tuple("b"))
    old_ids = sorted(e.entry_id for e in old.space.store)
    old.shutdown()

    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(backend, sync=False)
    assert stats.restored == 2 and stats.reclaimed == 0
    assert sorted(e.entry_id for e in reborn.space.store) == old_ids
    # New deposits never reuse an id the log has seen.
    reborn.space.out(Tuple("fresh"))
    fresh = [e.entry_id for e in reborn.space.store
             if e.tuple == Tuple("fresh")]
    assert fresh[0] > max(old_ids)
    assert reborn.space.count(Pattern("a")) == 1    # visible: no quarantine


def test_recover_charges_downtime_against_leases(sim, net):
    old = TiamatInstance(sim, net, "dev")
    backend = attach_backend(old.space, MemoryBackend())
    old.space.out(Tuple("short"), expires_at=10.0)
    old.space.out(Tuple("long"), expires_at=500.0)
    old.shutdown()
    backend.detach()        # power cut: dead incarnation's timers can't log
    sim.run(until=100.0)    # the node is dark while its leases burn

    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(backend, sync=False)
    assert stats.restored == 1 and stats.reclaimed == 1
    assert reborn.space.count(Pattern("short")) == 0
    assert reborn.space.count(Pattern("long")) == 1
    assert reborn.tuples_reclaimed == 1


def test_recover_can_reanchor_remaining_lease_time(sim, net):
    old = TiamatInstance(sim, net, "dev")
    backend = attach_backend(old.space, MemoryBackend())
    old.space.out(Tuple("mortal"), expires_at=10.0)   # 10s of life
    old.shutdown()
    backend.detach()
    sim.run(until=100.0)

    reborn = TiamatInstance(sim, net, "dev")
    stats = reborn.recover_from(backend, downtime=100.0,
                                charge_downtime=False, sync=False)
    assert stats.restored == 1
    sim.run(until=105.0)
    assert reborn.space.count(Pattern("mortal")) == 1  # re-anchored: 10s left
    sim.run(until=115.0)
    assert reborn.space.count(Pattern("mortal")) == 0


def test_recover_with_no_peers_releases_immediately(sim, net):
    old = TiamatInstance(sim, net, "dev")
    backend = attach_backend(old.space, MemoryBackend())
    old.space.out(Tuple("solo"))
    old.shutdown()

    reborn = TiamatInstance(sim, net, "dev")
    reborn.recover_from(backend, sync=True)
    # Nobody to ask: the rejoin degenerates to an immediate release.
    assert reborn.rejoins_completed == 1
    assert reborn.space.count(Pattern("solo")) == 1


# ---------------------------------------------------------------------------
# The full loop: torn removal record, ghost purged by a peer's witness
# ---------------------------------------------------------------------------
def crash_recover_pair(sim, net, tear):
    """server+client; client consumes one of two tuples; server dies with
    the consume's `rm` torn off its WAL, then durably recovers."""
    registry = {}

    def factory(name):
        instance = TiamatInstance(sim, net, name)
        for peer in ("server", "client"):
            if peer != name:
                net.visibility.set_visible(name, peer)
                net.visibility.set_visible(peer, name)
        return instance

    registry["server"] = factory("server")
    registry["client"] = factory("client")
    backend = attach_backend(registry["server"].space,
                             WALBackend("srv", fs=MemoryFS()))
    injector = CrashRestartInjector(sim, registry, factory,
                                    backends={"server": backend})

    registry["server"].out(Tuple("keep", 0), requester=terms())
    registry["server"].out(Tuple("job", 1), requester=terms())

    def run():
        client = registry["client"]
        while "server" not in client.comms.plan():
            yield client.comms.discover()
        op = client.in_(Pattern("job", 1), requester=terms(8.0))
        result = yield op.event
        assert result == Tuple("job", 1)
        yield sim.timeout(0.1)          # the CLAIM_ACCEPT lands; rm logged
        injector.crash("server")
        if tear:
            torn = backend.tear_tail(12)
            assert torn["op"] == "rm" and torn["why"] == "consumed"
        yield sim.timeout(0.2)
        injector.restart("server")

    sim.spawn(run())
    sim.run(until=30.0)
    return registry, injector, backend


def test_torn_consume_record_is_purged_not_resurrected(sim, net):
    registry, injector, backend = crash_recover_pair(sim, net, tear=True)
    server = registry["server"]
    # The consumed tuple came back quarantined, the client's witness
    # named it, and the rejoin purged it: never observable again.
    assert server.space.count(Pattern("job", 1)) == 0
    assert server.space.count(Pattern("keep", 0)) == 1
    assert injector.ghosts_purged == 1
    assert server.rejoins_completed == 1 and server.rejoin_dropped == 0
    # The purge is durable too: one more recovery stays clean.
    assert all(tup != Tuple("job", 1)
               for _, tup, _ in backend.recover().entries)


def test_intact_log_recovers_without_purges(sim, net):
    registry, injector, _ = crash_recover_pair(sim, net, tear=False)
    server = registry["server"]
    assert server.space.count(Pattern("job", 1)) == 0
    assert server.space.count(Pattern("keep", 0)) == 1
    assert injector.ghosts_purged == 0


def test_client_witnesses_and_answers_sync(sim, net):
    registry, _, _ = crash_recover_pair(sim, net, tear=True)
    client = registry["client"]
    server = registry["server"]
    assert client.sync_responses_sent == 1
    assert server.sync_requests_sent == 1
    # The witness set names the durable id it consumed on the server
    # (id 3: the server's __space_info__ and "keep" tuples come first).
    assert list(client._consume_witness["server"]) == [3]


def test_rejoin_timeout_drops_unverified_entries(sim, net):
    old = TiamatInstance(sim, net, "dev")
    backend = attach_backend(old.space, MemoryBackend())
    old.space.out(Tuple("maybe-ghost"))
    old.shutdown()
    # A peer that is visible (registered, up) but silent: no instance ever
    # runs under the name, so the SYNC_REQUEST is never answered.
    net.visibility.set_visible("dev", "dark")

    reborn = TiamatInstance(sim, net, "dev")
    reborn.recover_from(backend, sync=True)
    assert reborn.space.count(Pattern("maybe-ghost")) == 0   # quarantined
    sim.run(until=10.0)
    # Unverifiable: dropped, not released (a torn rm must never win).
    assert reborn.space.count(Pattern("maybe-ghost")) == 0
    assert reborn.rejoin_dropped == 1
    assert reborn.rejoins_completed == 1


def test_witness_cap_evicts_oldest_first(sim, net):
    inst = TiamatInstance(sim, net, "dev")
    inst.WITNESS_CAP = 3
    for entry_id in range(1, 6):
        inst.note_remote_consume("peer", entry_id)
    assert list(inst._consume_witness["peer"]) == [3, 4, 5]
    inst.note_remote_consume("peer", 3)     # refresh keeps it one slot
    assert len(inst._consume_witness["peer"]) == 3


# ---------------------------------------------------------------------------
# Observability: recovery metrics register on first use only
# ---------------------------------------------------------------------------
def test_recovery_metrics_are_conditional(sim, net):
    plain = TiamatInstance(sim, net, "plain")
    names = {family.name for family in sim.obs.registry.families()}
    assert "recovery_events_total" not in names
    assert "storage_records_total" not in names

    backend = attach_backend(plain.space, MemoryBackend())
    plain.space.out(Tuple("x"))
    plain.shutdown()
    reborn = TiamatInstance(sim, net, "dev")
    reborn.recover_from(backend, sync=False)
    snapshot = sim.obs.registry.snapshot()
    assert "recovery_events_total" in snapshot
    assert "storage_records_total" in snapshot
