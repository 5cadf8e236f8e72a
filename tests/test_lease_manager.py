"""Unit tests for the lease manager (negotiation, accounting, revocation)."""

import pytest

from repro.errors import LeaseRefusedError, LeaseRejectedByRequesterError
from repro.leasing import (
    AcceptAnythingRequester,
    AdaptivePolicy,
    ConservativePolicy,
    DenyAllPolicy,
    GenerousPolicy,
    LeaseManager,
    LeaseState,
    LeaseTerms,
    OperationKind,
    SimpleLeaseRequester,
)
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=2)


def test_negotiate_grants_lease(sim):
    manager = LeaseManager(sim)
    lease = manager.negotiate(SimpleLeaseRequester(LeaseTerms(10)), OperationKind.OUT)
    assert lease.active and lease.terms.duration == 10
    assert manager.grants == 1
    assert manager.active_count == 1


def test_policy_refusal_raises_and_counts(sim):
    manager = LeaseManager(sim, policy=DenyAllPolicy())
    with pytest.raises(LeaseRefusedError):
        manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT)
    assert manager.refusals == 1 and manager.grants == 0


def test_requester_rejection_raises_and_counts(sim):
    manager = LeaseManager(sim, policy=ConservativePolicy(max_duration=5))
    demanding = SimpleLeaseRequester(LeaseTerms(1000), minimum=LeaseTerms(500))
    with pytest.raises(LeaseRejectedByRequesterError):
        manager.negotiate(demanding, OperationKind.RD)
    assert manager.requester_rejections == 1 and manager.active_count == 0


def test_storage_needed_folded_into_request(sim):
    manager = LeaseManager(sim)
    lease = manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT,
                              storage_needed=500)
    assert lease.terms.storage_bytes is not None and lease.terms.storage_bytes >= 500
    assert manager.storage_used == 500


def test_storage_capacity_enforced(sim):
    manager = LeaseManager(sim, storage_capacity=1000)
    manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT, storage_needed=800)
    with pytest.raises(LeaseRefusedError):
        manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT, storage_needed=300)
    assert manager.storage_used == 800


def test_storage_freed_on_lease_end(sim):
    manager = LeaseManager(sim, storage_capacity=1000)
    lease = manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT,
                              storage_needed=800)
    lease.release()
    assert manager.storage_used == 0
    manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT, storage_needed=900)


def test_non_deposit_ops_do_not_commit_storage(sim):
    manager = LeaseManager(sim, storage_capacity=100)
    manager.negotiate(AcceptAnythingRequester(), OperationKind.IN)
    assert manager.storage_used == 0


def test_lease_expires_on_schedule(sim):
    manager = LeaseManager(sim)
    lease = manager.negotiate(SimpleLeaseRequester(LeaseTerms(duration=10)),
                              OperationKind.OUT, storage_needed=100)
    states = []
    lease.on_end(lambda l, s: states.append(s))
    sim.run(until=9.0)
    assert lease.active
    sim.run(until=11.0)
    assert states == [LeaseState.EXPIRED]
    assert manager.expirations == 1
    assert manager.storage_used == 0


def test_released_lease_does_not_also_expire(sim):
    manager = LeaseManager(sim)
    lease = manager.negotiate(SimpleLeaseRequester(LeaseTerms(duration=10)),
                              OperationKind.OUT)
    states = []
    lease.on_end(lambda l, s: states.append(s))
    lease.release()
    sim.run(until=20.0)
    assert states == [LeaseState.RELEASED]
    assert manager.expirations == 0


def test_revoke(sim):
    manager = LeaseManager(sim)
    lease = manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT,
                              storage_needed=100)
    states = []
    lease.on_end(lambda l, s: states.append(s))
    manager.revoke(lease, reason="test")
    assert states == [LeaseState.REVOKED]
    assert manager.revocations == 1
    assert manager.storage_used == 0
    manager.revoke(lease)  # idempotent
    assert manager.revocations == 1


def test_revoke_storage_pressure_reclaims_oldest_first(sim):
    manager = LeaseManager(sim, storage_capacity=10_000)
    leases = [
        manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT,
                          storage_needed=1000)
        for _ in range(5)
    ]
    revoked = manager.revoke_storage_pressure(target_bytes=2500)
    assert [l.lease_id for l in revoked] == [leases[0].lease_id, leases[1].lease_id,
                                             leases[2].lease_id]
    assert manager.storage_used == 2000


def test_usage_snapshot_reflects_state(sim):
    manager = LeaseManager(sim, storage_capacity=1000, thread_capacity=2)
    manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT, storage_needed=500)
    manager.threads.acquire()
    usage = manager.usage()
    assert usage.storage_used == 500
    assert usage.storage_pressure == 0.5
    assert usage.thread_utilisation == 0.5
    assert usage.active_leases == 1


def test_policies_read_the_manager_as_its_live_usage(sim):
    """The manager hands itself to the policy as the usage view: it reads
    every name a snapshot holds, with the snapshot's values."""
    seen = []

    class Recording(AdaptivePolicy):
        def offer(self, requested, operation, usage):
            seen.append({name: getattr(usage, name) for name in NAMES})
            return super().offer(requested, operation, usage)

    NAMES = ("storage_used", "storage_capacity", "active_leases",
             "thread_utilisation", "queue_pressure", "storage_pressure")
    manager = LeaseManager(sim, policy=Recording(), storage_capacity=1000,
                           thread_capacity=4)
    manager.attach_pressure_signal(lambda: 0.25)
    manager.attach_pressure_signal(lambda: 0.125)
    manager.negotiate(AcceptAnythingRequester(), OperationKind.OUT, storage_needed=400)
    manager.threads.acquire()
    usage = manager.usage()
    lease = manager.negotiate(AcceptAnythingRequester(), OperationKind.RD)
    assert seen[-1] == {name: getattr(usage, name) for name in NAMES}
    assert seen[-1]["queue_pressure"] == 0.25
    assert lease.terms == AdaptivePolicy().offer(LeaseTerms(), "rd", usage)


def test_generous_default_policy(sim):
    manager = LeaseManager(sim)
    assert isinstance(manager.policy, GenerousPolicy)
