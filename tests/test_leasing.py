"""Unit tests for lease terms, leases, requesters, resources, and policies."""

import copy
import pickle

import pytest

from repro.errors import LeaseError
from repro.leasing import (
    AcceptAnythingRequester,
    AdaptivePolicy,
    ConservativePolicy,
    DenyAllPolicy,
    GenerousPolicy,
    Lease,
    LeaseState,
    LeaseTerms,
    ResourceFactory,
    SimpleLeaseRequester,
)
from repro.leasing.policy import UsageSnapshot


# ---------------------------------------------------------------------------
# LeaseTerms
# ---------------------------------------------------------------------------
def test_terms_validation():
    with pytest.raises(LeaseError):
        LeaseTerms(duration=-1)
    with pytest.raises(LeaseError):
        LeaseTerms(max_remotes=-1)
    with pytest.raises(LeaseError):
        LeaseTerms(storage_bytes=-1)


def test_terms_satisfies():
    assert LeaseTerms(10, 5, 100).satisfies(LeaseTerms(5, 5, 50))
    assert not LeaseTerms(10, 5, 100).satisfies(LeaseTerms(20))
    assert LeaseTerms().satisfies(LeaseTerms(1000, 1000, 1000))  # unbounded
    assert LeaseTerms(10).satisfies(LeaseTerms())  # no minimum dimension


def test_terms_capped():
    capped = LeaseTerms(100, None, 500).capped(duration=10, max_remotes=3)
    assert capped == LeaseTerms(10, 3, 500)
    assert LeaseTerms(5).capped(duration=10).duration == 5


def test_terms_equality():
    assert LeaseTerms(1, 2, 3) == LeaseTerms(1, 2, 3)
    assert LeaseTerms(1) != LeaseTerms(2)


def test_terms_capped_by_nothing_are_the_same_terms():
    terms = LeaseTerms(5, 3, None)
    assert terms.capped(duration=10, max_remotes=3) is terms
    assert terms.capped(max_remotes=2) == LeaseTerms(5, 2, None)


def test_terms_are_immutable():
    """Every lease of a kind shares one terms object: none may change it."""
    terms = LeaseTerms(5, 3, 100)
    for name in ("duration", "max_remotes", "storage_bytes", "extra"):
        with pytest.raises(AttributeError):
            setattr(terms, name, 1)
    with pytest.raises(AttributeError):
        del terms.duration
    assert terms == LeaseTerms(5, 3, 100)
    assert copy.copy(terms) == pickle.loads(pickle.dumps(terms)) == terms


# ---------------------------------------------------------------------------
# Lease object
# ---------------------------------------------------------------------------
def test_lease_expiry_time():
    lease = Lease(1, None, LeaseTerms(duration=10), granted_at=5.0, operation="out")
    assert lease.expires_at == 15.0
    assert lease.remaining_time(10.0) == 5.0
    assert lease.remaining_time(20.0) == 0.0


def test_lease_unbounded_time():
    lease = Lease(1, None, LeaseTerms(), granted_at=0.0, operation="out")
    assert lease.expires_at is None
    assert lease.remaining_time(1e9) is None


def test_lease_remote_budget():
    lease = Lease(1, None, LeaseTerms(max_remotes=2), granted_at=0.0, operation="in")
    assert lease.use_remote() and lease.use_remote()
    assert not lease.use_remote()
    assert lease.remotes_remaining == 0
    assert lease.remotes_used == 2


def test_lease_unbounded_remotes():
    lease = Lease(1, None, LeaseTerms(), granted_at=0.0, operation="in")
    for _ in range(100):
        assert lease.use_remote()
    assert lease.remotes_remaining is None


def test_lease_release_fires_on_end_once():
    lease = Lease(1, None, LeaseTerms(duration=10), granted_at=0.0, operation="out")
    ends = []
    lease.on_end(lambda l, s: ends.append(s))
    lease.release()
    lease.release()  # idempotent
    assert ends == [LeaseState.RELEASED]
    assert not lease.active


def test_ended_lease_refuses_remote_use():
    lease = Lease(1, None, LeaseTerms(max_remotes=5), granted_at=0.0, operation="in")
    lease.release()
    assert not lease.use_remote()


# ---------------------------------------------------------------------------
# Requesters
# ---------------------------------------------------------------------------
def test_simple_requester_accepts_above_minimum():
    requester = SimpleLeaseRequester(LeaseTerms(100), minimum=LeaseTerms(10))
    assert requester.desired() == LeaseTerms(100)
    assert requester.consider(LeaseTerms(50))
    assert not requester.consider(LeaseTerms(5))


def test_simple_requester_without_minimum_accepts_all():
    requester = SimpleLeaseRequester(LeaseTerms(100))
    assert requester.consider(LeaseTerms(0.001))


def test_accept_anything_requester():
    requester = AcceptAnythingRequester()
    assert requester.desired() == LeaseTerms()
    assert requester.consider(LeaseTerms(0)) is True


# ---------------------------------------------------------------------------
# Resource factories
# ---------------------------------------------------------------------------
def test_factory_capacity_and_denial():
    pool = ResourceFactory("threads", capacity=2)
    t1, t2 = pool.acquire(), pool.acquire()
    assert t1 and t2
    assert pool.acquire() is None
    assert pool.denials == 1
    t1.release()
    assert pool.acquire() is not None
    assert pool.peak == 2


def test_factory_unbounded():
    pool = ResourceFactory("sockets")
    tokens = [pool.acquire() for _ in range(100)]
    assert all(tokens)
    assert pool.available is None
    assert pool.utilisation == 0.0


def test_token_release_idempotent():
    pool = ResourceFactory("threads", capacity=1)
    token = pool.acquire()
    token.release()
    token.release()
    assert pool.in_use == 0


def test_factory_utilisation():
    pool = ResourceFactory("threads", capacity=4)
    pool.acquire()
    assert pool.utilisation == 0.25
    assert pool.available == 3


def test_factory_negative_capacity_rejected():
    with pytest.raises(LeaseError):
        ResourceFactory("x", capacity=-1)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
def _idle():
    return UsageSnapshot()


def test_generous_policy_grants_requests():
    policy = GenerousPolicy(max_duration=100)
    offer = policy.offer(LeaseTerms(50, 10, 1000), "out", _idle())
    assert offer == LeaseTerms(50, 10, 1000)


def test_generous_policy_caps_unbounded_time():
    offer = GenerousPolicy(max_duration=100).offer(LeaseTerms(), "in", _idle())
    assert offer.duration == 100


def test_conservative_policy_caps_dimensions():
    policy = ConservativePolicy(max_duration=10, max_remotes=2, max_storage_bytes=100)
    offer = policy.offer(LeaseTerms(1000, 50, 80), "out", _idle())
    assert offer.duration == 10 and offer.max_remotes == 2 and offer.storage_bytes == 80


def test_conservative_policy_refuses_oversized_storage():
    policy = ConservativePolicy(max_storage_bytes=100)
    assert policy.offer(LeaseTerms(storage_bytes=500), "out", _idle()) is None


def test_conservative_policy_refuses_when_capacity_full():
    policy = ConservativePolicy(max_storage_bytes=10_000)
    usage = UsageSnapshot(storage_used=950, storage_capacity=1000)
    assert policy.offer(LeaseTerms(storage_bytes=100), "out", usage) is None


def test_adaptive_policy_scales_with_pressure():
    policy = AdaptivePolicy(base_duration=100, base_remotes=10)
    relaxed = policy.offer(LeaseTerms(), "in", UsageSnapshot())
    pressured = policy.offer(
        LeaseTerms(), "in",
        UsageSnapshot(storage_used=80, storage_capacity=100),
    )
    assert pressured.duration < relaxed.duration
    assert pressured.max_remotes < relaxed.max_remotes


def test_adaptive_policy_refuses_storage_when_critical():
    policy = AdaptivePolicy(refuse_threshold=0.9)
    critical = UsageSnapshot(storage_used=95, storage_capacity=100)
    assert policy.offer(LeaseTerms(storage_bytes=10), "out", critical) is None
    # Non-storage operations still get (short) leases.
    assert policy.offer(LeaseTerms(), "rd", critical) is not None


def test_deny_all_policy():
    assert DenyAllPolicy().offer(LeaseTerms(), "out", _idle()) is None
