"""Tests for the sharded + replicated tuple-space fabric (``repro.fabric``).

Covers the shard keying rules, consistent-hash placement, O(k) routed
lookups, the bounded wildcard scatter, shard-map skew convergence via the
piggybacked digest, ownership handoff racing a blocking ``in``, and —
load-bearing for every seeded baseline in the repo — that a fabric-less
instance is bit-for-bit unaffected by the subsystem's existence.
"""

import pytest

from repro.core import TiamatConfig, TiamatInstance
from repro.core import protocol
from repro.fabric import (
    FabricConfig,
    HashRing,
    ShardMap,
    is_infrastructure,
    pattern_shard_key,
    shard_key,
    stable_hash,
)
from repro.fabric import manager
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Formal, Pattern, Tuple


@pytest.fixture()
def sim():
    return Simulator(seed=7)


def fabric_config(**overrides) -> FabricConfig:
    """Tight timings so handoff fits inside short test horizons."""
    defaults = dict(key_fields=2, membership_lease=0.8,
                    heartbeat_period=0.25, migrate_timeout=0.4)
    defaults.update(overrides)
    return FabricConfig(**defaults)


def build(sim, names, fabric=True, **overrides):
    net = Network(sim)
    config = TiamatConfig(
        fabric=fabric_config(**overrides) if fabric else None)
    instances = {n: TiamatInstance(sim, net, n, config=config)
                 for n in names}
    net.visibility.connect_clique(list(names))
    if fabric:
        for inst in instances.values():
            inst.fabric.bootstrap(list(names))
    return net, instances


# ---------------------------------------------------------------------------
# Shard keying
# ---------------------------------------------------------------------------
def test_shard_key_covers_arity_and_leading_fields():
    assert shard_key(Tuple("job", "k0", 1), 2) == shard_key(
        Tuple("job", "k0", 99), 2)
    assert shard_key(Tuple("job", "k0", 1), 2) != shard_key(
        Tuple("job", "k1", 1), 2)
    # Arity is always part of the key: same prefix, different width.
    assert shard_key(Tuple("job", "k0"), 2) != shard_key(
        Tuple("job", "k0", 1), 2)
    # Types distinguish: 1 and "1" must not collide.
    assert shard_key(Tuple(1, "x"), 1) != shard_key(Tuple("1", "x"), 1)


def test_pattern_shard_key_requires_ground_prefix():
    assert pattern_shard_key(Pattern("job", "k0", Formal(int)), 2) == \
        shard_key(Tuple("job", "k0", 7), 2)
    # A wildcard inside the key prefix cannot route.
    assert pattern_shard_key(Pattern("job", Formal(str), 3), 2) is None
    assert pattern_shard_key(Pattern(Formal(str), "k0", 3), 2) is None
    # ...but is fine beyond the prefix.
    assert pattern_shard_key(Pattern("job", "k0", Formal(int)), 1) is not None


def test_infrastructure_tuples_never_shard():
    from repro.fabric import pattern_is_infrastructure

    assert is_infrastructure(Tuple("_registry", "svc", 1))
    assert not is_infrastructure(Tuple("registry", "svc", 1))
    assert pattern_is_infrastructure(Pattern("_registry", Formal(str)))
    assert not pattern_is_infrastructure(Pattern("registry", Formal(str)))


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------
def test_ring_deterministic_and_distinct_owners():
    a = HashRing(["n0", "n1", "n2", "n3"], vnodes=8)
    b = HashRing(["n3", "n2", "n1", "n0"], vnodes=8)  # order-insensitive
    for key in ("alpha", "beta", "gamma"):
        owners = a.owners(key, 2)
        assert owners == b.owners(key, 2)
        assert len(owners) == len(set(owners)) == 2


def test_ring_minimal_movement_on_join():
    before = HashRing([f"n{i}" for i in range(10)], vnodes=8)
    after = HashRing([f"n{i}" for i in range(11)], vnodes=8)
    keys = [f"key-{i}" for i in range(200)]
    moved = sum(1 for k in keys
                if before.owners(k, 1) != after.owners(k, 1)
                and after.owners(k, 1) == ["n10"])
    stayed = sum(1 for k in keys if before.owners(k, 1) == after.owners(k, 1))
    # Consistent hashing: roughly 1/11 of keys move, all to the joiner.
    assert stayed > 150
    assert 2 <= moved <= 60


def test_stable_hash_is_process_independent():
    # Pinned value: placement must agree across runs and machines (the
    # builtin hash() is salted per process and would not).
    assert stable_hash("tiamat") == 0xC508_E232_6827_C3CD
    assert stable_hash("a") != stable_hash("b")


# ---------------------------------------------------------------------------
# Shard map
# ---------------------------------------------------------------------------
def test_shard_map_merge_converges_and_digest_tracks_names():
    left, right = ShardMap(), ShardMap()
    left.renew("a", 10.0)
    left.renew("b", 12.0)
    right.renew("b", 15.0)
    right.renew("c", 9.0)
    left.merge(right.to_payload())
    right.merge(left.to_payload())
    assert left.members == right.members == {"a": 10.0, "b": 15.0, "c": 9.0}
    assert left.digest(0.0) == right.digest(0.0)
    # The digest covers live *names*, not expiries: a renewal that keeps
    # the same membership must not change it (it piggybacks on every
    # frame, so expiry-sensitivity would mean perpetual map pushes).
    before = left.digest(0.0)
    left.renew("a", 11.0)
    assert left.digest(0.0) == before
    # Losing a member does change it.
    assert left.digest(10.5) != before


# ---------------------------------------------------------------------------
# Routing integration
# ---------------------------------------------------------------------------
def test_ground_lookup_contacts_at_most_k_owners(sim):
    net, inst = build(sim, [f"n{i}" for i in range(8)])
    producer = inst["n0"]
    producer.out(Tuple("job", "key-a", 1))
    sim.run(until=1.0)
    # Pick a consumer that is not in the owner set, so the lookup must go
    # remote; it may contact at most the k=2 owners.
    owners = producer.fabric.map.ring(sim.now).owners(
        shard_key(Tuple("job", "key-a", 1), 2), 2)
    consumer = next(inst[n] for n in sorted(inst)
                    if n not in owners)
    op = consumer.in_(Pattern("job", "key-a", Formal(int)))
    sim.run(until=3.0)
    assert op.event.value == Tuple("job", "key-a", 1)
    assert len(op.contacted) <= 2
    assert set(op.contacted) <= set(owners)


def test_wildcard_first_pattern_scatters_bounded(sim, monkeypatch):
    monkeypatch.setattr(manager, "SCATTER_LIMIT", 4)
    net, inst = build(sim, [f"n{i}" for i in range(12)])
    sim.run(until=0.5)
    consumer = inst["n0"]
    peers = consumer.fabric.plan(Pattern(Formal(str), "x", Formal(int)))
    assert 0 < len(peers) <= 4
    # And a ground-prefix plan stays O(k), independent of population.
    routed = consumer.fabric.plan(Pattern("job", "key-z", Formal(int)))
    assert len(routed) <= 2


def test_routed_deposit_lands_at_owner(sim):
    net, inst = build(sim, ["a", "b", "c", "d"])
    sim.run(until=0.5)
    tup = Tuple("job", "route-me", 1)
    owners = inst["a"].fabric.map.ring(sim.now).owners(shard_key(tup, 2), 2)
    sender = next(inst[n] for n in sorted(inst) if n not in owners)
    sender.out(tup)
    sim.run(until=1.5)
    primary = inst[owners[0]]
    assert any(e.tuple == tup and not e.removed and not e.held
               for e in primary.space.store), "deposit did not reach owner"
    # The sender kept no copy.
    assert not any(e.tuple == tup and not e.removed
                   for e in sender.space.store)


def test_shard_map_skew_converges_via_piggybacked_digest(sim):
    net, inst = build(sim, ["a", "b", "c"])
    sim.run(until=0.5)
    # Inject skew: node c learns of a phantom member the others lack.
    inst["c"].fabric.map.renew("zz-phantom", sim.now + 5.0)
    inst["c"].fabric._next_lapse = 0.0
    assert inst["a"].fabric.digest() != inst["c"].fabric.digest()
    # Any ordinary frame exchange carries the digest; the mismatch
    # triggers a (rate-limited) full-map push and the maps converge.
    inst["a"].out(Tuple("job", "poke", 1))
    op = inst["c"].in_(Pattern("job", "poke", Formal(int)))
    sim.run(until=2.0)
    assert op.event.triggered
    assert inst["a"].fabric.map.is_live("zz-phantom", sim.now)
    assert inst["a"].fabric.digest() == inst["c"].fabric.digest()


def test_handoff_races_blocking_in(sim):
    """A blocked ``in`` survives its shard primary crashing mid-wait.

    The replica holder promotes its quarantined copy after the witness
    sync, the map-change subscription re-contacts the new owner, and the
    waiter gets the tuple exactly once.
    """
    net, inst = build(sim, ["a", "b", "c", "d", "e"])
    sim.run(until=0.3)
    tup = Tuple("job", "fail-over", 41)
    owners = inst["a"].fabric.map.ring(sim.now).owners(shard_key(tup, 2), 2)
    primary = owners[0]
    outsiders = [n for n in sorted(inst) if n not in owners]
    inst[outsiders[0]].out(tup)
    sim.run(until=0.8)
    # Issue the `in` and crash the primary in the same instant: the
    # consumer's query races the handoff — its frame to the primary is
    # lost with the crash, and only the promotion of the quarantined
    # replica (plus the map-change re-plan) can satisfy it.
    op = inst[outsiders[1]].in_(Pattern("job", "fail-over", Formal(int)))
    inst[primary].shutdown()
    assert not op.event.triggered
    sim.run(until=6.0)
    assert op.event.triggered, "blocked in never satisfied after handoff"
    assert op.event.value == tup
    # Exactly once: no copy of the tuple survives anywhere.
    for name, node in inst.items():
        if name == primary:
            continue
        assert not any(e.tuple == tup and not e.removed
                       for e in node.space.store), name


# ---------------------------------------------------------------------------
# Fabric-off passivity
# ---------------------------------------------------------------------------
def test_fabric_defaults_off():
    assert TiamatConfig().fabric is None
    with pytest.raises(ValueError):
        TiamatConfig(fabric="yes")  # type: ignore[arg-type]


def test_fabric_off_sends_no_fabric_frames_or_digests(sim):
    """Seeded baselines must be bit-identical with the fabric absent: no
    fabric frame kinds, no piggybacked digest key, no manager attached."""
    captured = []
    net, inst = build(sim, ["a", "b", "c"], fabric=False)
    orig = net.unicast

    def spy(src, dst, payload):
        captured.append(payload)
        return orig(src, dst, payload)

    net.unicast = spy
    assert all(node.fabric is None for node in inst.values())
    inst["a"].out(Tuple("job", "k", 1))
    op = inst["b"].in_(Pattern("job", "k", Formal(int)))
    sim.run(until=3.0)
    assert op.event.triggered
    kinds = {p.get("kind") for p in captured}
    assert not (kinds & protocol.FABRIC_KINDS)
    assert not any("fmd" in p for p in captured)
    by_kind = set()
    for node_stats in net.stats.nodes.values():
        by_kind |= set(node_stats.by_kind)
    assert not (by_kind & protocol.FABRIC_KINDS)


def test_fabric_churn_template_is_deterministic_and_clean():
    from repro.check.explorer import Perturbations, run_schedule

    hashes = set()
    for _ in range(2):
        outcome = run_schedule("fabric_churn", 23, Perturbations())
        assert not outcome.violations
        hashes.add(outcome.schedule_hash)
    assert len(hashes) == 1, "fabric_churn schedule not deterministic"
