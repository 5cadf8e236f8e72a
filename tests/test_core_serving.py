"""Tests for the serving side: claims, timeouts, cancels, and races."""

import copy

import pytest

from repro.core import TiamatConfig, TiamatInstance
from repro.core import config as core_config
from repro.core import protocol, serving
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple, decode_pattern, encode_pattern

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=17)


def send_query(sim, net, origin_name, target, op, pattern, op_id="fake#1",
               deadline=30.0):
    """Inject a raw QUERY frame as if ``origin_name`` had sent it."""
    net.unicast(origin_name, target, {
        "kind": protocol.QUERY, "op_id": op_id, "op": op,
        "pattern": encode_pattern(pattern), "deadline": deadline,
    })


def mute_node(net, name):
    """Attach a raw node that never reacts (a dead or byzantine origin)."""
    inbox = []
    net.attach(name, inbox.append)
    return inbox


def test_claim_timeout_puts_tuple_back(sim):
    """If the origin vanishes after an offer, the hold is released."""
    config = TiamatConfig(claim_timeout=2.0)
    net, inst = build(sim, ["server"], config=config, clique=False)
    mute_node(net, "ghost")
    net.visibility.set_visible("server", "ghost")
    inst["server"].out(Tuple("prize"))
    # ghost sends a destructive query and never claims the offer.
    send_query(sim, net, "ghost", "server", "in", Pattern("prize"))
    sim.run(until=0.5)
    assert inst["server"].space.rdp(Pattern("prize")) is None  # held
    sim.run(until=5.0)
    # Claim timeout elapsed: tuple back in the space, serving closed.
    assert inst["server"].space.rdp(Pattern("prize")) == Tuple("prize")
    assert inst["server"].server.offers_put_back == 1
    assert inst["server"].server.active_servings == 0


def test_cancel_releases_held_tuple(sim):
    net, inst = build(sim, ["server", "origin"])
    inst["server"].out(Tuple("prize"))
    send_query(sim, net, "origin", "server", "in", Pattern("prize"))
    sim.run(until=0.5)
    net.unicast("origin", "server", {"kind": protocol.CANCEL, "op_id": "fake#1"})
    sim.run(until=1.0)
    assert inst["server"].space.rdp(Pattern("prize")) == Tuple("prize")
    assert inst["server"].server.active_servings == 0


def test_cancel_for_unknown_op_is_ignored(sim):
    net, inst = build(sim, ["server", "origin"])
    net.unicast("origin", "server", {"kind": protocol.CANCEL,
                                     "op_id": "never-existed"})
    sim.run(until=1.0)
    assert inst["server"].server.active_servings == 0


def test_claim_for_wrong_entry_is_ignored(sim):
    net, inst = build(sim, ["server"], clique=False)
    mute_node(net, "origin")
    net.visibility.set_visible("server", "origin")
    inst["server"].out(Tuple("prize"))
    send_query(sim, net, "origin", "server", "in", Pattern("prize"))
    sim.run(until=0.5)
    net.unicast("origin", "server", {"kind": protocol.CLAIM_ACCEPT,
                                     "op_id": "fake#1", "entry_id": 424242})
    sim.run(until=1.0)
    # Wrong entry id: the hold stands until the claim timeout.
    assert inst["server"].server.active_servings == 1


def test_blocking_serving_rewatches_after_local_consumption(sim):
    """A match consumed locally before the hold re-arms the remote watch."""
    net, inst = build(sim, ["server", "origin"])
    op = inst["origin"].in_(Pattern("contested"),
                            requester=SimpleLeaseRequester(LeaseTerms(20.0, 8)))
    sim.run(until=1.0)
    # Local application grabs the tuple in the same instant it appears;
    # because local space waiters are FIFO and the serving watch is already
    # registered, emulate by depositing then immediately taking locally.
    inst["server"].out(Tuple("contested"))
    # The serving's watch fires; it holds and offers to origin -> origin
    # gets it.  Then a second tuple arrives for the local consumer.
    result = run_op(sim, op, until=10.0)
    assert result == Tuple("contested")


def test_serving_lease_expiry_withdraws_watch(sim, monkeypatch):
    monkeypatch.setattr(serving, "SERVE_MAX_DURATION", 3.0)
    net, inst = build(sim, ["server", "origin"])
    # A long origin lease, but the server only grants itself 3s of effort.
    op = inst["origin"].in_(Pattern("never"),
                            requester=SimpleLeaseRequester(LeaseTerms(60.0, 8)))
    sim.run(until=1.0)
    assert inst["server"].server.active_servings == 1
    sim.run(until=6.0)
    assert inst["server"].server.active_servings == 0
    # The origin op is still open (its own lease is 60s).
    assert not op.done


def test_query_refused_counts_and_replies(sim):
    from repro.leasing import DenyAllPolicy

    net = Network(sim)
    server = TiamatInstance(sim, net, "server", policy=DenyAllPolicy())
    origin = TiamatInstance(sim, net, "origin")
    net.visibility.set_visible("server", "origin")
    origin.out = origin.out  # noqa: using real API below
    op = origin.rdp(Pattern("x"))
    sim.run(until=5.0)
    assert op.done and op.result is None
    assert server.server.refused >= 1


def test_offer_statistics(sim):
    net, inst = build(sim, ["a", "b", "origin"])
    inst["a"].out(Tuple("item", 1))
    inst["b"].out(Tuple("item", 2))
    op = inst["origin"].in_(Pattern("item", int))
    run_op(sim, op, until=10.0)
    sim.run(until=20.0)
    offers = inst["a"].server.offers_made + inst["b"].server.offers_made
    won = inst["a"].server.offers_won + inst["b"].server.offers_won
    put_back = (inst["a"].server.offers_put_back
                + inst["b"].server.offers_put_back)
    assert offers == 2 and won == 1 and put_back == 1


def test_late_reply_to_finished_op_gets_rejected(sim, monkeypatch):
    """An offer landing after the op record is purged is rejected cleanly."""
    monkeypatch.setattr(core_config, "PEER_TIMEOUT", 0.2)
    config = TiamatConfig(claim_timeout=0.2)
    net, inst = build(sim, ["server", "origin"], config=config)
    op = inst["origin"].in_(Pattern("slowpoke"),
                            requester=SimpleLeaseRequester(LeaseTerms(1.0, 8)))
    sim.run(until=5.0)  # op expired and was purged from the registry
    assert op.done and op.result is None
    inst["server"].out(Tuple("slowpoke"))
    # Fake a stale offer for the purged op id.
    net.unicast("server", "origin", {
        "kind": protocol.QUERY_REPLY, "op_id": op.op_id, "found": True,
        "tuple": ["t", [["s", "slowpoke"]]], "entry_id": 999,
    })
    sim.run(until=10.0)
    # Origin sent a CLAIM_REJECT; server ignores it (no such serving).
    assert inst["origin"].ops_unsatisfied >= 1
    # A probe that misses locally and asks a peer lingers: an offer naming
    # it, during the linger or after the purge, is rejected all the same.
    tracer = sim.obs.start_trace()

    def rejects():
        return [e.op_id for e in tracer.events
                if e.event == "send" and e.kind == protocol.CLAIM_REJECT]

    probe = inst["origin"].inp(Pattern("absent"))
    while not probe.done:
        sim.step()
    assert probe.contacted == ["server"]
    offer = {"kind": protocol.QUERY_REPLY, "op_id": probe.op_id, "found": True,
             "tuple": ["t", [["s", "absent"]]], "entry_id": 998}
    net.unicast("server", "origin", offer)
    sim.run(until=sim.now + 0.1)
    assert probe.op_id in inst["origin"]._ops           # lingering
    assert rejects() == [probe.op_id]
    sim.run(until=sim.now + 1.0)
    assert probe.op_id not in inst["origin"]._ops       # purged
    net.unicast("server", "origin", offer)
    sim.run(until=sim.now + 1.0)
    assert rejects() == [probe.op_id] * 2


def test_rd_serving_sends_copy_and_closes(sim):
    net, inst = build(sim, ["server", "origin"])
    inst["server"].out(Tuple("doc", 1))
    op = inst["origin"].rd(Pattern("doc", int))
    assert run_op(sim, op, until=5.0) == Tuple("doc", 1)
    sim.run(until=10.0)
    assert inst["server"].server.active_servings == 0
    assert inst["server"].space.count(Pattern("doc", int)) == 1  # copy only


def test_thread_pool_exhaustion_refuses_serving(sim):
    """Serving work is allocated through the thread factory (3.1.1)."""
    from repro.core import TiamatInstance
    from repro.tuples import Tuple as T

    net = Network(sim)
    server = TiamatInstance(sim, net, "server", thread_capacity=2)
    origins = [TiamatInstance(sim, net, f"o{i}") for i in range(3)]
    for origin in origins:
        net.visibility.set_visible("server", origin.name)
    # Three concurrent blocking queries: only two worker threads exist.
    ops = [origin.in_(Pattern("scarce"),
                      requester=SimpleLeaseRequester(LeaseTerms(10.0, 4)))
           for origin in origins]
    sim.run(until=2.0)
    assert server.server.active_servings == 2
    assert server.server.refused == 1
    assert server.leases.threads.in_use == 2
    sim.run(until=30.0)
    # After the leases expire, every thread goes back to the pool.
    assert server.leases.threads.in_use == 0


def test_thread_tokens_released_after_probe(sim):
    from repro.core import TiamatInstance
    from repro.tuples import Tuple as T

    net = Network(sim)
    server = TiamatInstance(sim, net, "server", thread_capacity=1)
    origin = TiamatInstance(sim, net, "origin")
    net.visibility.set_visible("server", "origin")
    server.out(T("x", 1))
    for _ in range(3):  # sequential probes reuse the single thread
        op = origin.rdp(Pattern("x", int))
        run_op(sim, op, until=sim.now + 5.0)
        assert op.result is not None
    assert server.leases.threads.in_use == 0


# ----------------------------------------------------------------------
# What a served QUERY reuses: the serving-lease requester and the decode
# ----------------------------------------------------------------------
def _serving_durations(sim, deadlines):
    """Serve one blocking QUERY per deadline; each serving lease's duration."""
    net, inst = build(sim, ["server"], clique=False)
    mute_node(net, "ghost")
    net.visibility.set_visible("server", "ghost")
    for i, deadline in enumerate(deadlines):
        send_query(sim, net, "ghost", "server", "rd", Pattern("never", i),
                   op_id=f"ghost#{i}", deadline=deadline)
    sim.run(until=0.5)
    servings = inst["server"].server._servings
    return [servings[f"ghost#{i}"].lease.terms.duration
            for i in range(len(deadlines))]


def test_each_serving_lease_follows_its_querys_deadline(sim):
    """A reused requester must not carry one QUERY's duration to the next."""
    cap = serving.SERVE_MAX_DURATION
    deadlines = [12.5, 30.0, 30.0, 2 * cap, 12.5, None, 7.0, cap]
    assert _serving_durations(sim, deadlines) == [
        12.5, 30.0, 30.0, cap, 12.5, cap, 7.0, cap]


def test_a_served_pattern_is_the_decode_of_its_wire_form(sim):
    """Peers share one decoded pattern per wire list, and only per list:
    a list sent once and dropped is never mistaken for a later one."""
    net, inst = build(sim, ["origin", "a", "b"], clique=False)
    for peer in "ab":
        net.visibility.set_visible("origin", peer)
    wires = {}
    specs = [encode_pattern(Pattern("job", i % 7, str if i % 2 else int))[1]
             for i in range(40)]
    for i in range(40):
        # A fresh list each time, often at the address of the last one.
        wire = ["p", specs[i]]
        for peer in "ab":     # both peers read the same list, as in a fan-out
            net.unicast("origin", peer, {
                "kind": protocol.QUERY, "op_id": f"origin#{i}", "op": "rd",
                "pattern": wire, "deadline": 30.0})
        wires[f"origin#{i}"] = decode_pattern(copy.deepcopy(wire))
        del wire
        sim.run(until=sim.now + 0.1)
    for peer in "ab":
        servings = inst[peer].server._servings
        assert {op_id: s.pattern for op_id, s in servings.items()} == wires


def test_receivers_only_read_a_querys_payload(sim, monkeypatch):
    """The shared wire list and the decode memo rely on it: no receiver
    changes a frame's payload, for ``rd``, ``in`` and their cancels."""
    net, inst = build(sim, ["origin"] + [f"p{i}" for i in range(4)])
    sent = []
    real = Network.unicast
    monkeypatch.setattr(Network, "unicast", lambda self, src, dst, payload: (
        sent.append((payload, copy.deepcopy(payload)))
        or real(self, src, dst, payload)))
    inst["p2"].out(Tuple("job", 1, "x"))
    for call in (inst["origin"].rd, inst["origin"].in_):
        assert run_op(sim, call(Pattern("job", 1, str)),
                      until=sim.now + 5.0) == Tuple("job", 1, "x")
    kinds = {payload["kind"] for payload, _ in sent}
    assert {protocol.QUERY, protocol.CANCEL, protocol.CLAIM_ACCEPT} <= kinds
    assert all(payload == before for payload, before in sent)

