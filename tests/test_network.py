"""Unit tests for the simulated network (delivery, loss, stats)."""

import pytest

from repro.errors import SerializationError, UnknownNodeError
from repro.net import CorruptPayload, DuplicateFrames, FaultPlan, Network
from repro.net import message
from repro.net.message import Message
from repro.net.stats import DROP_CORRUPT
from repro.sim import Simulator
from repro.tuples.serialization import encoded_size


@pytest.fixture()
def sim():
    return Simulator(seed=5)


def make_pair(sim, network=None, visible=True):
    net = network if network is not None else Network(sim)
    inbox_a, inbox_b = [], []
    a = net.attach("a", inbox_a.append)
    b = net.attach("b", inbox_b.append)
    if visible:
        net.visibility.set_visible("a", "b")
    return net, a, b, inbox_a, inbox_b


def test_unicast_delivers_payload(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    assert a.unicast("b", {"kind": "hello", "n": 1})
    sim.run()
    assert len(inbox_b) == 1
    msg = inbox_b[0]
    assert msg.payload == {"kind": "hello", "n": 1}
    assert msg.src == "a" and msg.dst == "b" and msg.kind == "hello"


def test_unicast_has_latency(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    a.unicast("b", {"kind": "x"})
    assert inbox_b == []  # not synchronous
    sim.run()
    assert len(inbox_b) == 1
    assert sim.now > 0.0


def test_unicast_to_invisible_node_is_dropped(sim):
    net, a, b, _, inbox_b = make_pair(sim, visible=False)
    assert not a.unicast("b", {"kind": "x"})
    sim.run()
    assert inbox_b == []
    assert net.stats.node("a").dropped_invisible == 1


def test_unicast_from_unattached_raises(sim):
    net = Network(sim)
    with pytest.raises(UnknownNodeError):
        net.unicast("ghost", "b", {"kind": "x"})


def test_double_attach_rejected(sim):
    net = Network(sim)
    net.attach("a", lambda m: None)
    with pytest.raises(UnknownNodeError):
        net.attach("a", lambda m: None)


def test_frame_in_flight_survives_visibility_loss(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    a.unicast("b", {"kind": "x"})
    net.visibility.set_visible("a", "b", False)  # separate mid-flight
    sim.run()
    assert len(inbox_b) == 1


def test_frame_dropped_if_destination_down_at_delivery(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    a.unicast("b", {"kind": "x"})
    net.visibility.set_up("b", False)
    sim.run()
    assert inbox_b == []


def test_multicast_reaches_all_visible_neighbors(sim):
    net = Network(sim)
    inboxes = {name: [] for name in "abcd"}
    for name in "abcd":
        net.attach(name, inboxes[name].append)
    net.visibility.connect_clique(["a", "b", "c"])  # d not visible
    count = net.multicast("a", {"kind": "discover"})
    sim.run()
    assert count == 2
    assert len(inboxes["b"]) == 1 and len(inboxes["c"]) == 1
    assert inboxes["d"] == [] and inboxes["a"] == []


def test_multicast_with_no_neighbors(sim):
    net = Network(sim)
    net.attach("lonely", lambda m: None)
    assert net.multicast("lonely", {"kind": "discover"}) == 0


def test_loss_rate_drops_messages(sim):
    net = Network(sim, loss_rate=0.5)
    received = []
    net.attach("a", lambda m: None)
    net.attach("b", received.append)
    net.visibility.set_visible("a", "b")
    for _ in range(200):
        net.unicast("a", "b", {"kind": "x"})
    sim.run()
    assert 40 < len(received) < 160  # about half, with slack
    assert net.stats.node("a").dropped_loss == 200 - len(received)


def test_zero_loss_delivers_everything(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    for _ in range(50):
        a.unicast("b", {"kind": "x"})
    sim.run()
    assert len(inbox_b) == 50


def test_detach_stops_delivery(sim):
    net, a, b, _, inbox_b = make_pair(sim)
    net.detach("b")
    assert not a.unicast("b", {"kind": "x"})
    sim.run()
    assert inbox_b == []


def test_stats_accounting(sim):
    net, a, b, _, _ = make_pair(sim)
    a.unicast("b", {"kind": "q", "body": "x" * 100})
    sim.run()
    sa, sb = net.stats.node("a"), net.stats.node("b")
    assert sa.sent_unicast == 1 and sa.bytes_sent > 100
    assert sb.received == 1 and sb.bytes_received == sa.bytes_sent
    assert sa.by_kind["q"] == 1
    assert net.stats.total_messages == 1


def test_stats_multicast_counts_one_transmission(sim):
    net = Network(sim)
    for name in "abc":
        net.attach(name, lambda m: None)
    net.visibility.connect_clique(["a", "b", "c"])
    net.multicast("a", {"kind": "discover"})
    assert net.stats.node("a").sent_multicast == 1
    assert net.stats.node("a").sent == 1


def test_interface_helpers(sim):
    net, a, b, _, _ = make_pair(sim)
    assert a.neighbors() == ["b"]
    assert a.is_visible("b")
    net.visibility.set_visible("a", "b", False)
    assert not a.is_visible("b")


def test_larger_messages_take_longer(sim, monkeypatch):
    # Disable jitter for a clean comparison.
    from repro.net import network
    from repro.net.network import default_latency

    monkeypatch.setattr(network, "LATENCY_JITTER", 0.0)

    arrivals = {}

    def handler(tag):
        return lambda m: arrivals.__setitem__(tag, sim.now)

    net = Network(sim, latency_factory=default_latency())
    net.attach("src", lambda m: None)
    net.attach("small", handler("small"))
    net.attach("big", handler("big"))
    net.visibility.connect_clique(["src", "small", "big"])
    net.unicast("src", "small", {"kind": "x"})
    net.unicast("src", "big", {"kind": "x", "body": "y" * 100_000})
    sim.run()
    assert arrivals["big"] > arrivals["small"]


# ----------------------------------------------------------------------
# Frame pricing: the size from one encoding (the equivalence
# with encoded_size is the Hypothesis test in test_codec_cross.py)
# ----------------------------------------------------------------------
PAYLOAD = {"kind": "query", "op_id": "a#1", "z": [1, 2.5, None], "a": {"k": True}}


@pytest.mark.parametrize("codec", [None, pytest.param(encoded_size, id="codec1")])
def test_raw_bytes_on_a_json_network_are_refused(codec):
    # both JSON pricings refuse raw bytes: the frame's own (None) and
    # encoded_size, which prices a payload before a frame is cut (the
    # case ids are the ones these cases had under the old codec table)
    payload = {"kind": "x", "blob": b"\x00raw"}
    with pytest.raises(SerializationError):
        if codec is None:
            Message("a", "b", payload, 0.0)
        else:
            codec(payload)


def test_copy_shares_pricing_but_not_damage():
    original = Message("a", None, PAYLOAD, 0.0)
    copy = original.copy_for("b", 1.0)
    assert (copy.dst, copy.sent_at) == ("b", 1.0)
    assert (copy.size, copy.payload) == (original.size, original.payload)
    assert copy.verify()
    copy.corrupt()
    assert not copy.verify()
    assert original.verify() and original.payload == PAYLOAD
    # a duplicate made of a damaged frame stays damaged: it carries the
    # payload the frame was sent with, not the garbled one
    assert not copy.copy_for("c", 2.0).verify()
    # ...which is why dispatch cuts every duplicate from the intact frame
    # before the verdict's damage lands on the copy it names
    sim = Simulator(seed=5)
    net, a, b, _, inbox_b = make_pair(sim, Network(sim))
    net.use_faults(FaultPlan([CorruptPayload(1.0), DuplicateFrames(1.0)]))
    a.unicast("b", PAYLOAD)
    sim.run()
    assert [m.payload for m in inbox_b] == [PAYLOAD]
    assert net.stats.drops_by_reason == {DROP_CORRUPT: 1}


def test_multicast_encodes_the_payload_once(sim, monkeypatch):
    net = Network(sim)
    inboxes = {name: [] for name in "abcdefghi"}
    for name, inbox in inboxes.items():
        net.attach(name, inbox.append)
    net.visibility.connect_clique(list(inboxes))
    encodes = []
    real = message._encode
    monkeypatch.setattr(message, "_encode",
                        lambda *a: encodes.append(a) or real(*a))
    assert net.multicast("a", PAYLOAD) == 8
    assert len(encodes) == 1        # was 2 per frame: probe + 8 copies = 18
    monkeypatch.undo()
    sim.run()
    sizes = {m.size for name in "bcdefghi" for m in inboxes[name]}
    assert sizes == {encoded_size(PAYLOAD)}
