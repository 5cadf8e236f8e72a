"""Tests for the protocol tracer."""

import pytest

from repro.core import TiamatInstance
from repro.net import Network, ProtocolTrace
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=61)


def test_trace_captures_protocol_flow(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net).attach()
    inst["a"].out(Tuple("x", 1))
    op = inst["b"].in_(Pattern("x", int))
    run_op(sim, op, until=5.0)
    kinds = [e.kind for e in trace.entries]
    assert "query" in kinds
    assert "query_reply" in kinds
    assert "claim_accept" in kinds


def test_trace_filter(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net, frame_filter=lambda m: m.kind == "query").attach()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rd(Pattern("x", int)), until=5.0)
    assert len(trace) > 0
    assert all(e.kind == "query" for e in trace.entries)


def test_trace_between_and_by_kind(sim):
    net, inst = build(sim, ["a", "b", "c"])
    trace = ProtocolTrace(net).attach()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rd(Pattern("x", int)), until=5.0)
    ab = trace.between("a", "b")
    assert ab and all({e.src, e.dst} == {"a", "b"} for e in ab)
    replies = trace.by_kind("query_reply")
    assert all(e.kind == "query_reply" for e in replies)


def test_trace_detach_stops_capture(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net).attach()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    captured = len(trace)
    assert captured > 0
    trace.detach()
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=10.0)
    assert len(trace) == captured


def test_trace_wraps_late_attached_nodes(sim):
    net = Network(sim)
    a = TiamatInstance(sim, net, "a")
    trace = ProtocolTrace(net).attach()
    b = TiamatInstance(sim, net, "b")  # attached after the tracer
    net.visibility.set_visible("a", "b")
    a.out(Tuple("x", 1))
    op = b.rdp(Pattern("x", int))
    sim.run(until=5.0)
    assert op.result is not None
    receivers = {e.dst for e in trace.entries}
    assert "b" in receivers and "a" in receivers
    trace.detach()


def test_trace_render_format(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net).attach()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    text = trace.render(limit=3)
    assert "->" in text
    assert len(text.splitlines()) <= 3


def test_trace_clear_and_cap(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net, max_entries=2).attach()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rd(Pattern("x", int)), until=5.0)
    assert len(trace) == 2  # capped
    trace.clear()
    assert len(trace) == 0


def test_trace_attach_idempotent(sim):
    net, inst = build(sim, ["a", "b"])
    trace = ProtocolTrace(net)
    trace.attach()
    trace.attach()  # must not double-wrap
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    queries = trace.by_kind("query")
    # One query sent -> captured exactly once, not twice.
    assert len(queries) == len({id(e) for e in queries})
    payload_ids = [(e.time, e.src, e.dst) for e in queries]
    assert len(payload_ids) == len(set(payload_ids))


def test_trace_leaves_the_network_unpatched(sim):
    net = Network(sim)
    seen = []
    net.attach("a", seen.append)
    trace = ProtocolTrace(net).attach()
    assert "attach" not in vars(net)  # still the class's bound method

    net.attach("b", seen.append)  # attached after the tracer
    net.visibility.set_visible("a", "b")
    net.unicast("a", "b", {"kind": "ping", "n": 1})
    sim.run(until=1.0)
    assert [(e.dst, e.payload["n"]) for e in trace.entries] == [("b", 1)]

    net.detach("b")  # crash ...
    net.attach("b", seen.append)  # ... and restart
    net.visibility.set_visible("a", "b")
    net.unicast("a", "b", {"kind": "ping", "n": 2})
    sim.run(until=2.0)
    # Once per frame: re-attaching neither loses nor doubles the capture.
    assert [(e.dst, e.payload["n"]) for e in trace.entries] == [("b", 1), ("b", 2)]
    assert [m.payload["n"] for m in seen] == [1, 2]
    trace.detach()
    assert not net._frame_listeners and not net._drop_listeners
