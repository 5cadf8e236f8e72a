"""The tracer's frame capture: it reads the flight recorder's stream."""

import pytest

from repro.core import TiamatInstance
from repro.net import Network
from repro.net.faults import FaultPlan, OneWayLink
from repro.net.stats import DROP_FAULT
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


@pytest.fixture()
def sim():
    return Simulator(seed=61)


def _frames(tracer, phase="deliver"):
    return [e for e in tracer.events if e.event == phase]


def test_trace_captures_protocol_flow(sim):
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    op = inst["b"].in_(Pattern("x", int))
    run_op(sim, op, until=5.0)
    kinds = [e.kind for e in _frames(tracer)]
    assert "query" in kinds
    assert "query_reply" in kinds
    assert "claim_accept" in kinds


def test_trace_between_and_by_kind(sim):
    net, inst = build(sim, ["a", "b", "c"])
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    op = inst["b"].rd(Pattern("x", int))
    run_op(sim, op, until=5.0)
    # Everything b's rd exchanged with a sits in a's span of the tree.
    (span,) = [p for p in tracer.span_tree(op.op_id)["peers"]
               if p["peer"] == "a"]
    frames = [e for e in span["events"] if e["event"] == "deliver"]
    assert frames and all({e["node"], e["peer"]} == {"a", "b"}
                          for e in frames)
    replies = [e for e in _frames(tracer) if e.kind == "query_reply"]
    assert replies and all(e.node == "b" and e.peer == "a" for e in replies)


def test_trace_detach_stops_capture(sim):
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    captured = len(tracer)
    assert captured > 0
    assert sim.obs.stop_trace() is tracer
    assert sim.obs.flight.tap is None
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=10.0)
    assert len(tracer) == captured


def test_trace_wraps_late_attached_nodes(sim):
    net = Network(sim)
    a = TiamatInstance(sim, net, "a")
    tracer = sim.obs.start_trace()
    b = TiamatInstance(sim, net, "b")  # attached after the tracer
    net.visibility.set_visible("a", "b")
    a.out(Tuple("x", 1))
    op = b.rdp(Pattern("x", int))
    sim.run(until=5.0)
    assert op.result is not None
    receivers = {e.node for e in _frames(tracer)}
    assert "b" in receivers and "a" in receivers
    assert any(e.event == "op_start" and e.node == "b"
               for e in tracer.events)


def test_trace_render_format(sim):
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    lines = tracer.timeline().splitlines()
    # One line per delivered frame, time first, src → dst, kind.
    assert len(lines) == len(_frames(tracer)) > 0
    first = _frames(tracer)[0]
    assert lines[0].startswith(f"t={first.time:.6f} ")
    assert f"{first.peer}→{first.node}" in lines[0]
    assert first.kind in lines[0]


def test_trace_clear_and_cap(sim):
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace(max_events=2)
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rd(Pattern("x", int)), until=5.0)
    assert len(tracer) == 2  # capped
    assert tracer.truncated > 0
    # A fresh trace is the way to clear one.
    sim.obs.stop_trace()
    assert len(sim.obs.start_trace()) == 0


def test_trace_attach_idempotent(sim):
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace()
    assert sim.obs.start_trace() is tracer  # must not install a second tap
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["b"].rdp(Pattern("x", int)), until=5.0)
    queries = [e for e in _frames(tracer) if e.kind == "query"]
    # One query sent -> captured exactly once, not twice.
    assert len(queries) == 1
    sends = [e for e in _frames(tracer, "send") if e.kind == "query"]
    assert len(sends) == 1


def test_trace_leaves_the_network_unpatched(sim):
    net = Network(sim)
    seen = []
    net.attach("a", seen.append)
    tracer = sim.obs.start_trace()
    assert "attach" not in vars(net)  # still the class's bound method

    net.attach("b", seen.append)  # attached after the tracer
    net.visibility.set_visible("a", "b")
    net.unicast("a", "b", {"kind": "ping", "n": 1})
    sim.run(until=1.0)
    assert [(e.node, e.kind) for e in _frames(tracer)] == [("b", "ping")]

    net.detach("b")  # crash ...
    net.attach("b", seen.append)  # ... and restart
    net.visibility.set_visible("a", "b")
    net.unicast("a", "b", {"kind": "ping", "n": 2})
    sim.run(until=2.0)
    # Once per frame: re-attaching neither loses nor doubles the capture.
    assert [e.node for e in _frames(tracer)] == ["b", "b"]
    assert [m.payload["n"] for m in seen] == [1, 2]
    sim.obs.stop_trace()
    assert sim.obs.flight.tap is None


def test_trace_drop_carries_its_reason(sim):
    net, inst = build(sim, ["a", "b"])
    net.use_faults(FaultPlan([OneWayLink("b", "a", kinds=frozenset({"query"}))]))
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    op = inst["b"].rdp(Pattern("x", int))
    sim.run(until=5.0)
    drops = tracer.drops_for(op.op_id)
    assert drops, "the one-way link dropped nothing of b's probe"
    assert all(e.detail["reason"] == DROP_FAULT and e.node == "b"
               for e in drops)
    assert "reason=fault" in tracer.waterfall(op.op_id)
