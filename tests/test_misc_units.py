"""Small-unit coverage: stats, messages, errors, instance edge paths."""


from repro.core import SpaceHandle, TiamatInstance
from repro.errors import (
    LeaseError,
    LeaseRefusedError,
    NetworkError,
    OperationError,
    ProcessInterrupt,
    ReproError,
    SimulationError,
    TupleError,
)
from repro.net import Network
from repro.net.message import Message
from repro.net.stats import NetworkStats, NodeStats
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------
def test_error_hierarchy():
    assert issubclass(LeaseError, ReproError)
    assert issubclass(LeaseRefusedError, LeaseError)
    assert issubclass(TupleError, ReproError)
    assert issubclass(NetworkError, ReproError)
    assert issubclass(OperationError, ReproError)
    assert issubclass(SimulationError, ReproError)


def test_process_interrupt_carries_cause():
    interrupt = ProcessInterrupt("battery died")
    assert interrupt.cause == "battery died"
    assert ProcessInterrupt().cause is None


# ---------------------------------------------------------------------------
# Message / stats
# ---------------------------------------------------------------------------
def test_message_kind_and_multicast_flag():
    msg = Message("a", None, {"kind": "discover"}, sent_at=1.0)
    assert msg.kind == "discover" and msg.is_multicast
    msg2 = Message("a", "b", {"no-kind": 1}, sent_at=2.0)
    assert msg2.kind == "?" and not msg2.is_multicast
    assert msg2.size > 0


def test_node_stats_as_dict_and_sent():
    stats = NodeStats()
    stats.sent_unicast = 3
    stats.sent_multicast = 2
    assert stats.sent == 5
    d = stats.as_dict()
    assert d["sent_unicast"] == 3 and d["sent_multicast"] == 2


def test_network_stats_reset():
    stats = NetworkStats()
    stats.record_send("a", 100, multicast=False, kind="q")
    stats.record_receive("b", 100)
    stats.record_drop("a", "invisible")
    assert stats.total_messages == 1 and stats.total_dropped == 1
    stats.reset()
    assert stats.total_messages == 0
    assert stats.nodes == {}


# ---------------------------------------------------------------------------
# Instance edge paths
# ---------------------------------------------------------------------------
def test_remote_out_duration_is_capped_by_target_default():
    sim = Simulator(seed=51)
    net, inst = build(sim, ["a", "b"])
    event = inst["a"].out_at(SpaceHandle("b"), Tuple("short-lived"),
                             duration=5.0)
    sim.run(until=2.0)
    assert event.value is True
    assert inst["b"].space.count(Pattern("short-lived")) == 1
    sim.run(until=10.0)
    # The 5s duration requested by the origin was honoured at the target.
    assert inst["b"].space.count(Pattern("short-lived")) == 0


def test_relay_does_not_loop_back_through_visited():
    """RELAY_OUT's visited set prevents ping-pong between two relays."""
    sim = Simulator(seed=52)
    net, inst = build(sim, ["src", "r1", "r2"], clique=False)
    net.visibility.set_visible("src", "r1")
    net.visibility.set_visible("r1", "r2")
    # dst does not exist: the tuple must die by ttl/visited, not loop.
    from repro.core import UnavailablePolicy

    how = inst["src"].out_back("ghost-dst", Tuple("r"),
                               policy=UnavailablePolicy.ROUTE)
    assert how == "routed"
    sim.run(until=30.0)
    total_forwards = sum(inst[n].relays_forwarded for n in ("r1", "r2"))
    total_drops = sum(inst[n].relays_dropped for n in ("r1", "r2"))
    assert total_drops >= 1
    assert total_forwards <= 2  # no ping-pong amplification


def test_unknown_message_kind_is_ignored():
    sim = Simulator(seed=53)
    net, inst = build(sim, ["a", "b"])
    net.unicast("a", "b", {"kind": "from-the-future", "x": 1})
    sim.run(until=5.0)  # no exception, instance still works
    inst["b"].out(Tuple("fine"))
    op = inst["b"].rdp(Pattern("fine"))
    assert run_op(sim, op, until=10.0) is not None


def test_eval_with_zero_compute_time():
    sim = Simulator(seed=54)
    net, inst = build(sim, ["a"])
    task = inst["a"].eval(lambda: Tuple("instant"))
    sim.run(until=1.0)
    assert task.result == Tuple("instant")


def test_out_at_handle_equality_semantics():
    assert SpaceHandle("x") == SpaceHandle("x", persistent=True)
    assert SpaceHandle("x") != SpaceHandle("y")
    assert len({SpaceHandle("x"), SpaceHandle("x")}) == 1


def test_instance_repr_and_handle():
    sim = Simulator(seed=55)
    net = Network(sim)
    inst = TiamatInstance(sim, net, "named")
    assert inst.handle().instance_name == "named"
    assert "named" in repr(inst)
