"""In-space cluster telemetry: leased health rows, collector, `repro top`.

The transport *is* the tuple space: each node deposits a
``("_telemetry", node, epoch, payload)`` row under a short lease, so a
dead node's rows are reclaimed by lease expiry with no reaper.  Covers
the publisher (sim + threaded runtimes), the health classifier, the
collector's freshest-epoch / expected-node semantics, and the skip-tag
plumbing that keeps health rows out of durable state and oracles.
"""

import json
import time

import pytest

from repro.core.config import TiamatConfig
from repro.core.instance import TiamatInstance
from repro.net.network import Network
from repro.obs import telemetry
from repro.obs.telemetry import (
    STALE_PERIODS,
    TELEMETRY_TAG,
    classify_node,
    collect_cluster_health,
    render_top,
)
from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode
from repro.sim.kernel import Simulator
from repro.tuples import Pattern, Tuple, matches


# ----------------------------------------------------------------------
# Classifier
# ----------------------------------------------------------------------
def test_classify_thresholds():
    fresh = 0.5
    assert classify_node({}, fresh, period=1.0) == "ok"
    assert classify_node({}, STALE_PERIODS + 0.5, period=1.0) == "partitioned"
    assert classify_node({"sheds_w": 1}, fresh, 1.0) == "overloaded"
    assert classify_node({"util": 0.9}, fresh, 1.0) == "overloaded"
    assert classify_node({"retx_w": 3}, fresh, 1.0) == "degraded"
    assert classify_node({"rexp_w": 1}, fresh, 1.0) == "degraded"
    assert classify_node({"ops_w": 4, "unsat_w": 3}, fresh, 1.0) == "degraded"
    assert classify_node({"pending": 9}, fresh, 1.0) == "degraded"
    # Staleness outranks load: a cut-off node's last row may look busy.
    assert classify_node({"sheds_w": 5}, 10.0, 1.0) == "partitioned"
    assert classify_node({"ops_w": 10, "unsat_w": 2, "retx_w": 1},
                         fresh, 1.0) == "ok"


# ----------------------------------------------------------------------
# Collector semantics
# ----------------------------------------------------------------------
class _FakeSpace:
    def __init__(self, *tuples):
        self._tuples = list(tuples)

    def snapshot(self, pattern=None):
        return [t for t in self._tuples if pattern is None or matches(pattern, t)]


def _row(node, epoch, **payload):
    payload.setdefault("t", 0.0)
    return Tuple(TELEMETRY_TAG, node, epoch,
                 json.dumps(payload, sort_keys=True))


def test_collector_keeps_freshest_epoch_across_spaces():
    spaces = [
        _FakeSpace(_row("a", 3, ops_w=1), Tuple("app", 1)),
        _FakeSpace(_row("a", 7, ops_w=9), _row("b", 2)),
    ]
    health = collect_cluster_health(spaces, now=0.5, period=1.0)
    assert set(health) == {"a", "b"}
    assert health["a"].epoch == 7
    assert health["a"].payload["ops_w"] == 9
    assert health["a"].status == "ok"


def test_collector_reports_expected_but_absent_as_partitioned():
    health = collect_cluster_health([_FakeSpace(_row("a", 1))], now=0.5,
                                    period=1.0, expected=["a", "ghost"])
    assert health["a"].status == "ok"
    assert health["ghost"].status == "partitioned"
    assert health["ghost"].epoch is None and health["ghost"].age is None


def test_collector_ignores_malformed_rows():
    spaces = [_FakeSpace(
        Tuple(TELEMETRY_TAG, "a", 1, "{not json"),
        Tuple(TELEMETRY_TAG, 42, 1, "{}"),           # non-string node
        Tuple(TELEMETRY_TAG, "b", True, "{}"),       # a bool is not an epoch
        Tuple(TELEMETRY_TAG, "c", 1, b"{}"),         # bytes payload
        Tuple(TELEMETRY_TAG, "short"),               # wrong arity
    )]
    health = collect_cluster_health(spaces, now=0.0, period=1.0)
    # The unparsable-payload row still counts (empty payload, ok).
    assert set(health) == {"a"}
    assert health["a"].payload == {}


def test_render_top_table():
    health = collect_cluster_health(
        [_FakeSpace(_row("a", 4, ops_w=12), _row("b", 2, sheds_w=1))],
        now=0.5, period=1.0, expected=["a", "b", "c"])
    text = render_top(health, now=0.5, title="unit")
    assert "NODE" in text and "STATUS" in text
    for node in ("a", "b", "c"):
        assert f"\n{node} " in text or f"\n{node}  " in text
    assert "overloaded" in text and "partitioned" in text
    assert text.splitlines()[-1].startswith("health: ")
    assert "1 ok" in text.splitlines()[-1]


# ----------------------------------------------------------------------
# Sim runtime: opt-in publisher, lease-reclaimed rows
# ----------------------------------------------------------------------
@pytest.fixture()
def fast_beat(monkeypatch):
    """Beat every 0.5 s with a 1.25 s row lease (2.5 periods, as shipped)."""
    monkeypatch.setattr(telemetry, "TELEMETRY_PERIOD", 0.5)
    monkeypatch.setattr(telemetry, "TELEMETRY_LEASE", 1.25)
    return monkeypatch


def _telemetry_world():
    sim = Simulator(seed=9)
    net = Network(sim)
    config = TiamatConfig(telemetry_enabled=True)
    a = TiamatInstance(sim, net, "a", config=config)
    b = TiamatInstance(sim, net, "b", config=config)
    net.visibility.set_visible("a", "b")
    return sim, net, a, b


def test_publisher_deposits_leased_rows(fast_beat):
    sim, net, a, b = _telemetry_world()
    a.out(Tuple("app", 1))
    sim.run(until=2.1)
    rows = [t for t in a.space.snapshot()
            if t.fields[0] == TELEMETRY_TAG]
    assert rows, "publisher deposited no telemetry rows"
    assert a._telemetry.epoch >= 3
    payload = json.loads(rows[-1].fields[3])
    for key in ("ops_w", "unsat_w", "sheds_w", "retx_w", "rexp_w",
                "t", "resident", "pending"):
        assert key in payload
    # resident counts the app tuple alongside live health rows
    assert payload["resident"] >= 1

    health = collect_cluster_health([a.space, b.space], now=sim.now,
                                    period=0.5, expected=["a", "b"])
    assert health["a"].status == "ok" and health["b"].status == "ok"


def test_telemetry_is_off_by_default():
    sim = Simulator(seed=1)
    net = Network(sim)
    inst = TiamatInstance(sim, net, "solo")
    sim.run(until=5.0)
    assert inst._telemetry is None
    assert all(t.fields[0] != TELEMETRY_TAG for t in inst.space.snapshot())


def test_lease_expiry_reclaims_dead_node_rows(fast_beat):
    """A dead publisher's rows age out of the space with no reaper."""
    sim, net, a, b = _telemetry_world()
    sim.run(until=2.1)
    assert any(t.fields[0] == TELEMETRY_TAG for t in b.space.snapshot())

    b._telemetry.stop()                    # "b" dies: stops renewing
    sim.run(until=sim.now + 5.0)           # well past the 1.25s lease

    assert all(t.fields[0] != TELEMETRY_TAG for t in b.space.snapshot())
    health = collect_cluster_health([a.space, b.space], now=sim.now,
                                    period=0.5, expected=["a", "b"])
    assert health["a"].status == "ok"
    assert health["b"].status == "partitioned"
    assert health["b"].epoch is None       # reclaimed, not merely stale


def test_epochs_strictly_increase(fast_beat):
    fast_beat.setattr(telemetry, "TELEMETRY_LEASE", 5.0)
    sim, net, a, b = _telemetry_world()
    sim.run(until=2.1)
    rows = [t for t in a.space.snapshot() if t.fields[0] == TELEMETRY_TAG]
    epochs = [t.fields[2] for t in rows]
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)


# ----------------------------------------------------------------------
# Skip-tag plumbing: health rows are not application state
# ----------------------------------------------------------------------
def test_persistence_snapshot_skips_telemetry_rows(fast_beat):
    from repro.tuples.storage import MemoryBackend, attach_backend

    sim, net, a, b = _telemetry_world()
    a.out(Tuple("app", 1))
    sim.run(until=2.1)
    image = attach_backend(a.space, MemoryBackend()).recover()
    assert [tup.fields[0] for _, tup, _ in image.entries] == ["app"]


def test_exactly_once_oracle_skips_telemetry():
    from repro.check.oracles import ExactlyOnceOracle, InvariantMonitor

    monitor = InvariantMonitor(oracles=[ExactlyOnceOracle()],
                               stop_on_violation=False)
    # Telemetry rows are reclaimed by expiry without a matching take —
    # and here even an unmatched take is ignored.
    row = Tuple(TELEMETRY_TAG, "a", 1, "{}")
    monitor("a", 0.0, "take", None, None, None, row)
    assert monitor.violations == []
    # An application tuple taken without a deposit still trips it.
    monitor("a", 0.0, "take", None, None, None, Tuple("app", 1))
    assert len(monitor.violations) == 1
    assert monitor.violations[0].oracle == "exactly_once"


# ----------------------------------------------------------------------
# Threaded runtime
# ----------------------------------------------------------------------
def test_threaded_publish_and_cluster_health():
    registry = ThreadedNodeRegistry()
    a = ThreadedTiamatNode(registry, "a")
    b = ThreadedTiamatNode(registry, "b")
    registry.set_visible("a", "b")
    a.out(Tuple("job", 1))
    assert a.inp(Pattern("job", int)) is not None

    a.publish_telemetry(lease_duration=30.0)
    b.publish_telemetry(lease_duration=0.05)   # will expire below
    a.publish_telemetry(lease_duration=30.0)   # second epoch

    health = registry.cluster_health(period=1.0)
    assert health["a"].status == "ok"
    assert health["a"].epoch == 2
    assert health["a"].payload["ops_w"] >= 0

    time.sleep(0.15)                           # b's lease expires
    health = registry.cluster_health(period=1.0)
    assert health["b"].status == "partitioned"
    assert health["b"].epoch is None
    assert health["a"].status == "ok"


def test_threaded_periodic_publisher_thread():
    registry = ThreadedNodeRegistry()
    a = ThreadedTiamatNode(registry, "a")
    a.start_telemetry(period=0.02, lease_duration=30.0)
    try:
        deadline = time.monotonic() + 2.0
        while a.telemetry_published < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        a.stop_telemetry()
    assert a.telemetry_published >= 3
    published = a.telemetry_published
    time.sleep(0.1)                            # stopped: no more beats
    assert a.telemetry_published == published
    assert registry.cluster_health(period=0.02)["a"].epoch >= 3
