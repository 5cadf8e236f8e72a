"""SLO latency plane: histograms, exemplars, burn-rate breaches.

Also covers deterministic label ordering in metrics-registry snapshots.
"""

import json

import pytest

import repro
from repro.obs import slo
from repro.obs.flight import FlightRing
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    EXEMPLAR_SLOTS,
    EXEMPLAR_TRACE_EVENTS,
    MIN_WINDOW_SAMPLES,
    SLOObjective,
    SLOTracker,
)


class _Clock:
    """A hand-cranked clock: advances one tick per tracker record."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt=1.0):
        self.now += dt


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
def test_objective_validation_and_name():
    obj = SLOObjective("in", percentile=0.99, threshold=5.0, window=200.0)
    assert obj.name == "p99_in_lt_5"
    with pytest.raises(ValueError):
        SLOObjective("in", percentile=1.5, threshold=5.0, window=200.0)
    with pytest.raises(ValueError):
        SLOObjective("in", percentile=0.5, threshold=0.0, window=200.0)
    with pytest.raises(ValueError):
        SLOObjective("in", percentile=0.5, threshold=1.0, window=-1.0)


def test_latencies_land_in_registry_histogram():
    registry = MetricsRegistry()
    clock = _Clock()
    tracker = SLOTracker(clock, registry=registry)
    for latency in (0.01, 0.5, 2.0):
        tracker.record("in", latency, "a#1", "a")
        clock.tick()
    tracker.record("rd", 0.1, "a#2", "a")
    snap = registry.snapshot()
    family = snap["slo_op_latency_seconds"]
    assert family["kind"] == "histogram"
    by_kind = {s["labels"]["kind"]: s for s in family["samples"]}
    assert by_kind["in"]["count"] == 3
    assert by_kind["in"]["sum"] == pytest.approx(2.51)
    assert by_kind["rd"]["count"] == 1


# ----------------------------------------------------------------------
# Exemplars
# ----------------------------------------------------------------------
def test_exemplars_keep_slowest_first_and_cap_slots():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    for i, latency in enumerate([0.1, 0.9, 0.3, 0.7, 0.5, 0.2, 0.8, 0.4]):
        tracker.record("in", latency, f"a#{i}", "a")
        clock.tick()
    exemplars = tracker.exemplars("in")
    assert len(exemplars) == EXEMPLAR_SLOTS
    latencies = [e["latency"] for e in exemplars]
    assert latencies == sorted(latencies, reverse=True)
    assert latencies[0] == 0.9                     # slowest survives
    assert 0.1 not in latencies and 0.2 not in latencies


def test_exemplar_carries_flight_ring_slice():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    ring = FlightRing("a", capacity=64)
    ring.append(0.0, "op_start", "a#1", "in")
    ring.append(0.1, "send", "a#1", "query", "b")
    ring.append(0.2, "note", "a#2", "in")          # different op: excluded
    ring.append(0.3, "op_end", "a#1", "in", "b")
    tracker.record("in", 1.5, "a#1", "a", ring=ring)
    (exemplar,) = tracker.exemplars("in")
    assert exemplar["op_id"] == "a#1" and exemplar["node"] == "a"
    trace_events = [e["event"] for e in exemplar["trace"]]
    assert trace_events == ["op_start", "send", "op_end"]
    assert all(e["op_id"] == "a#1" for e in exemplar["trace"])


def _whole_ring_slice(ring, op_id):
    """The exemplar slice as first written: every live slot becomes a
    dict, then the op's are kept.  The reference the column walk must equal."""
    events = [e for e in ring.events() if e.get("op_id") == op_id]
    return events[-EXEMPLAR_TRACE_EVENTS:]


def test_exemplar_slice_builds_only_the_operations_events(monkeypatch):
    ring = FlightRing("a", capacity=4096)
    for i in range(5000):                              # wraps the ring
        ring.append(float(i), "send", f"a#{i}", "query", "b")
    ring.append(5000.0, "op_start", "a#x", "in")
    ring.append(5000.5, "send", "a#x", "query", "b")
    ring.append(5000.5, "deliver", "a#other", "response", "b")
    ring.append(5001.0, "op_end", "a#x", "in", "b")
    built = []
    real = FlightRing._event
    monkeypatch.setattr(FlightRing, "_event",
                        lambda self, i: built.append(i) or real(self, i))
    trace = ring.op_events("a#x", 5000.0, EXEMPLAR_TRACE_EVENTS)
    assert len(built) == 3                             # not one per live slot
    assert [e["event"] for e in trace] == ["op_start", "send", "op_end"]
    assert trace == _whole_ring_slice(ring, "a#x")
    assert [e["event"] for e in ring.op_events("a#x", 5000.0, 2)] == \
        ["send", "op_end"]                             # the tail, oldest first


def test_seeded_run_exemplar_traces_equal_the_whole_ring_slice(monkeypatch):
    compared = []
    real = slo._ring_slice

    def checked(ring, op_id, now, latency):
        trace = real(ring, op_id, now, latency)
        assert trace == _whole_ring_slice(ring, op_id)
        compared.append(len(trace))
        return trace

    monkeypatch.setattr(slo, "_ring_slice", checked)
    with repro.connect("sim", seed=7) as rt:
        a, b = rt.node("a"), rt.node("b")
        rt.set_visible("a", "b")
        for i in range(40):                            # > 512 ring events
            b.out(repro.Tuple("job", i))
            assert a.rd(repro.Pattern("job", i), timeout=2.0) is not None
            assert a.in_(repro.Pattern("job", int), timeout=2.0) is not None
        exemplars = rt.sim.obs.slo.exemplars()
    assert exemplars and all(e["trace"] for e in exemplars)
    assert len(compared) >= len(exemplars) and min(compared) >= 2


def test_exemplars_expire_out_of_window():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    tracker.record("in", 9.0, "a#1", "a")          # will age out
    clock.now = tracker.exemplar_window + 10.0
    tracker.record("in", 0.1, "a#2", "a")
    exemplars = tracker.exemplars("in")
    assert [e["op_id"] for e in exemplars] == ["a#2"]


def test_a_slow_exemplar_expires_behind_a_faster_younger_one():
    """The slot is sorted by latency, so its fastest exemplar can be
    younger than a slow one that has left the window."""
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    assert tracker.exemplar_window == 200.0
    for now, latency, op_id in ((0.0, 50.0, "a#1"), (150.0, 1.0, "a#2"),
                                (250.0, 2.0, "a#3")):
        clock.now = now
        tracker.record("in", latency, op_id, "a")
    assert [e["op_id"] for e in tracker.exemplars("in")] == ["a#3", "a#2"]


# ----------------------------------------------------------------------
# Burn-rate breaches
# ----------------------------------------------------------------------
def test_breach_fires_on_transition_only():
    registry = MetricsRegistry()
    clock = _Clock()
    tracker = SLOTracker(clock, registry=registry)
    obj = tracker.add_objective(
        SLOObjective("in", percentile=0.5, threshold=0.1, window=1000.0))
    ring = FlightRing("a", capacity=64)

    # MIN_WINDOW_SAMPLES bad latencies: burn = (1.0)/(0.5) = 2.0 > 1.
    for i in range(MIN_WINDOW_SAMPLES):
        tracker.record("in", 1.0, f"a#{i}", "a", ring=ring)
        clock.tick()
    assert len(tracker.breaches) == 1
    breach = tracker.breaches[0]
    assert breach["objective"] == obj.name
    assert breach["burn_rate"] == pytest.approx(2.0)

    # Still breaching: no duplicate events while inside the breach.
    for i in range(5):
        tracker.record("in", 1.0, f"a#x{i}", "a", ring=ring)
        clock.tick()
    assert len(tracker.breaches) == 1

    # Recover (enough good samples), then breach again -> second event.
    for i in range(40):
        tracker.record("in", 0.01, f"a#g{i}", "a", ring=ring)
        clock.tick()
    for i in range(40):
        tracker.record("in", 1.0, f"a#b{i}", "a", ring=ring)
        clock.tick()
    assert len(tracker.breaches) == 2

    # The breach also lands in the metrics registry and the flight ring.
    snap = registry.snapshot()
    counter = snap["slo_breaches_total"]["samples"]
    assert counter and counter[0]["value"] == 2
    assert any(e["event"] == "slo_breach" for e in ring.events())


def test_breach_needs_min_window_samples():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    tracker.add_objective(
        SLOObjective("in", percentile=0.99, threshold=0.1, window=1000.0))
    for i in range(MIN_WINDOW_SAMPLES - 1):
        tracker.record("in", 5.0, f"a#{i}", "a")
        clock.tick()
    assert tracker.breaches == []


def test_window_slides_old_samples_out():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    tracker.add_objective(
        SLOObjective("in", percentile=0.5, threshold=0.1, window=20.0))
    # Fill the window with bad samples -> breach.
    for i in range(MIN_WINDOW_SAMPLES):
        tracker.record("in", 1.0, f"a#{i}", "a")
        clock.tick()
    assert len(tracker.breaches) == 1
    # Jump past the window; bad history must not count any more.
    clock.now += 100.0
    for i in range(MIN_WINDOW_SAMPLES):
        tracker.record("in", 0.01, f"a#n{i}", "a")
        clock.tick(0.5)
    assert len(tracker.breaches) == 1  # fully recovered, no new breach


def test_objectives_only_see_their_kind():
    clock = _Clock()
    tracker = SLOTracker(clock, registry=MetricsRegistry())
    tracker.add_objective(
        SLOObjective("in", percentile=0.5, threshold=0.1, window=1000.0))
    for i in range(MIN_WINDOW_SAMPLES * 2):
        tracker.record("rd", 9.0, f"a#{i}", "a")   # wrong kind: ignored
        clock.tick()
    assert tracker.breaches == []


# ----------------------------------------------------------------------
# Metrics satellite: deterministic snapshots
# ----------------------------------------------------------------------
def test_snapshot_label_order_is_deterministic():
    """Same state, different child-creation order: identical snapshots."""
    snaps = []
    for order in (("a", "b", "c"), ("c", "a", "b")):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labels=("node",))
        for node in order:
            counter.labels(node=node).inc()
        snaps.append(json.dumps(registry.snapshot(), sort_keys=True))
    assert snaps[0] == snaps[1]
