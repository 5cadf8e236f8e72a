"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry (families, labels, histograms, callbacks,
exposition formats), the causal tracer (span trees across instances,
retransmit/drop attribution, chrome export), kernel profiling, and —
crucially — observational passivity: telemetry must not perturb the
simulation it watches.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import TiamatConfig, TiamatInstance
from repro.errors import LeaseError
from repro.leasing import DenyAllPolicy, LeaseTerms, SimpleLeaseRequester
from repro.net import Message, Network
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    Observability,
    Tracer,
)
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

from tests.test_core_instance import build, run_op


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
def test_counter_inc_and_labels():
    reg = MetricsRegistry()
    fam = reg.counter("frames_total", "frames", labels=("node",))
    fam.labels(node="a").inc()
    fam.labels(node="a").inc(2)
    fam.labels(node="b").inc()
    snap = reg.snapshot()["frames_total"]
    assert snap["kind"] == "counter"
    by_node = {s["labels"]["node"]: s["value"] for s in snap["samples"]}
    assert by_node == {"a": 3, "b": 1}


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    gauge = reg.gauge("pending")
    gauge.set(5)
    gauge.inc()
    gauge.dec(2)
    [sample] = reg.snapshot()["pending"]["samples"]
    assert sample["value"] == 4


def test_histogram_buckets_cumulative_and_inf():
    reg = MetricsRegistry()
    hist = reg.histogram("latency", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):
        hist.observe(value)
    [sample] = reg.snapshot()["latency"]["samples"]
    assert sample["count"] == 4
    assert sample["sum"] == pytest.approx(55.55)
    # Cumulative counts, +Inf last and equal to the total count.
    assert sample["buckets"]["0.1"] == 1
    assert sample["buckets"]["1"] == 2      # integral bounds render bare
    assert sample["buckets"]["10"] == 3
    assert sample["buckets"]["+Inf"] == 4


def test_callback_families_and_key_dedup():
    reg = MetricsRegistry()
    state = {"x": 1}
    reg.callback("resident", lambda: [((), state["x"])], key="comp")
    # Re-registering under the same key replaces, not duplicates.
    reg.callback("resident", lambda: [((), state["x"] * 10)], key="comp")
    state["x"] = 7
    [sample] = reg.snapshot()["resident"]["samples"]
    assert sample["value"] == 70  # live read through the *latest* callback


def test_family_redeclaration_rules():
    reg = MetricsRegistry()
    first = reg.counter("ops", labels=("node",))
    assert reg.counter("ops", labels=("node",)) is first
    with pytest.raises(ValueError):
        reg.gauge("ops", labels=("node",))
    with pytest.raises(ValueError):
        reg.counter("ops", labels=("other",))


def test_render_prometheus_format():
    reg = MetricsRegistry()
    reg.counter("hits_total", "how many", labels=("node",)).labels(
        node='we"ird\n\\').inc()
    reg.histogram("wait", buckets=(1.0,)).observe(0.5)
    text = reg.render_prometheus()
    assert "# HELP hits_total how many" in text
    assert "# TYPE hits_total counter" in text
    # Label values are escaped per the exposition format.
    assert 'node="we\\"ird\\n\\\\"' in text
    assert 'wait_bucket{le="1"} 1' in text
    assert 'wait_bucket{le="+Inf"} 1' in text
    assert "wait_sum 0.5" in text
    assert "wait_count 1" in text
    assert text.endswith("\n")


def test_snapshot_is_json_serialisable():
    reg = MetricsRegistry()
    reg.counter("a", labels=("x",)).labels(x=1).inc()
    reg.histogram("b", buckets=DEFAULT_COUNT_BUCKETS).observe(3)
    round_tripped = json.loads(json.dumps(reg.snapshot()))
    assert round_tripped["a"]["samples"][0]["labels"] == {"x": "1"}


def test_thread_safe_registry_under_contention():
    reg = MetricsRegistry(thread_safe=True)
    counter = reg.counter("n", labels=("t",))

    def worker(tag):
        child = counter.labels(t=tag)
        for _ in range(1000):
            child.inc()

    threads = [threading.Thread(target=worker, args=(str(i % 2),))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = sum(s["value"] for s in reg.snapshot()["n"]["samples"])
    assert total == 4000


# ---------------------------------------------------------------------------
# Kernel integration: sim.obs, stack instrumentation, profiling
# ---------------------------------------------------------------------------
def test_sim_obs_registry_collects_stack_metrics():
    sim = Simulator(seed=11)
    net, inst = build(sim, ["a", "b"])
    inst["b"].out(Tuple("item", 1))
    run_op(sim, inst["a"].in_(Pattern("item", int)), until=20.0)
    snap = sim.obs.registry.snapshot()
    # Kernel counters advanced with the run.
    [events] = snap["sim_events_processed_total"]["samples"]
    assert events["value"] > 0
    [now] = snap["sim_virtual_time_seconds"]["samples"]
    assert now["value"] == sim.now
    # Network accounting matches the live stats object (samples are
    # labelled (node, cast), so sum across all of them).
    sent = sum(s["value"]
               for s in snap["net_frames_sent_total"]["samples"])
    assert sent == net.stats.total_messages
    # Core op accounting saw the remote satisfaction.
    ops = {(s["labels"]["node"], s["labels"]["state"]): s["value"]
           for s in snap["core_ops_total"]["samples"]}
    assert ops[("a", "started")] == 1
    assert ops[("a", "satisfied_remote")] == 1
    # Space-level counters exist for both instances.
    resident = {s["labels"]["space"]: s["value"]
                for s in snap["tuples_resident"]["samples"]}
    assert set(resident) >= {"a", "b"}


def test_lease_refusal_counted():
    sim = Simulator(seed=12)
    net = Network(sim)
    deny = TiamatInstance(sim, net, "deny", policy=DenyAllPolicy())
    with pytest.raises(LeaseError):
        deny.rdp(Pattern("x"))
    snap = sim.obs.registry.snapshot()
    events = {(s["labels"]["node"], s["labels"]["event"]): s["value"]
              for s in snap["lease_events_total"]["samples"]}
    assert events[("deny", "refusal")] >= 1


def test_kernel_profiling_populates_handler_profile():
    sim = Simulator(seed=13)
    assert not sim.profiling
    sim.enable_profiling()
    net, inst = build(sim, ["a"])
    inst["a"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rdp(Pattern("x", int)), until=5.0)
    assert sim.handler_profile, "profiling recorded no handlers"
    for label, (calls, seconds) in sim.handler_profile.items():
        assert calls > 0 and seconds >= 0.0
    snap = sim.obs.registry.snapshot()
    profiled = sum(s["value"]
                   for s in snap["sim_handler_calls_total"]["samples"])
    assert profiled == sum(c for c, _ in sim.handler_profile.values())
    sim.disable_profiling()
    assert not sim.profiling


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
def test_tracer_local_op_span():
    sim = Simulator(seed=21)
    net, inst = build(sim, ["a"])
    tracer = sim.obs.start_trace()
    inst["a"].out(Tuple("x", 1))
    op = inst["a"].rdp(Pattern("x", int))
    run_op(sim, op, until=5.0)
    events = [e.event for e in tracer.events_for(op.op_id)]
    assert events[0] == "op_start"
    assert events[-1] == "op_end"
    tree = tracer.span_tree(op.op_id)
    assert tree["origin"] == "a"
    assert tree["outcome"] == "satisfied"
    assert tree["peers"] == []


def _chaos_run(seed, traced=True):
    """A distributed destructive-in workload under 5% i.i.d. loss."""
    sim = Simulator(seed=seed)
    net = Network(sim, loss_rate=0.05)
    server = TiamatInstance(sim, net, "server",
                            config=TiamatConfig(claim_timeout=3.0))
    client = TiamatInstance(sim, net, "client",
                            config=TiamatConfig(claim_timeout=3.0))
    net.visibility.set_visible("server", "client")
    tracer = sim.obs.start_trace() if traced else None
    for i in range(10):
        server.out(Tuple("item", i),
                   requester=SimpleLeaseRequester(LeaseTerms(duration=500.0)))
    ops = []
    consumed = []

    def scenario():
        for i in range(10):
            op = client.in_(Pattern("item", i),
                            requester=SimpleLeaseRequester(
                                LeaseTerms(duration=15.0, max_remotes=8)))
            ops.append(op)
            result = yield op.event
            if result is not None:
                consumed.append(i)

    sim.spawn(scenario())
    sim.run(until=400.0)
    return sim, net, tracer, ops, consumed


def test_tracer_distributed_in_under_loss():
    """Acceptance: a lossy distributed in() is traceable end-to-end."""
    sim, net, tracer, ops, consumed = _chaos_run(seed=2024)
    assert len(consumed) >= 8  # reliability keeps the workload productive
    # At least one op's span tree spans both instances AND shows the
    # adversity (a retransmit or a dropped frame) that the sublayer hid.
    full = [op.op_id for op in ops
            if len(tracer.instances_for(op.op_id)) >= 2
            and (tracer.retransmits_for(op.op_id)
                 or tracer.drops_for(op.op_id))]
    assert full, "no traced op recorded both peers and adversity"
    op_id = full[0]
    tree = tracer.span_tree(op_id)
    assert tree["origin"] == "client"
    assert any(p["peer"] == "server" for p in tree["peers"])
    # The waterfall renders every captured event for the op.
    text = tracer.waterfall(op_id)
    assert f"op {op_id}" in text
    assert "server" in text


def test_tracer_reads_the_flight_stream():
    """Every event the tracer holds for a lossy in() is in a flight ring."""
    sim, net, tracer, ops, consumed = _chaos_run(seed=2024)
    op_id = ops[-1].op_id      # recent enough that no ring has wrapped it
    ringed = {(e["t"], e["event"], e.get("op_id"))
              for ring in sim.obs.flight.rings.values()
              for e in ring.events()}
    traced = tracer.events_for(op_id)
    assert {"op_start", "serve_started", "op_end"} <= {e.event for e in traced}
    assert all((e.time, e.event, e.op_id) in ringed for e in traced)


def test_tracer_chrome_export_round_trips():
    sim, net, tracer, ops, consumed = _chaos_run(seed=2024)
    raw = tracer.chrome_trace(ops[0].op_id)
    doc = json.loads(raw)
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" for e in events)        # spans
    assert any(e["ph"] == "i" for e in events)        # instants
    assert any(e["ph"] == "M" for e in events)        # metadata
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "client" in names
    # The full-capture export parses too and covers every op.
    full = json.loads(tracer.chrome_trace())
    pids = {e["pid"] for e in full["traceEvents"]}
    assert len(pids) == len(tracer.op_ids())


def test_tracer_detach_stops_capture():
    sim = Simulator(seed=23)
    net, inst = build(sim, ["a", "b"])
    tracer = sim.obs.start_trace()
    inst["b"].out(Tuple("x", 1))
    run_op(sim, inst["a"].rd(Pattern("x", int)), until=10.0)
    seen = len(tracer)
    assert seen > 0
    assert sim.obs.stop_trace() is tracer
    assert sim.obs.tracer is None
    run_op(sim, inst["a"].rd(Pattern("x", int)), until=20.0)
    assert len(tracer) == seen


def test_tracer_max_events_truncates():
    sim = Simulator(seed=24)
    tracer = Tracer(max_events=3)
    for i in range(5):
        tracer.record("a", sim.now, "note", f"op#{i}")
    assert len(tracer) == 3
    assert tracer.truncated == 2


# ---------------------------------------------------------------------------
# Passivity: telemetry must not perturb the simulation
# ---------------------------------------------------------------------------
def test_observation_is_passive():
    """Same seed, with and without tracer+profiling: identical outcome."""
    results = []
    for traced in (False, True):
        sim, net, tracer, ops, consumed = _chaos_run(seed=77, traced=traced)
        if traced:
            sim.enable_profiling()
        results.append((sim.now, net.stats.total_messages,
                        net.stats.total_dropped, tuple(consumed)))
    assert results[0] == results[1]


def test_observability_hub_standalone():
    """The hub works off any clock, independent of a Simulator."""
    obs = Observability(clock=lambda: 42.0, thread_safe=True)
    obs.registry.counter("x").inc()
    tracer = obs.start_trace()
    obs.flight.frame("send", Message("n", "m", {"kind": "hello",
                                                "op_id": "op#1"}, 0.0))
    assert tracer.events[0].time == 42.0
    assert obs.stop_trace() is tracer
