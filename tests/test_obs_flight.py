"""Flight recorder: ring mechanics, passivity, dumps, canary round trip.

Covers the PR's acceptance criteria for `repro.obs.flight`:

* ring wraparound keeps exactly the last `capacity` events, oldest first;
* recording is observationally passive — a seeded chaos run is
  bit-identical with the recorder on (default) and off (REPRO_FLIGHT=off);
* dumps are deterministic under churn and round-trip through
  ``dump_to`` / ``load_flight_dump`` / ``render_flight``;
* an injected canary bug (``REPRO_CHECK_CANARY=ghost``) produces a
  black box that pinpoints the violation, written to ``$REPRO_FLIGHT_DIR``
  and renderable by ``repro flight show``.
"""

import hashlib
import json

import pytest

from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FLIGHT_DUMP_VERSION,
    FlightRecorder,
    FlightRing,
    dump_to_env_dir,
    load_flight_dump,
    render_flight,
)

from tests.test_obs import _chaos_run
from tests.test_sim_kernel import _schedule_digest


# ----------------------------------------------------------------------
# Ring mechanics
# ----------------------------------------------------------------------
def test_ring_wraparound_keeps_last_capacity_events():
    ring = FlightRing("n", capacity=64)
    for i in range(100):
        ring.append(float(i), "note", f"op#{i}", "in", None, None)
    assert len(ring) == 64
    assert ring.recorded == 100
    events = ring.events()
    # Oldest-first, and exactly the last 64 of the 100 appends survive.
    assert [e["t"] for e in events] == [float(i) for i in range(36, 100)]
    assert events[0]["op_id"] == "op#36"
    assert events[-1]["op_id"] == "op#99"


def test_ring_before_wraparound_is_prefix_ordered():
    ring = FlightRing("n", capacity=128)
    for i in range(10):
        ring.append(float(i), "send")
    assert len(ring) == 10
    assert [e["t"] for e in ring.events()] == [float(i) for i in range(10)]


def test_ring_capacity_floor_is_postmortem_window():
    # The acceptance bar asks for a >= 64-event post-mortem window.
    with pytest.raises(ValueError):
        FlightRing("n", capacity=32)
    assert DEFAULT_CAPACITY >= 64


def test_disabled_recorder_hands_out_null_rings():
    recorder = FlightRecorder(lambda: 0.0, enabled=False)
    ring = recorder.ring("a")
    ring.append(1.0, "send")
    assert len(ring) == 0 and ring.events() == []
    box = recorder.dump("test")
    assert box["nodes"] == {}


def test_env_var_disables_recorder(monkeypatch):
    monkeypatch.setenv("REPRO_FLIGHT", "off")
    assert FlightRecorder(lambda: 0.0).enabled is False
    monkeypatch.delenv("REPRO_FLIGHT")
    assert FlightRecorder(lambda: 0.0).enabled is True


# ----------------------------------------------------------------------
# Recording during a real run
# ----------------------------------------------------------------------
def test_chaos_run_populates_instance_and_network_events():
    sim, net, tracer, ops, consumed = _chaos_run(seed=11)
    recorder = sim.obs.flight
    assert set(recorder.rings) >= {"server", "client"}
    client_codes = {e["event"] for e in recorder.ring("client").events()}
    assert {"op_start", "op_end"} <= client_codes
    all_codes = set()
    for ring in recorder.rings.values():
        all_codes |= {e["event"] for e in ring.events()}
    # The network layer lands frame lifecycle events on the same rings.
    assert {"send", "deliver"} <= all_codes


def test_flight_recording_is_passive(monkeypatch):
    """Same seed with the recorder on and off: identical outcome."""
    results = []
    recorded = []
    for env in ("", "off"):
        if env:
            monkeypatch.setenv("REPRO_FLIGHT", env)
        else:
            monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        sim, net, tracer, ops, consumed = _chaos_run(seed=77, traced=False)
        results.append((sim.now, net.stats.total_messages,
                        net.stats.total_dropped, tuple(consumed)))
        recorded.append(sum(r.recorded for r in sim.obs.flight.rings.values()))
    assert results[0] == results[1]
    assert recorded[0] > 0       # enabled run actually kept a black box
    assert recorded[1] == 0      # disabled run recorded nothing at all


def test_dump_is_deterministic_under_churn():
    """Same seed, same process: byte-identical dump and schedule, even
    with an unrelated simulation run in between (ids are per simulation,
    and their widths feed the size-dependent latency model)."""
    def build():
        sim, net, tracer, ops, consumed = _chaos_run(seed=5, traced=False)
        blob = json.dumps(sim.obs.flight.dump("churn"), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest(), _schedule_digest()

    first = build()
    _chaos_run(seed=11, traced=False)
    assert build() == first


# ----------------------------------------------------------------------
# Dump round trip
# ----------------------------------------------------------------------
def test_dump_to_load_and_render(tmp_path):
    sim, net, tracer, ops, consumed = _chaos_run(seed=3, traced=False)
    path = tmp_path / "flight.json"
    sim.obs.flight.dump_to(str(path), "unit-test", detail={"seed": 3})
    box = load_flight_dump(str(path))
    assert box["version"] == FLIGHT_DUMP_VERSION
    assert box["reason"] == "unit-test"
    assert box["detail"] == {"seed": 3}
    assert set(box["nodes"]) >= {"server", "client"}

    text = render_flight(box)
    assert "unit-test" in text
    assert "node client" in text and "node server" in text

    # Single-op lane: merged across nodes, time-ordered.
    op_id = ops[0].op_id
    lane = render_flight(box, op_id=op_id)
    assert f"op {op_id}" in lane
    tail = render_flight(box, last=5)
    assert tail.count("\n") < text.count("\n")


def test_load_rejects_non_dumps(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValueError):
        load_flight_dump(str(bad))
    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps({"version": 99, "nodes": {}}))
    with pytest.raises(ValueError):
        load_flight_dump(str(versioned))


def test_dump_to_env_dir(tmp_path, monkeypatch):
    recorder = FlightRecorder(lambda: 1.0)
    recorder.ring("a").append(0.5, "send")
    monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
    assert dump_to_env_dir(recorder, "no-dir") is None
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    path = dump_to_env_dir(recorder, "unit test!", detail={"k": 1})
    assert path is not None and path.startswith(str(tmp_path))
    box = load_flight_dump(path)
    assert box["nodes"]["a"]["events"][0]["event"] == "send"


# ----------------------------------------------------------------------
# Acceptance: canary bug -> violation -> replayable black box
# ----------------------------------------------------------------------
def test_canary_violation_captures_black_box(tmp_path, monkeypatch, capsys):
    """REPRO_CHECK_CANARY=ghost trips an oracle; the dump pinpoints it."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    from repro.check.explorer import run_schedule

    outcome = None
    for seed in range(10):
        candidate = run_schedule("contended_take", seed)
        if candidate.violations:
            outcome = candidate
            break
    assert outcome is not None, "ghost canary never produced a violation"
    assert outcome.violations[0].oracle == "ghost_read"

    dumps = sorted(tmp_path.glob("flight-violation-*.json"))
    assert dumps, "violation did not write a flight dump to REPRO_FLIGHT_DIR"
    box = load_flight_dump(str(dumps[0]))
    assert box["reason"] == "violation-ghost_read"
    assert box["detail"]["oracle"] == "ghost_read"
    assert box["detail"]["event_index"] == outcome.violations[0].event_index
    assert box["nodes"], "dump captured no node rings"
    assert sum(len(n["events"]) for n in box["nodes"].values()) > 0
    # Every ring retains a >= 64-event post-mortem window.
    assert all(n["capacity"] >= 64 for n in box["nodes"].values())

    # ... and `repro flight show` renders it.
    from repro.cli import main
    assert main(["flight", "show", str(dumps[0]), "--last", "64"]) == 0
    shown = capsys.readouterr().out
    assert "ghost_read" in shown
