"""The model checker's oracle layer: unit shadows + exploration smoke."""

import pytest

from repro.check import CANARY_DOUBLE_TAKE, CANARY_GHOST, canary
from repro.check.explorer import (
    TEMPLATES,
    Explorer,
    Perturbations,
    run_schedule,
)
from repro.check.oracles import (
    ExactlyOnceOracle,
    InvariantMonitor,
    LeaseConservationOracle,
    RefusalVocabularyOracle,
    ReliabilityNoDupOracle,
    Violation,
)
from repro.sim import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import encode_tuple


# ----------------------------------------------------------------------
# Stream plumbing
# ----------------------------------------------------------------------
def test_flight_tap_hands_every_event_to_every_reader():
    """The recorder's tap takes more than one reader, in install order;
    a removed reader sees nothing more, and with none the tap is off."""
    sim = Simulator(seed=1)
    recorder = sim.obs.flight
    ring = recorder.ring("a")
    seen = []
    first = lambda node, t, code, *rest: seen.append(("first", code))
    second = lambda node, t, code, *rest: seen.append(("second", code))
    recorder.add_reader(first)
    recorder.add_reader(second)
    ring.append(0.0, "note")
    assert seen == [("first", "note"), ("second", "note")]
    recorder.remove_reader(first)
    recorder.remove_reader(first)      # idempotent
    recorder.ring("b").append(0.0, "note")   # a ring made later is tapped
    assert seen[2:] == [("second", "note")]
    recorder.remove_reader(second)
    assert recorder.tap is None and ring.tap is None
    ring.append(0.0, "note")
    assert len(seen) == 3


def test_canary_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK_CANARY", raising=False)
    assert not canary(CANARY_GHOST)
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    assert canary(CANARY_GHOST)
    assert not canary(CANARY_DOUBLE_TAKE)


def test_the_monitor_is_observationally_passive():
    """With and without a monitor reading the stream, a seeded run is
    bit-identical.

    This is the checker's licence to exist: the events are recorded
    either way, and reading them never perturbs behaviour.
    """
    for template in sorted(TEMPLATES):
        monitored = run_schedule(template, 11)
        unmonitored = run_schedule(template, 11, monitored=False)
        assert monitored.schedule_hash == unmonitored.schedule_hash
        assert monitored.events == unmonitored.events
        assert monitored.stream_events > 0  # the monitor actually read


def test_a_violation_dump_shows_where_the_tuple_went(monkeypatch):
    """Two blocked ``in``\\ s, one ``out``, the ``double_take`` canary: the
    black box taken at the violation holds the tuple's one deposit and
    both of its takes."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "double_take")
    sim = Simulator(seed=1)
    space = LocalTupleSpace(sim, name="a")
    tup = Tuple("job", 0)
    with InvariantMonitor(sim) as monitor:
        first, second = space.in_(Pattern("job", int)), space.in_(
            Pattern("job", int))
        space.out(tup)
    assert first.satisfied and second.satisfied
    assert [v.oracle for v in monitor.violations] == ["exactly_once"]
    events = [(e["event"], e.get("detail"))
              for e in monitor.flight_dump["nodes"]["a"]["events"]]
    assert events == [("deposit", encode_tuple(tup)),
                      ("take", encode_tuple(tup)),
                      ("take", encode_tuple(tup))]


# ----------------------------------------------------------------------
# Oracle shadows, driven synthetically
# ----------------------------------------------------------------------
def _monitor(oracle):
    return InvariantMonitor(sim=None, oracles=[oracle],
                            stop_on_violation=False)


def test_exactly_once_oracle_flags_double_consume():
    monitor = _monitor(ExactlyOnceOracle())
    tup = Tuple("job", 1)
    monitor("a", 0.0, "deposit", None, None, None, tup)
    monitor("a", 0.0, "take", None, None, None, tup)
    assert not monitor.violations
    monitor("b", 0.0, "take", None, None, None, tup)
    assert len(monitor.violations) == 1
    assert monitor.violations[0].oracle == "exactly_once"


def test_exactly_once_oracle_allows_duplicate_values():
    monitor = _monitor(ExactlyOnceOracle())
    tup = Tuple("job", 1)
    for _ in range(2):  # a genuine multiset: two identical deposits
        monitor("a", 0.0, "deposit", None, None, None, tup)
    for _ in range(2):
        monitor("a", 0.0, "take", None, None, None, tup)
    monitor("a", 0.0, "expired", None, None, None, tup)   # not a take
    assert not monitor.violations


def test_lease_conservation_oracle_flags_leak():
    monitor = _monitor(LeaseConservationOracle())
    monitor("a", 0.0, "lease_grant", None, "rdp", None, (1, 1, 1))
    monitor("a", 0.0, "lease_grant", None, "out", None, (1, 2, 2))
    monitor("a", 0.0, "lease_end", None, "released", None, (1, 1, 1))
    assert not monitor.violations
    # A leak: the manager claims 1 active after both leases ended.
    monitor("a", 0.0, "lease_end", None, "expired", None, (1, 2, 1))
    assert len(monitor.violations) == 1
    assert "conservation" in monitor.violations[0].detail


def test_lease_conservation_oracle_flags_double_end_and_unknown():
    monitor = _monitor(LeaseConservationOracle())
    monitor("a", 0.0, "lease_grant", None, "in", None, (1, 1, 1))
    monitor("a", 0.0, "lease_end", None, "released", None, (1, 1, 0))
    monitor("a", 0.0, "lease_end", None, "revoked", None, (1, 1, 0))
    assert any("ended twice" in v.detail for v in monitor.violations)
    monitor("a", 0.0, "lease_end", None, "expired", None, (1, 99, 0))
    assert any("never granted" in v.detail for v in monitor.violations)


def test_refusal_vocabulary_oracle_closure():
    from repro.core.admission import ALL_REFUSAL_REASONS

    monitor = _monitor(RefusalVocabularyOracle())
    for reason in sorted(ALL_REFUSAL_REASONS):
        monitor("a", 0.0, "refuse", "a#1", "rdp", "b", reason)
        monitor("a", 0.0, "shed", "a#1", "rdp", "b", reason)
    assert not monitor.violations
    monitor("a", 0.0, "refuse", "a#2", "rdp", "b", "mystery_meat")
    assert len(monitor.violations) == 1
    assert monitor.violations[0].oracle == "refusal_vocabulary"


def test_reliability_no_dup_oracle():
    monitor = _monitor(ReliabilityNoDupOracle())
    monitor("b", 0.0, "dispatch", None, None, "a", (1, 4, 1))
    monitor("b", 0.0, "dispatch", None, None, "a", (1, 5, 1))
    monitor("a", 0.0, "dispatch", None, None, "b", (1, 4, 1))
    monitor("b", 0.0, "dispatch", None, None, "a", (1, 4, 2))  # recovered
    assert not monitor.violations
    monitor("b", 0.0, "dispatch", None, None, "a", (1, 4, 1))
    assert len(monitor.violations) == 1
    assert monitor.violations[0].oracle == "reliability_no_dup"


def test_violation_to_dict_roundtrip_fields():
    violation = Violation("exactly_once", "boo", 17, "take")
    data = violation.to_dict()
    assert data == {"oracle": "exactly_once", "detail": "boo",
                    "event_index": 17, "event": "take"}


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------
def test_run_schedule_is_deterministic_per_seed():
    a = run_schedule("contended_take", 5)
    b = run_schedule("contended_take", 5)
    assert a.schedule_hash == b.schedule_hash
    assert a.events == b.events
    # different seeds explore different schedules
    c = run_schedule("contended_take", 6)
    assert c.schedule_hash != a.schedule_hash


def test_run_schedule_prefix_is_consistent():
    full = run_schedule("lease_storm", 2)
    prefix = run_schedule("lease_storm", 2, max_events=40)
    assert prefix.events == 40 < full.events


def test_perturbation_ablation_layers():
    perturb = Perturbations()
    assert perturb.enabled() == ["tiebreak", "faults", "churn"]
    ablated = perturb.without("faults")
    assert ablated.enabled() == ["tiebreak", "churn"]
    assert perturb.faults  # original untouched
    assert Perturbations.from_dict(ablated.to_dict()).enabled() == (
        ablated.enabled())


def test_tiebreak_layer_changes_schedules():
    noisy = run_schedule("contended_take", 4)
    fifo = run_schedule("contended_take", 4,
                        Perturbations(tiebreak=False, faults=True,
                                      churn=True))
    assert noisy.schedule_hash != fifo.schedule_hash


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        run_schedule("no_such_template", 0)
    with pytest.raises(ValueError):
        Explorer(templates=["no_such_template"])


def test_explorer_smoke_clean_on_main():
    result = Explorer().run(schedules=12)
    assert result.schedules_run == 12
    assert result.clean, [r.headline() for r in result.reports]
    assert set(result.per_template) == set(TEMPLATES)
    assert result.schedules_per_second > 0
    assert "CLEAN" in result.summary()
