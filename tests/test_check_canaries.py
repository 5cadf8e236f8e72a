"""Mutation canaries: prove the checker's oracles are not vacuous.

Each of the protocol core's planted bugs (``REPRO_CHECK_CANARY``) must
be (a) detected by schedule exploration, (b) shrunk to a short replayable
event prefix (≤ 50 kernel events), and (c) reproducible from the emitted
:class:`~repro.check.shrink.CheckReport` alone.  The store's ``ghost``
canary is caught by ``tests/test_store_pick.py``'s reference machine.
"""

import pytest

from repro.check.explorer import Explorer, run_schedule
from repro.check.shrink import CheckReport, shrink_violation

#: canary name -> oracle expected to catch it
CANARIES = {
    "double_take": "exactly_once",
    "lease_leak": "lease_conservation",
}

SHRUNK_EVENT_BUDGET = 50


def _first_violation(max_seeds=10):
    for seed in range(max_seeds):
        outcome = run_schedule("contended_take", seed)
        if not outcome.clean:
            return outcome
    return None


@pytest.mark.parametrize("canary,oracle", sorted(CANARIES.items()))
def test_canary_detected_and_shrunk(monkeypatch, canary, oracle):
    monkeypatch.setenv("REPRO_CHECK_CANARY", canary)
    outcome = _first_violation()
    assert outcome is not None, f"canary {canary!r} went undetected"
    assert outcome.first_violation.oracle == oracle

    report = shrink_violation(outcome)
    assert report.min_events <= SHRUNK_EVENT_BUDGET, (
        f"shrunk trace too long: {report.min_events} events")
    assert report.violation is not None
    assert report.violation["oracle"] == oracle

    # Replayable from the serialized report alone.
    revived = CheckReport.from_json(report.to_json())
    replay = revived.replay()
    assert not replay.clean
    assert replay.first_violation.oracle == oracle
    assert replay.schedule_hash == report.schedule_hash

    # The rendered report is a useful artefact.
    rendered = report.render()
    assert oracle in rendered
    assert str(report.seed) in rendered


@pytest.mark.parametrize("canary", sorted(CANARIES))
def test_canary_off_is_clean(monkeypatch, canary):
    """The planted bugs are entirely env-gated: unset, nothing fires."""
    monkeypatch.delenv("REPRO_CHECK_CANARY", raising=False)
    outcome = run_schedule("contended_take", 0)
    assert outcome.clean


def test_explorer_reports_canary(monkeypatch):
    """End-to-end: the explorer itself detects, shrinks, and reports."""
    monkeypatch.setenv("REPRO_CHECK_CANARY", "double_take")
    result = Explorer(templates=["contended_take"]).run(schedules=5)
    assert not result.clean
    report = result.reports[0]
    assert report.violation["oracle"] == "exactly_once"
    assert report.min_events <= SHRUNK_EVENT_BUDGET
    assert "VIOLATION" in result.summary()


def test_canary_is_read_at_construction(monkeypatch):
    """Setting the env var after construction changes nothing."""
    from repro.tuples.store import TupleStore

    monkeypatch.delenv("REPRO_CHECK_CANARY", raising=False)
    store = TupleStore()
    monkeypatch.setenv("REPRO_CHECK_CANARY", "ghost")
    assert store._canary_ghost is False
    assert TupleStore()._canary_ghost is True
