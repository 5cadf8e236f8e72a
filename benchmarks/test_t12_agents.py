"""T12: multi-agent blackboard vs centralized master under 20% churn.

The scenario (shared with ``python -m repro.cli agents``; see
:mod:`repro.bench.agents`): six agents work a streaming task supply and
settle three spread-out ballots for 24 virtual seconds, once with every
agent up and once with each agent spending ~20% of its time crashed
(exponential up/down cycling, fresh empty instance on revival).

* **blackboard** — tasks are durable tuples on an admission-controlled
  board; agents bid/claim with leased ``inp``; lease expiry re-offers
  abandoned work; a completion token makes duplicates *structurally*
  impossible; ballots settle by rd-quorum + decision token.
* **central** — a master assigns each task to a named worker and learns
  about crashes only through reassignment timeouts; a stale assignment
  consumed after revival can complete twice.

Acceptance (the paper-shaped claim this PR exists to prove):

* the blackboard at 20% churn keeps >= 70% of its zero-churn goodput;
* the blackboard never records a duplicate completion, with or without
  churn — while the centralized baseline is *allowed* to (and under
  churn typically does);
* every opened ballot reaches a decision in both blackboard arms;
* churn actually happened (crashes observed) and the central master
  actually paid recovery timeouts (reassignments observed).

The run is seeded, so on a clean wire its figures are also pinned
exactly (``T12_PINS`` and the completion counts): a change that moves
one edits the pin in the same diff and says why.

Under ``REPRO_CHAOS_LOSS`` (the nightly soak injects 25% i.i.d. frame
loss) the performance claims are waived and only the *safety* claims are
asserted: non-blocking probes are deliberately single-round ("leases
remain the only effort budget"), so heavy loss degrades throughput by
design — what must survive is exactly-once completion and agreed,
non-split ballots.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import Table
from repro.bench.agents import (
    AGENTS,
    BALLOTS,
    CHURN,
    DURATION,
    MEAN_DOWNTIME,
    WORK_MEAN,
    run_t12,
)

SEED = 12

#: Derived figures of the seeded run; the per-task costs
#: (``DURATION / completed``) are pinned through the completion counts.
T12_PINS = {
    "bb_churn_goodput_loss": 0.19801980198019797,
    "bb_consensus_ttc_s": 0.505108404193526,
    "bb_unfairness_churn": 0.13994910941475824,
}


def run_points() -> dict:
    registry_sink: list = []
    result = run_t12(SEED, registry_sink=registry_sink)
    return {"result": result, "_registry": registry_sink[0]}


def test_t12_agents(benchmark, report):
    out = benchmark.pedantic(run_points, rounds=1, iterations=1)
    report.metrics(out.pop("_registry"))
    result = out["result"]

    table = Table(
        "T12: blackboard vs centralized master under churn",
        ["arm", "churn", "completed", "goodput (t/s)", "dup", "fairness",
         "peer debt", "consensus", "ttc (s)", "recoveries", "crashes"],
        caption=f"{AGENTS} agents, {DURATION:.0f}s per point, "
                f"work mean {WORK_MEAN}s, {BALLOTS} ballots, churn target "
                f"{CHURN:.0%} (mean outage {MEAN_DOWNTIME}s), seed {SEED}; "
                "recoveries = re-offers (blackboard) / reassignments "
                "(central)",
    )
    for point in result.points:
        decided = f"{point.consensus_decided}/{point.consensus_opened}"
        table.add_row(
            point.arm, f"{point.churn:.0%}", point.completed,
            f"{point.goodput:.2f}", point.duplicates,
            f"{point.fairness:.3f}", f"{point.max_peer_debt:.3f}",
            decided, f"{point.consensus_mean:.2f}",
            point.recoveries, point.crashes,
        )
    report.table(table)
    report.add(f"blackboard churn/zero goodput ratio: "
               f"{result.blackboard_goodput_ratio:.3f}   "
               f"central: {result.central_goodput_ratio:.3f}")

    bb_zero, bb_churn = result.blackboard_zero, result.blackboard_churn
    chaos = float(os.environ.get("REPRO_CHAOS_LOSS", "0") or "0") > 0

    # --- churn actually happened, and work still flowed ---------------
    assert bb_churn.crashes > 0
    assert result.central_churn.crashes > 0
    assert bb_zero.completed > 0 and bb_churn.completed > 0

    # --- exactly-once: the token gate structurally forbids duplicates -
    assert bb_zero.duplicates == 0
    assert bb_churn.duplicates == 0

    # --- consensus safety: ballots never over-decide or split ---------
    for point in (bb_zero, bb_churn):
        assert point.consensus_decided <= point.consensus_opened, point

    if chaos:
        # Soak mode: safety held under injected frame loss; the
        # performance claims below are calibrated for a clean wire.
        return

    # --- goodput holds: >= 70% of the zero-churn arm ------------------
    assert result.blackboard_goodput_ratio >= 0.70, (
        bb_churn.goodput, bb_zero.goodput)

    # --- consensus liveness: every opened ballot decided --------------
    for point in (bb_zero, bb_churn):
        assert point.consensus_decided == point.consensus_opened, point

    # --- claims spread across the swarm (no starvation) ---------------
    assert bb_churn.fairness >= 0.70, bb_churn.completed_by

    # --- the centralized arm paid for recovery with timeouts ----------
    assert result.central_churn.recoveries > 0

    # --- the seeded figures, exactly -----------------------------------
    assert (bb_zero.completed, bb_churn.completed,
            result.central_churn.completed) == (101, 81, 200)
    assert {
        "bb_churn_goodput_loss": 1.0 - result.blackboard_goodput_ratio,
        "bb_consensus_ttc_s": bb_churn.consensus_mean,
        "bb_unfairness_churn": 1.0 - bb_churn.fairness,
    } == pytest.approx(T12_PINS, rel=1e-9)
