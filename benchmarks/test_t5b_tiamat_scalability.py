"""T5b (section 4.7 corollary): Tiamat alone, pushed to 64 hosts.

"Neither Peers nor Tiamat attempt to provide global consistency and, as a
result, are more likely to scale to allow a greater number of devices
simultaneous access to resources."  T5 compares systems at up to 16 hosts;
this bench drives Tiamat itself to 64 and reports the scaling curve:
consume success rate, frames per operation, and mean match latency.

The claim holds when success stays flat as hosts grow (no consistency
machinery to collapse) while per-operation cost grows at most linearly
with the host count — a blocking operation granted a full-population
remote budget contacts each peer once.  (The lease budget is the knob
between coverage and cost: T5 runs the same workload under the default
32-contact budget, where cost is capped instead.)

The **fabric arm** re-runs the same workload with ``repro.fabric``
enabled: tuples shard across the population by (arity, leading-field)
signature with k-way replication, so a ground-prefix consume contacts the
O(k) owner set instead of scanning the union.  The arm drives 100, 500
and 1000 hosts and must show frames/op *flat* in the population; the
100-host figures are seeded and pinned exactly (``FABRIC_PINS``) — the
scalability gate CI's ``bench-gate`` job enforces.
Set ``REPRO_BENCH_SMOKE=1`` to limit the fabric arm to 100 hosts.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import RequestResponseWorkload
from repro.bench import Table, build_system
from repro.core import TiamatConfig
from repro.fabric import FabricConfig

SIZES = (4, 8, 16, 32, 64)
DURATION = 60.0

FABRIC_SIZES = (100, 500, 1000)
if os.environ.get("REPRO_BENCH_SMOKE"):
    FABRIC_SIZES = (100,)
#: Shorter soak for the large fabric sizes: frames/op and latency are
#: rates, so the arm does not need the full 60s to stabilise.
FABRIC_DURATION = 30.0

#: The 100-host figures of the seeded run, exactly.  A change that moves
#: one edits its pin in the same diff and says why.  ``fabric_timeout_rate``
#: is recorded as measured, not blessed: one consume in six timing out is
#: ROADMAP item 6(b).
FABRIC_PINS = {
    "fabric_frames_per_op": 6.96455938697318,
    "fabric_scatter_width": 1.9883495145631067,
    "fabric_latency_s": 1.054472142788544,
    "fabric_timeout_rate": 0.15708812260536398,
    "union_frames_per_op": 168.9269776876268,
}


def run_size(n: int, seed: int = 77, fabric: bool = False,
             duration: float = DURATION) -> dict:
    # The remote-contact lease budget must cover the population, or the
    # lease (correctly) bounds coverage before the workload is satisfied.
    # (With the fabric on, routing contacts O(k) owners and the budget is
    # never binding — it is kept identical so the arms differ in exactly
    # one knob.)
    config = TiamatConfig(
        propagate_mode="continuous",
        fabric=FabricConfig(key_fields=2) if fabric else None)
    sim, network, nodes = build_system(
        "tiamat", n, seed=seed, config=config, max_remotes=n + 4)
    sim.run(until=2.0)
    frames_before = network.stats.total_messages
    workload = RequestResponseWorkload(sim, nodes, sim.rng("wl"),
                                       period=4.0, op_timeout=8.0)
    workload.start(duration=duration)
    sim.run(until=2.0 + duration + 16.0)
    stats = workload.stats
    ops = max(1, stats.produced + stats.consume_attempts)
    frames = network.stats.total_messages - frames_before
    scatter_ops = scatter_sum = 0
    if fabric:
        for node in nodes.values():
            scatter_ops += node.instance.fabric.scatter_ops
            scatter_sum += node.instance.fabric.scatter_width_sum
    return {
        "success": stats.success_rate,
        "frames_per_op": frames / ops,
        "latency": stats.mean_latency,
        "consumed": stats.consumed,
        "scatter_width": scatter_sum / max(1, scatter_ops),
    }


def test_t5b_tiamat_scalability(benchmark, report):
    results = benchmark.pedantic(
        lambda: {n: run_size(n) for n in SIZES}, rounds=1, iterations=1)

    table = Table(
        "T5b: Tiamat scaling curve (no global consistency to collapse)",
        ["hosts", "success rate", "frames/op", "items consumed"],
        caption=f"request/response workload, {DURATION:.0f}s, continuous "
                "propagation",
    )
    for n, row in results.items():
        table.add_row(n, row["success"], row["frames_per_op"], row["consumed"])
    report.table(table)

    # Success stays flat from 4 to 64 hosts — no consistency machinery to
    # collapse, the paper's scaling argument.
    for n in SIZES:
        assert results[n]["success"] > 0.7, f"success collapsed at {n} hosts"
    # Per-operation cost is at most linear in the population: a
    # full-coverage blocking op contacts every peer once (and the lease's
    # remote budget is the knob that trades coverage for cost — see T5,
    # where the default budget caps frames/op instead of success).
    growth = results[64]["frames_per_op"] / results[4]["frames_per_op"]
    assert growth < 2 * (64 / 4)


def test_t5b_fabric_scalability(benchmark, report):
    """Sharded fabric arm: contact cost is O(k), flat in the population.

    The union-scan baseline at 100 hosts pays ~n frames per blocking
    consume; the fabric routes the same ground-prefix pattern to its
    k-owner shard, so frames/op must stay bounded (≤ 8) and essentially
    flat from 100 to 1000 hosts.
    """
    def run_all():
        rows = {("fabric", n): run_size(n, fabric=True,
                                        duration=FABRIC_DURATION)
                for n in FABRIC_SIZES}
        rows[("union", 100)] = run_size(100, duration=FABRIC_DURATION)
        return rows

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "T5b fabric arm: O(k) contact cost vs the union scan",
        ["arm", "hosts", "success rate", "frames/op", "mean latency (s)",
         "items consumed"],
        caption=f"request/response workload, {FABRIC_DURATION:.0f}s, "
                "fabric k=2 replication, shard key = arity + 2 fields",
    )
    for (arm, n), row in results.items():
        table.add_row(arm, n, row["success"], row["frames_per_op"],
                      row["latency"], row["consumed"])
    report.table(table)

    union = results[("union", 100)]
    small = results[("fabric", 100)]
    # The headline: routed consumes beat the union scan by worse than 3x
    # at 100 hosts and stay under the absolute budget.
    assert small["frames_per_op"] <= 8.0, small
    assert union["frames_per_op"] >= 3 * small["frames_per_op"]
    assert (small["consumed"], union["consumed"]) == (440, 406)
    assert {
        "fabric_frames_per_op": small["frames_per_op"],
        "fabric_scatter_width": small["scatter_width"],
        "fabric_latency_s": small["latency"],
        "fabric_timeout_rate": 1.0 - small["success"],
        "union_frames_per_op": union["frames_per_op"],
    } == pytest.approx(FABRIC_PINS, rel=1e-9)
    for n in FABRIC_SIZES:
        row = results[("fabric", n)]
        assert row["success"] > 0.7, f"fabric success collapsed at {n} hosts"
        # O(k), not O(n): growing the population 10x must not move
        # frames/op by more than 2x (slack for gossip/heartbeat overhead).
        assert row["frames_per_op"] < 2 * small["frames_per_op"], (n, row)
