"""T10: exactly-once destructive `in` under adversarial networks.

The paper's protocol is explicitly best-effort; our two-phase destructive
match (QUERY -> offer -> CLAIM_ACCEPT/REJECT) is the one place where
best-effort is not good enough: a single lost CLAIM_ACCEPT silently
downgrades an ``in`` from exactly-once to at-most-twice (the origin
believes it consumed the tuple while the serving side puts it back on
claim timeout), and a duplicated offer can be answered twice with
contradictory verdicts.

This chaos bench attacks that path with the :mod:`repro.net.faults`
injectors and measures, per network condition and with the reliability
sublayer ON vs OFF:

* **success** — fraction of destructive ``in`` operations satisfied
  within their lease;
* **dup consumes** — tuples the origin believes it consumed that are
  nevertheless still present in (or were re-taken from) the serving
  space afterwards: the exactly-once violation count, which must be 0
  with the sublayer on;
* **msgs/op** — total frames (including acks and retransmissions)
  divided by operations: the price paid for reliability.

Conditions: no loss, 5% i.i.d., 20% i.i.d., and a Gilbert-Elliott burst
regime laced with frame duplication and bounded reordering.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from repro.bench import Table
from repro.core import TiamatConfig, TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import (
    CrashRestartInjector,
    DuplicateFrames,
    FaultPlan,
    GilbertElliottLoss,
    Network,
    ReorderFrames,
)
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple
from repro.tuples.serialization import decode_tuple, decode_tuple_binary
from repro.tuples.storage import WALBackend, attach_backend

ITEMS = 40                    # destructive in ops per run
SEEDS = (101, 202, 303)       # every cell aggregates these runs
ITEM_LEASE = 2000.0           # deposits must outlive the whole run
IN_LEASE = 10.0               # per-op effort budget
CLAIM_TIMEOUT = 4.0           # claim window (both arms, for fairness)

CONDITIONS = [
    ("none", 0.0),
    ("iid 5%", 0.05),
    ("iid 20%", 0.2),
    ("burst", "burst"),
]

# The nightly chaos job raises the stakes: REPRO_CHAOS_LOSS=0.25 appends an
# elevated-loss i.i.d. condition; the exactly-once assertion below covers
# every condition, so the soak fails if the sublayer cracks under it.
_chaos_loss = float(os.environ.get("REPRO_CHAOS_LOSS", "0") or 0.0)
if _chaos_loss > 0.0:
    CONDITIONS.append((f"iid {_chaos_loss:.0%} (chaos)", _chaos_loss))


def _burst_plan() -> FaultPlan:
    """The adversary for the burst row: GE loss + duplication + reorder."""
    return FaultPlan([
        GilbertElliottLoss(p_gb=0.05, p_bg=0.5),
        DuplicateFrames(0.08),
        ReorderFrames(0.15, max_extra_delay=0.05),
    ])


def run_cell(loss_mode, reliable: bool, seed: int) -> dict:
    """One server/consumer chaos run; returns raw counts."""
    sim = Simulator(seed=seed)
    loss_rate = loss_mode if isinstance(loss_mode, float) else 0.0
    net = Network(sim, loss_rate=loss_rate)
    if loss_mode == "burst":
        net.use_faults(_burst_plan())
    config = dict(reliability_enabled=reliable, claim_timeout=CLAIM_TIMEOUT)
    server = TiamatInstance(sim, net, "server", config=TiamatConfig(**config))
    client = TiamatInstance(sim, net, "client", config=TiamatConfig(**config))
    net.visibility.set_visible("server", "client")

    for i in range(ITEMS):
        server.out(Tuple("item", i),
                   requester=SimpleLeaseRequester(
                       LeaseTerms(duration=ITEM_LEASE)))

    consumed: list[int] = []
    audit = {"ghosts": 0}

    def scenario():
        # Warm the MRU list so every measured op starts from the same
        # steady state (discovery is best-effort and may need a retry).
        while "server" not in client.comms.plan():
            yield client.comms.discover()
        net.stats.reset()
        for i in range(ITEMS):
            op = client.in_(Pattern("item", i),
                            requester=SimpleLeaseRequester(
                                LeaseTerms(duration=IN_LEASE, max_remotes=8)))
            result = yield op.event
            if result is not None:
                consumed.append(i)
        # Let outstanding claim windows resolve (a lost CLAIM_ACCEPT is
        # put back ``claim_timeout`` after the offer), then audit against
        # sim-level ground truth *before* the deposit leases expire: an
        # item the client believes it consumed must be gone from the
        # serving space — anything still there is a duplicate-consumable
        # ghost, i.e. an exactly-once violation.
        yield sim.timeout(2.0 * CLAIM_TIMEOUT)
        audit["ghosts"] = sum(1 for i in consumed
                              if server.space.count(Pattern("item", i)) > 0)

    sim.spawn(scenario())
    sim.run(until=3000.0)
    ghosts = audit["ghosts"]
    return {
        "ops": ITEMS,
        "satisfied": len(consumed),
        "dup_consumes": ghosts,
        "messages": net.stats.total_messages,
        "retransmits": client.reliability.retransmits
        + server.reliability.retransmits,
        "dedup_drops": client.reliability.duplicates_dropped
        + server.reliability.duplicates_dropped,
        "registry": sim.obs.registry,
    }


def run_grid() -> dict:
    """All conditions x {reliable, best-effort}, aggregated over SEEDS."""
    grid = {}
    for label, loss_mode in CONDITIONS:
        for reliable in (True, False):
            total = {"ops": 0, "satisfied": 0, "dup_consumes": 0,
                     "messages": 0, "retransmits": 0, "dedup_drops": 0}
            for seed in SEEDS:
                cell = run_cell(loss_mode, reliable, seed)
                for key in total:
                    total[key] += cell[key]
            grid[(label, reliable)] = total
            # Keep the telemetry of the last (burst, reliable) style cell:
            # the report gets one full registry snapshot for cross-checking.
            grid["_registry"] = cell["registry"]
    return grid


def test_t10_fault_tolerance(benchmark, report):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    report.metrics(grid.pop("_registry"))

    table = Table(
        "T10: destructive `in` under chaos - reliability sublayer ablation",
        ["loss", "reliability", "success", "dup consumes", "msgs/op",
         "retransmits", "dedup drops"],
        caption=f"{ITEMS} ops x {len(SEEDS)} seeds per cell; burst = "
                "Gilbert-Elliott (mean burst 2 frames) + 8% duplication "
                "+ reordering",
    )
    for label, _ in CONDITIONS:
        for reliable in (True, False):
            cell = grid[(label, reliable)]
            table.add_row(
                label,
                "on" if reliable else "off",
                f"{cell['satisfied'] / cell['ops']:.3f}",
                cell["dup_consumes"],
                f"{cell['messages'] / cell['ops']:.1f}",
                cell["retransmits"],
                cell["dedup_drops"],
            )
    report.table(table)

    # --- acceptance: exactly-once everywhere the sublayer is on -------
    for label, _ in CONDITIONS:
        on = grid[(label, True)]
        assert on["dup_consumes"] == 0, (label, on)
    # ... with high success even under 20% i.i.d. loss and burst loss.
    assert grid[("iid 20%", True)]["satisfied"] >= 0.95 * grid[("iid 20%", True)]["ops"]
    assert grid[("burst", True)]["satisfied"] >= 0.95 * grid[("burst", True)]["ops"]
    # Clean network: both arms are perfect (the sublayer costs only acks).
    assert grid[("none", True)]["satisfied"] == grid[("none", True)]["ops"]
    assert grid[("none", False)]["dup_consumes"] == 0

    # --- ablation: best-effort measurably degrades under fire ---------
    off_20 = grid[("iid 20%", False)]
    off_burst = grid[("burst", False)]
    degraded = (off_20["dup_consumes"] + off_burst["dup_consumes"] > 0
                or off_20["satisfied"] < grid[("iid 20%", True)]["satisfied"]
                or off_burst["satisfied"] < grid[("burst", True)]["satisfied"])
    assert degraded, (off_20, off_burst)


# ---------------------------------------------------------------------------
# T10 durability arm: crash/restart soak over the write-ahead log
# ---------------------------------------------------------------------------
#
# The chaos above attacks the *wire*; this arm attacks the *disk*.  A
# server whose space sits on a WALBackend (real files, OsFS) is killed
# and recovered over and over — sometimes mid-compaction (snapshot
# landed, WAL not yet reset), sometimes with the final WAL record torn
# mid-append — while a client consumes against it.  The audit is exact
# conservation against sim-level ground truth, after every single cycle:
#
# * **zero lost acknowledged outs** — every deposit whose WAL append
#   survived intact is present after recovery (a deposit torn out of the
#   log mid-append was never durable, so losing it is allowed — and
#   counted);
# * **zero resurrected consumed tuples** — a consume whose `rm` record
#   was torn off the tail comes back *quarantined* and is purged by the
#   anti-entropy rejoin (the consuming client witnessed the claim), so it
#   must never be observable again.

DURABILITY_CYCLES = 100        # crash/restart cycles per arm
DURABILITY_ARMS = [("json", 11)]

# The nightly durability soak (REPRO_CHAOS_DURABLE=1) widens the sweep:
# the binary storage codec on the same log format, plus a fresh seed.
if os.environ.get("REPRO_CHAOS_DURABLE"):
    DURABILITY_ARMS += [("binary", 23), ("json", 37)]


def run_durability(codec: str, seed: int,
                   cycles: int = DURABILITY_CYCLES) -> dict:
    """One crash/restart soak; returns exact-conservation counters."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    registry: dict = {}

    def factory(name: str) -> TiamatInstance:
        instance = TiamatInstance(sim, net, name)
        for peer in ("server", "client"):
            if peer != name:
                net.visibility.set_visible(name, peer)
                net.visibility.set_visible(peer, name)
        return instance

    registry["server"] = factory("server")
    registry["client"] = factory("client")

    wal_dir = tempfile.mkdtemp(prefix="repro-t10-durable-")
    backend = WALBackend(os.path.join(wal_dir, "server"), codec=codec,
                         compact_every=32)
    attach_backend(registry["server"].space, backend)
    injector = CrashRestartInjector(sim, registry, factory,
                                    backends={"server": backend})
    dec = decode_tuple_binary if codec == "binary" else decode_tuple

    # Chaos schedule rng: deliberately NOT the sim's stream, so the kill
    # schedule is a property of the arm, not of message timing.
    rng = random.Random(seed * 7919 + 17)
    counts = {"deposits": 0, "consumes": 0, "torn_outs": 0, "torn_rms": 0,
              "mid_compaction_kills": 0, "lost_acked": 0, "resurrected": 0}
    acked: set = set()          # deposits durably in the log
    consumed: set = set()       # items the client saw an in() succeed for
    next_item = [0]

    def deposit(n: int) -> None:
        server = registry["server"]
        for _ in range(n):
            item = next_item[0]
            next_item[0] += 1
            server.out(Tuple("job", item),
                       requester=SimpleLeaseRequester(
                           LeaseTerms(duration=1e6)))
            acked.add(item)
            counts["deposits"] += 1

    def driver():
        client = registry["client"]
        while "server" not in client.comms.plan():
            yield client.comms.discover()
        for _cycle in range(cycles):
            # -- workload slice: deposits + remote destructive ins ------
            # deposit_last decides which record kind sits on the WAL tail
            # (and so which kind a tear damages): the quiesce drains the
            # in-flight CLAIM_ACCEPTs, whose server-side `rm` records
            # otherwise land after everything else.
            deposit_last = rng.random() < 0.5
            ndep = rng.randint(1, 3)
            if not deposit_last:
                deposit(ndep)
            live = sorted(acked - consumed)
            for item in rng.sample(live, min(len(live), rng.randint(1, 2))):
                op = client.in_(Pattern("job", item),
                                requester=SimpleLeaseRequester(
                                    LeaseTerms(duration=8.0, max_remotes=4)))
                result = yield op.event
                if result is not None:
                    consumed.add(item)
                    counts["consumes"] += 1
            yield sim.timeout(0.05)     # drain in-flight acks: quiesce
            if deposit_last:
                deposit(ndep)           # synchronous and durable; the
                                        # crash below can tear the tail out
            # -- kill ---------------------------------------------------
            mid_kill = rng.random() < 0.3
            if mid_kill:
                # Snapshot lands, WAL is never reset: the idempotent-
                # replay window.  The kill below hits inside it.
                backend.compact(sim.now, _crash_after_snapshot=True)
                counts["mid_compaction_kills"] += 1
            injector.crash("server")
            if rng.random() < 0.6:
                torn = backend.tear_tail(rng.randint(1, 28))
                if torn is not None and torn.get("op") == "out":
                    counts["torn_outs"] += 1
                    if not mid_kill:
                        # Torn mid-append: never durable, loss allowed.
                        # (After a mid-compaction kill the snapshot
                        # already holds it, so it survives regardless.)
                        acked.discard(dec(torn["tup"]).fields[1])
                elif torn is not None and torn.get("op") == "rm":
                    counts["torn_rms"] += 1
            yield sim.timeout(0.1 + rng.random() * 0.4)
            # -- recover + anti-entropy rejoin --------------------------
            injector.restart("server")
            yield sim.timeout(1.0)      # let SYNC_REQUEST/RESPONSE settle
            # -- exact-conservation audit -------------------------------
            server = registry["server"]
            for item in sorted(acked - consumed):
                if server.space.count(Pattern("job", item)) != 1:
                    counts["lost_acked"] += 1
            for item in sorted(consumed):
                if server.space.count(Pattern("job", item)) != 0:
                    counts["resurrected"] += 1

    sim.spawn(driver())
    sim.run(until=1e6)
    shutil.rmtree(wal_dir, ignore_errors=True)
    counts.update(
        cycles=cycles, crashes=injector.crashes, restarts=injector.restarts,
        restored=injector.tuples_restored, ghosts=injector.ghosts_purged,
        compactions=backend.compactions, torn=backend.torn_truncations,
        registry=sim.obs.registry)
    return counts


def test_t10_durability(benchmark, report):
    arms = benchmark.pedantic(
        lambda: [(codec, seed, run_durability(codec, seed))
                 for codec, seed in DURABILITY_ARMS],
        rounds=1, iterations=1)
    report.metrics(arms[-1][2].pop("registry"))

    table = Table(
        "T10 durability: WAL crash/restart soak - exact conservation",
        ["codec", "seed", "cycles", "deposits", "consumes", "torn outs",
         "torn rms", "mid-compact kills", "ghosts purged", "lost acked",
         "resurrected"],
        caption=f"{DURABILITY_CYCLES} kill/recover cycles per arm over a "
                "real on-disk WAL; torn outs were never durable (loss "
                "allowed), torn rms are healed by the anti-entropy rejoin",
    )
    for codec, seed, arm in arms:
        arm.pop("registry", None)
        table.add_row(codec, seed, arm["cycles"], arm["deposits"],
                      arm["consumes"], arm["torn_outs"], arm["torn_rms"],
                      arm["mid_compaction_kills"], arm["ghosts"],
                      arm["lost_acked"], arm["resurrected"])
    report.table(table)

    for codec, seed, arm in arms:
        # The headline claims: nothing durably acknowledged is ever lost,
        # nothing consumed ever comes back.
        assert arm["lost_acked"] == 0, (codec, seed, arm)
        assert arm["resurrected"] == 0, (codec, seed, arm)
        # The soak genuinely exercised the machinery it audits.
        assert arm["crashes"] == arm["cycles"] == arm["restarts"]
        assert arm["mid_compaction_kills"] > 0
        assert arm["torn_rms"] > 0 and arm["torn_outs"] > 0, arm
        assert arm["ghosts"] > 0, arm          # torn consumed-rm healed
        assert arm["compactions"] > 0, arm
