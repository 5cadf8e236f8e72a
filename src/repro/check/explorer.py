"""Schedule exploration: drive the sim kernel through adversarial runs.

One *schedule* is a complete deterministic world — instances, network,
drivers — built from a ``(template, seed, perturbations)`` triple and run
to a horizon under an installed :class:`~repro.check.oracles.InvariantMonitor`.
Exploration sweeps seeds (and templates) looking for any schedule whose
probe stream breaches an invariant.

Three perturbation layers, each independently switchable (the shrinker
ablates them to find which one a violation actually needs):

``tiebreak``
    Randomized same-instant event ordering via the kernel's
    :meth:`~repro.sim.kernel.Simulator.set_tiebreak` hook — turns FIFO
    ties (delivery vs. expiry, ack vs. retransmit) into explored races.
``faults``
    A :class:`~repro.net.faults.FaultPlan` of i.i.d. loss, duplication and
    bounded reordering on every frame.
``churn``
    Scheduled visibility-edge flips and node kill/revive during the run.

Determinism note: every replay of ``(template, seed, perturb,
max_events)`` is bit-identical — the property shrinking rests on — because
a world draws its ids from its own :meth:`~repro.sim.kernel.Simulator.ids`
and its randomness from its own named streams.  Exploration worlds use a
**size-independent** latency model (``per_byte=0``): every recorded
checker seed (the nightly's first violating schedule, the regression
seeds in the tests) names a schedule explored under flat per-frame
pricing, and pricing frames by size would re-map every seed.
"""

from __future__ import annotations

import hashlib
import os
import time as _time
from typing import Callable, Dict, List, Optional

from repro.check.oracles import InvariantMonitor, Violation
from repro.core.config import TiamatConfig
from repro.core.instance import TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net.churn import ChurnInjector
from repro.net.faults import DuplicateFrames, FaultPlan, RandomLoss, ReorderFrames
from repro.net.network import Network, default_latency
from repro.net.visibility import VisibilityGraph
from repro.sim.kernel import Simulator
from repro.tuples import Pattern, Tuple


class Perturbations:
    """Which adversarial layers are switched on for a run."""

    __slots__ = ("tiebreak", "faults", "churn")

    LAYERS = ("tiebreak", "faults", "churn")

    def __init__(self, tiebreak: bool = True, faults: bool = True,
                 churn: bool = True) -> None:
        self.tiebreak = tiebreak
        self.faults = faults
        self.churn = churn

    def without(self, layer: str) -> "Perturbations":
        """A copy with one layer switched off."""
        kwargs = {name: getattr(self, name) for name in self.LAYERS}
        kwargs[layer] = False
        return Perturbations(**kwargs)

    def enabled(self) -> List[str]:
        return [name for name in self.LAYERS if getattr(self, name)]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.LAYERS}

    @classmethod
    def from_dict(cls, data: dict) -> "Perturbations":
        return cls(**{name: bool(data.get(name, False))
                      for name in cls.LAYERS})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Perturbations {'+'.join(self.enabled()) or 'none'}>"


class RunOutcome:
    """Everything one explored schedule produced."""

    __slots__ = ("template", "seed", "perturb", "violations", "events",
                 "schedule_hash", "horizon", "probe_events", "tracer")

    def __init__(self, template: str, seed: int, perturb: Perturbations,
                 violations: List[Violation], events: int,
                 schedule_hash: str, horizon: float, probe_events: int,
                 tracer=None) -> None:
        self.template = template
        self.seed = seed
        self.perturb = perturb
        self.violations = violations
        self.events = events
        self.schedule_hash = schedule_hash
        self.horizon = horizon
        self.probe_events = probe_events
        self.tracer = tracer

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "clean" if self.clean else f"{len(self.violations)} violation(s)"
        return (f"<RunOutcome {self.template} seed={self.seed} "
                f"events={self.events} {state}>")


# ----------------------------------------------------------------------
# Scenario templates
# ----------------------------------------------------------------------
#: Registered template name -> builder.  A builder wires instances and
#: driver processes into the simulator and returns (instances, horizon).
TEMPLATES: Dict[str, Callable] = {}


def template(name: str):
    """Decorator registering a scenario builder under ``name``."""

    def register(builder):
        TEMPLATES[name] = builder
        return builder

    return register


def _terms(duration: float) -> SimpleLeaseRequester:
    return SimpleLeaseRequester(LeaseTerms(duration=duration))


@template("contended_take")
def build_contended_take(sim: Simulator, net: Network,
                         vis: VisibilityGraph, rng,
                         perturb: "Perturbations") -> tuple:
    """Three instances racing destructive takes over one stream of jobs.

    Front-loads every canary-sensitive shape in the first handful of
    events: two same-node blocked ``in``\\ s satisfied by one deposit
    (double-take bait), a local consume immediately re-probed (ghost
    bait), and an early probe whose lease ends at once (lease-accounting
    bait); then keeps the claim protocol busy with cross-node contention.
    """
    names = ["a", "b", "c"]
    insts = [TiamatInstance(sim, net, n) for n in names]
    vis.connect_clique(names)
    a, b, c = insts
    jobs = Pattern("job", int)

    def driver_a():
        # Two local blocked takes contending for the same first deposit.
        op1 = a.in_(jobs, requester=_terms(2.0))
        op2 = a.in_(jobs, requester=_terms(2.0))
        yield sim.timeout(0.001)
        a.out(Tuple("job", 0))
        # Local consume-then-reprobe (a ghost read surfaces immediately).
        a.out(Tuple("seen", 1))
        take = a.inp(Pattern("seen", int))
        yield take.event
        probe = a.rdp(Pattern("seen", int))
        yield probe.event
        yield op1.event
        yield op2.event
        # Ongoing contention for the cross-node takers.
        for i in range(1, 1 + 4 + rng.randint(0, 3)):
            yield sim.timeout(0.02 + rng.random() * 0.05)
            a.out(Tuple("job", i))

    def taker(inst, jitter):
        yield sim.timeout(0.002 + jitter)
        for _ in range(3):
            op = inst.in_(jobs, requester=_terms(0.4 + rng.random() * 0.4))
            yield op.event
            yield sim.timeout(rng.random() * 0.02)

    sim.spawn(driver_a())
    sim.spawn(taker(b, 0.0))
    sim.spawn(taker(c, rng.random() * 0.01))
    return insts, 3.0


@template("churn_union")
def build_churn_union(sim: Simulator, net: Network,
                      vis: VisibilityGraph, rng,
                      perturb: "Perturbations") -> tuple:
    """Four instances on a flapping chain: the union space under churn.

    Deposits land at both ends of an a–b–c–d chain while the middle
    nodes probe and take across it; edges flip and nodes crash/revive on
    a seeded timetable, so operations race visibility transitions.
    """
    names = ["a", "b", "c", "d"]
    insts = [TiamatInstance(sim, net, n) for n in names]
    for left, right in zip(names, names[1:]):
        vis.set_visible(left, right, True)
    a, b, c, d = insts
    churn = ChurnInjector(sim, vis, rng=sim.rng("check/churn"))

    def depositor(inst, tag, count):
        for i in range(count):
            yield sim.timeout(rng.random() * 0.2)
            try:
                inst.out(Tuple(tag, i))
            except Exception:
                pass  # lease refused under churn pressure: allowed

    def seeker(inst, tag):
        yield sim.timeout(0.01 + rng.random() * 0.05)
        for _ in range(3):
            op = inst.in_(Pattern(tag, int),
                          requester=_terms(0.3 + rng.random() * 0.5))
            yield op.event
            probe = inst.rdp(Pattern(tag, int), requester=_terms(0.3))
            yield probe.event
            yield sim.timeout(rng.random() * 0.05)

    sim.spawn(depositor(a, "west", 4))
    sim.spawn(depositor(d, "east", 4))
    sim.spawn(seeker(b, "east"))
    sim.spawn(seeker(c, "west"))
    # Seeded visibility churn: edge flaps plus one node crash/revive.
    # The draws happen regardless of the layer switch so ablating churn
    # keeps every other stream's randomness aligned.
    flips = []
    for _ in range(6):
        at = 0.05 + rng.random() * 1.5
        left, right = ("b", "c") if rng.random() < 0.5 else ("a", "b")
        up = rng.random() < 0.5
        flips.append((at, left, right, up))
    victim = rng.choice(["b", "c"])
    down_at = 0.2 + rng.random() * 0.8
    up_at = down_at + 0.2 + rng.random() * 0.4
    if perturb.churn:
        for at, left, right, up in flips:
            sim.schedule_at(at, vis.set_visible, left, right, up)
        churn.kill_at(victim, down_at)
        churn.revive_at(victim, up_at)
    return insts, 3.0


@template("lease_storm")
def build_lease_storm(sim: Simulator, net: Network,
                      vis: VisibilityGraph, rng,
                      perturb: "Perturbations") -> tuple:
    """Short leases, tight storage, admission shedding: refusal weather.

    One overloaded server with admission control on and one worker,
    hammered by two clients with sub-second leases; deposits squeeze a
    small storage budget so lease grant/expiry/refusal churns constantly —
    the lease-conservation and refusal-vocabulary oracles' home turf.
    """
    server_cfg = TiamatConfig(serve_cost=0.05, serve_workers=1,
                              admission_enabled=True,
                              admission_queue_bound=2)
    insts = [
        TiamatInstance(sim, net, "srv", config=server_cfg,
                       storage_capacity=160, thread_capacity=2),
        TiamatInstance(sim, net, "c1"),
        TiamatInstance(sim, net, "c2"),
    ]
    vis.connect_clique(["srv", "c1", "c2"])
    srv, c1, c2 = insts

    def feeder():
        for i in range(6):
            try:
                srv.out(Tuple("stock", i), requester=_terms(0.3))
            except Exception:
                pass  # storage refusal: part of the weather
            yield sim.timeout(0.05 + rng.random() * 0.1)

    def client(inst, jitter):
        yield sim.timeout(jitter)
        for _ in range(5):
            op = inst.in_(Pattern("stock", int),
                          requester=_terms(0.15 + rng.random() * 0.2))
            yield op.event
            probe = inst.rdp(Pattern("stock", int),
                             requester=_terms(0.1))
            yield probe.event
            yield sim.timeout(rng.random() * 0.03)

    sim.spawn(feeder())
    sim.spawn(client(c1, 0.0))
    sim.spawn(client(c2, 0.005 + rng.random() * 0.01))
    return insts, 3.0


@template("crash_recover")
def build_crash_recover(sim: Simulator, net: Network,
                        vis: VisibilityGraph, rng,
                        perturb: "Perturbations") -> tuple:
    """A durable producer killed mid-run: exactly-once across process death.

    ``srv`` deposits jobs under a write-ahead-log backend (in-memory
    filesystem) while two consumers take them remotely through the claim
    protocol — so every destructive consume is witnessed by its origin.
    On a seeded timetable the server dies twice; each death may land
    mid-compaction (snapshot written, WAL reset lost) and always tears a
    seeded number of bytes off the WAL tail, modelling an append in
    flight at the moment of power loss.  Recovery truncates the torn
    tail, replays the log, quarantines the survivors, and reconciles
    with the consumers before releasing anything — the exactly-once
    oracle flags any resurrected consumed tuple the instant a consumer
    takes it twice, and the ghost-read oracle watches the store indexes
    throughout.

    Every random draw happens regardless of the churn switch, so
    ablating the crash layer keeps all other streams aligned.
    """
    from repro.net.faults import CrashRestartInjector
    from repro.tuples.storage import MemoryFS, WALBackend, attach_backend

    names = ["srv", "c1", "c2"]
    edges = [("srv", "c1"), ("srv", "c2"), ("c1", "c2")]
    registry = {n: TiamatInstance(sim, net, n) for n in names}
    for left, right in edges:
        vis.set_visible(left, right, True)

    def factory(name: str) -> TiamatInstance:
        inst = TiamatInstance(sim, net, name)
        # Network.detach dropped the victim's visibility edges at crash.
        for left, right in edges:
            if name in (left, right):
                vis.set_visible(left, right, True)
        return inst

    backend = attach_backend(
        registry["srv"].space,
        WALBackend("srv", fs=MemoryFS(), compact_every=6))
    injector = CrashRestartInjector(sim, registry, factory,
                                    backends={"srv": backend})
    jobs = Pattern("job", int)

    def producer():
        for i in range(10):
            yield sim.timeout(0.05 + rng.random() * 0.15)
            inst = registry.get("srv")
            if inst is None:
                continue  # down: this deposit was never acknowledged
            try:
                inst.out(Tuple("job", i), requester=_terms(30.0))
            except Exception:
                pass  # lease refused: the deposit failed before storage

    def consumer(name, jitter):
        yield sim.timeout(jitter)
        for _ in range(4):
            op = registry[name].in_(
                jobs, requester=_terms(0.6 + rng.random() * 0.4))
            yield op.event
            yield sim.timeout(rng.random() * 0.05)

    sim.spawn(producer())
    sim.spawn(consumer("c1", 0.1))
    sim.spawn(consumer("c2", 0.12 + rng.random() * 0.05))

    # Two seeded kill cycles, each with its own kill-point geometry.
    cycles = []
    for base in (0.5, 1.6):
        crash_at = base + rng.random() * 0.4
        restart_at = crash_at + 0.15 + rng.random() * 0.25
        mid_compact = rng.random() < 0.5
        chop = rng.randint(1, 24)
        cycles.append((crash_at, restart_at, mid_compact, chop))

    def kill(mid_compact: bool, chop: int) -> None:
        if "srv" not in registry:
            return
        if mid_compact:
            # Kill-point: snapshot landed, WAL reset never happened.
            backend.compact(sim.now, _crash_after_snapshot=True)
        injector.crash("srv")
        # Kill-point: the final append was in flight when power died.
        backend.tear_tail(chop)

    if perturb.churn:
        for crash_at, restart_at, mid_compact, chop in cycles:
            sim.schedule_at(crash_at, kill, mid_compact, chop)
            sim.schedule_at(restart_at, injector.restart, "srv")
    return list(registry.values()), 3.0


@template("fabric_churn")
def build_fabric_churn(sim: Simulator, net: Network,
                       vis: VisibilityGraph, rng,
                       perturb: "Perturbations") -> tuple:
    """Five fabric members under churn: shard handoff must stay exactly-once.

    All five instances run the sharded + replicated fabric (k=2, tight
    membership leases so handoff happens within the horizon).  A producer
    streams jobs across three shard keys while two consumers take them
    with ground-prefix patterns — O(k) routed, no union scan.  On a
    seeded timetable the *primary owner of one of those shard keys*
    crashes and later revives as a fresh, empty instance: its member
    lease lapses, the survivors run the witness sync and promote their
    quarantined replicas (satisfying any `in` blocked on that shard), and
    the revival triggers rebalance migrations back.  The exactly-once
    oracle flags a replica released after its primary's copy was consumed;
    the no-ghost-read oracle watches the store indexes throughout.

    Every random draw happens regardless of the churn switch, so ablating
    the crash layer keeps all other streams aligned.
    """
    from repro.fabric import FabricConfig, shard_key

    names = ["a", "b", "c", "d", "e"]
    edges = [(l, r) for i, l in enumerate(names) for r in names[i + 1:]]

    def make_config() -> TiamatConfig:
        return TiamatConfig(fabric=FabricConfig(
            replication=2, key_fields=2, membership_lease=0.8,
            heartbeat_period=0.25, migrate_timeout=0.4))

    registry = {n: TiamatInstance(sim, net, n, config=make_config())
                for n in names}
    for left, right in edges:
        vis.set_visible(left, right, True)
    for inst in registry.values():
        inst.fabric.bootstrap(names)

    keys = ["k0", "k1", "k2"]
    # The victim is the primary owner of the first shard key — its death
    # forces a real ownership handoff, not just membership noise.
    probe_key = shard_key(Tuple("job", keys[0], 0), key_fields=2)
    victim = registry["a"].fabric.map.ring(sim.now).owners(probe_key, 1)[0]

    def producer():
        for i in range(9):
            yield sim.timeout(0.04 + rng.random() * 0.18)
            inst = registry.get("a")
            if inst is None:
                continue  # producer node down: this deposit never happened
            try:
                inst.out(Tuple("job", keys[i % len(keys)], i))
            except Exception:
                pass  # lease refused: allowed weather

    def consumer(name: str, jitter: float):
        yield sim.timeout(jitter)
        for j in range(4):
            inst = registry.get(name)
            if inst is None:
                yield sim.timeout(0.2)
                continue  # our node is down this round
            op = inst.in_(Pattern("job", keys[(j * 2) % len(keys)], int),
                          requester=_terms(0.5 + rng.random() * 0.5))
            yield op.event
            yield sim.timeout(rng.random() * 0.06)

    sim.spawn(producer())
    sim.spawn(consumer("b" if victim != "b" else "c", 0.1))
    sim.spawn(consumer("d" if victim != "d" else "e",
                       0.12 + rng.random() * 0.05))

    # One seeded crash/revive cycle.  The revival is a *fresh* instance
    # (empty space): resurrecting the dead node's copies alongside the
    # promoted replicas would itself be the double-consume bug this
    # template hunts, so only promotion/migration may restore state.
    crash_at = 0.5 + rng.random() * 0.5
    revive_at = crash_at + 0.5 + rng.random() * 0.5

    def crash() -> None:
        inst = registry.pop(victim, None)
        if inst is not None:
            inst.shutdown()

    def revive() -> None:
        inst = TiamatInstance(sim, net, victim, config=make_config())
        for left, right in edges:
            if victim in (left, right):
                vis.set_visible(left, right, True)
        inst.fabric.bootstrap(sorted(registry) + [victim])
        registry[victim] = inst

    if perturb.churn:
        sim.schedule_at(crash_at, crash)
        sim.schedule_at(revive_at, revive)
    return list(registry.values()), 3.5


@template("agent_swarm")
def build_agent_swarm(sim: Simulator, net: Network,
                      vis: VisibilityGraph, rng,
                      perturb: "Perturbations") -> tuple:
    """A blackboard swarm under a bid storm, churn mid-claim, lost verdicts.

    A board plus two agents run the :mod:`repro.apps.agents` coordination
    protocol with tight timings; the board moonlights as a claimant
    (``board_worker``) so local claims race remote ones within the first
    handful of events — the ``double_claim`` canary fires almost
    immediately, which keeps its shrunk prefix short.  A seeded bid storm
    of independent tasks lands at t=0 together with one two-option ballot
    (``split_vote`` bait: the three claimants' deterministic preferences
    disagree) and one broadcast question.  On a seeded timetable one
    agent crashes mid-claim and revives empty — its wip marker and votes
    die with it, so re-offers, re-votes and lost decision verdicts are
    all part of the weather the claim-exclusivity and quorum-safety
    oracles must stay clean under.
    """
    from repro.apps.agents import AgentSwarm, SwarmConfig, TaskSpec

    swarm = AgentSwarm(
        sim, net, vis, agents=("wa", "wb"), board_worker=True,
        config=SwarmConfig(claim_ttl=0.8, reoffer_grace=0.5,
                           reoffer_poll=0.2, poll=0.04, work_mean=0.12,
                           op_lease=0.5))
    # Bid storm: a seeded burst of independent offers, all claimable at
    # once, plus one two-deep dependency pair for offer-gating coverage.
    # Intake is deferred to t=0 so every deposit (and its lease) happens
    # under the invariant monitor, which installs after the build.
    burst = 4 + rng.randint(0, 2)
    specs = [TaskSpec(i, f"storm{i}") for i in range(burst)]
    specs.append(TaskSpec(burst, "gated", (0,)))

    def intake() -> None:
        swarm.submit(specs)
        swarm.ask_vote(0, ["alpha", "beta"])
        swarm.ask_question(0, "status")

    # Intake strictly precedes the first agent step (the tiebreak layer
    # randomizes ordering within one timestamp): the very first ballot
    # pass already sees the vote, so canary violations land within the
    # shrinker's event budget.
    sim.schedule_at(0.0, intake)
    sim.schedule_at(0.002, swarm.start)

    # Seeded churn mid-claim: one agent dies while the storm is being
    # claimed and revives as a fresh, empty instance (wip markers, votes
    # and un-collected done records all die with it).  The draws happen
    # regardless of the layer switch so ablating churn keeps every other
    # stream's randomness aligned.
    victim = rng.choice(["wa", "wb"])
    crash_at = 0.3 + rng.random() * 0.6
    revive_at = crash_at + 0.3 + rng.random() * 0.5
    if perturb.churn:
        sim.schedule_at(crash_at, lambda: swarm.crash_agent(victim))
        sim.schedule_at(revive_at, lambda: swarm.revive_agent(victim))
    return list(swarm.registry.values()), 3.0


# ----------------------------------------------------------------------
# Running one schedule
# ----------------------------------------------------------------------
def run_schedule(template_name: str, seed: int,
                 perturb: Optional[Perturbations] = None,
                 max_events: Optional[int] = None,
                 trace: bool = False,
                 monitored: bool = True) -> RunOutcome:
    """Build and run one seeded schedule under the invariant monitor.

    Fully deterministic: the same ``(template, seed, perturb,
    max_events)`` always produces the same schedule hash and the same
    violations (see module docstring on latency pricing).

    ``monitored=False`` runs the identical world with **no probe sink
    installed** — the passivity control: its schedule hash must be
    bit-identical to the monitored run's
    (``tests/test_check_oracles.py::test_probes_are_observationally_passive``).
    """
    if template_name not in TEMPLATES:
        raise ValueError(f"unknown scenario template {template_name!r}; "
                         f"have {sorted(TEMPLATES)}")
    perturb = perturb if perturb is not None else Perturbations()
    sim = Simulator(seed=seed)
    if perturb.tiebreak:
        tiebreak_rng = sim.rng("check/tiebreak")
        sim.set_tiebreak(tiebreak_rng.random)
    vis = VisibilityGraph()
    # Size-independent latency: the recorded seeds were explored under it
    # (see module docstring).
    net = Network(sim, visibility=vis,
                  latency_factory=default_latency(per_byte=0.0))
    if perturb.faults:
        # The nightly chaos soak raises the stakes via REPRO_CHAOS_LOSS
        # (same knob as the T10 bench); determinism is per-environment —
        # the same (template, seed, perturb, loss) always replays.
        loss = float(os.environ.get("REPRO_CHAOS_LOSS", "") or 0.08)
        net.use_faults(FaultPlan([
            RandomLoss(loss),
            DuplicateFrames(0.05),
            ReorderFrames(0.1, max_extra_delay=0.02),
        ]))
    tracer = sim.obs.start_trace(net) if trace else None
    scenario_rng = sim.rng("check/scenario")
    instances, horizon = TEMPLATES[template_name](sim, net, vis,
                                                  scenario_rng, perturb)

    hasher = hashlib.sha256()

    def record(timer):
        label = getattr(timer.callback, "__qualname__", "?")
        hasher.update(f"{timer.time:.9f}|{label}\n".encode())

    sim.event_hook = record
    if monitored:
        monitor = InvariantMonitor(sim)
        with monitor:
            sim.run(until=horizon, max_events=max_events)
            monitor.finish()
            monitor.check_managers([inst.leases for inst in instances])
        violations = monitor.violations
        probe_events = monitor.events_seen
    else:
        sim.run(until=horizon, max_events=max_events)
        violations = []
        probe_events = 0
    sim.event_hook = None
    return RunOutcome(template_name, seed, perturb, violations,
                      sim.events_processed, hasher.hexdigest(), horizon,
                      probe_events, tracer)


# ----------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------
class ExploreResult:
    """Aggregate outcome of one exploration sweep."""

    def __init__(self) -> None:
        self.schedules_run = 0
        self.events_total = 0
        self.per_template: Dict[str, int] = {}
        self.reports: list = []   # CheckReports (shrunk violations)
        self.elapsed = 0.0

    @property
    def clean(self) -> bool:
        return not self.reports

    @property
    def schedules_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.schedules_run / self.elapsed

    def summary(self) -> str:
        lines = [
            f"schedules explored : {self.schedules_run}",
            f"kernel events      : {self.events_total}",
            f"wall time          : {self.elapsed:.2f}s "
            f"({self.schedules_per_second:.1f} schedules/s)",
        ]
        for name in sorted(self.per_template):
            lines.append(f"  template {name:<16} {self.per_template[name]}")
        if self.clean:
            lines.append("verdict            : CLEAN (no invariant violations)")
        else:
            lines.append(f"verdict            : {len(self.reports)} VIOLATION(S)")
            for report in self.reports:
                lines.append("  " + report.headline())
        return "\n".join(lines)


class Explorer:
    """Sweeps seeds across scenario templates, shrinking any violation."""

    def __init__(self, templates: Optional[List[str]] = None,
                 perturb: Optional[Perturbations] = None,
                 shrink: bool = True) -> None:
        self.templates = templates if templates is not None else sorted(TEMPLATES)
        for name in self.templates:
            if name not in TEMPLATES:
                raise ValueError(f"unknown scenario template {name!r}")
        self.perturb = perturb if perturb is not None else Perturbations()
        self.shrink = shrink

    def run(self, schedules: int = 200, seed_base: int = 0,
            stop_on_violation: bool = True,
            progress: Optional[Callable[[int, int], None]] = None) -> ExploreResult:
        """Explore ``schedules`` runs, round-robin over the templates."""
        from repro.check.shrink import shrink_violation

        result = ExploreResult()
        started = _time.perf_counter()
        for i in range(schedules):
            template_name = self.templates[i % len(self.templates)]
            seed = seed_base + i
            outcome = run_schedule(template_name, seed, self.perturb)
            result.schedules_run += 1
            result.events_total += outcome.events
            result.per_template[template_name] = (
                result.per_template.get(template_name, 0) + 1)
            if progress is not None:
                progress(i + 1, schedules)
            if not outcome.clean:
                if self.shrink:
                    result.reports.append(shrink_violation(outcome))
                else:
                    from repro.check.shrink import CheckReport

                    result.reports.append(CheckReport.from_outcome(outcome))
                if stop_on_violation:
                    break
        result.elapsed = _time.perf_counter() - started
        return result
