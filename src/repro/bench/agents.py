"""The T12 agent-coordination scenario: blackboard vs centralized master
under churn.

Two arms run the same streaming task workload plus periodic ballots for
``DURATION`` virtual seconds, with and without 20% agent downtime:

**blackboard** (:class:`repro.apps.agents.AgentSwarm`)
    Tasks are durable tuples on an admission-controlled board; agents
    bid/claim via leased ``inp``, lease expiry re-offers abandoned work,
    completion is gated by a token (exactly-once by construction), and
    ballots settle by rd-quorum with a decision token.  Nobody schedules
    anybody: a crashed agent's claims simply expire.

**central**
    The classic master/worker baseline: one master assigns each task to
    a *specific* worker (a directed assignment tuple naming it), workers
    return results with a directed ``out_at``, and the master reassigns
    any task whose result has not arrived within ``REASSIGN_AFTER``
    seconds.  Ballots are also master-mediated: the master hands each
    worker a directed vote request and tallies replies itself.  The
    master must *notice* each crash through a timeout before recovering,
    so churn shows up as reassignment latency — and a slow (not dead)
    worker racing its reassigned copy can produce duplicate completions,
    which the blackboard's token gate rules out.

Both arms share a seeded discrete-event simulation, so every metric is
exactly reproducible; ``benchmarks/test_t12_agents.py`` pins the
headline figures exactly and CI's ``bench-gate`` job runs it.

Measured per (arm, churn) point:

* **goodput** — tasks completed per virtual second;
* **duplicates** — completion records beyond the first per task
  (must be 0 for the blackboard arm);
* **fairness** — Jain's index over per-worker completion counts;
* **max_peer_debt** — the worst ``admission_peer_debt`` gauge on the
  board (blackboard arm only): how hard the busiest agent leaned on the
  board's fair-share bucket;
* **consensus** — ballots decided, and mean time from ballot open to
  the recorded decision.

Used by both ``benchmarks/test_t12_agents.py`` (assertions + committed
report) and ``python -m repro.cli agents`` (interactive).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple as Tup

from repro.apps.agents import (
    AgentSwarm,
    SwarmConfig,
    jain_fairness,
)
from repro.core import TiamatConfig, TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import Network, VisibilityGraph
from repro.sim import Simulator
from repro.tuples import Formal, Pattern, Tuple

__all__ = [
    "AgentsPoint",
    "T12Result",
    "run_blackboard_point",
    "run_central_point",
    "run_t12",
]

#: Default scenario shape (a point runs in a couple of wall seconds).
AGENTS = 6             # claimant agents (the board never crashes; nor does
                       # the central master — the comparison is fair)
DURATION = 24.0        # virtual seconds of offered work per point
CHURN = 0.2            # target fraction of time each agent spends down
MEAN_DOWNTIME = 1.5    # mean crash outage, seconds (uptime follows churn)
WORK_MEAN = 0.15       # mean virtual work per task
STREAM_INFLIGHT = 12   # blackboard supply: tasks kept outstanding
BALLOTS = 3            # consensus rounds opened at spread times
REASSIGN_AFTER = 2.0   # central master's liveness timeout per assignment
VOTE_OPTIONS = ("alpha", "beta", "gamma")

# Central-arm tuple vocabulary (master's space only).
ASSIGN_TAG = "cassign"
RESULT_TAG = "cres"
VOTE_REQ_TAG = "cvq"
VOTE_REPLY_TAG = "cvote"


def _req(duration: float, max_remotes: int = 16) -> SimpleLeaseRequester:
    return SimpleLeaseRequester(LeaseTerms(duration=duration,
                                           max_remotes=max_remotes))


def _chaos_loss() -> float:
    """Extra i.i.d. frame loss for the nightly soak (``REPRO_CHAOS_LOSS``).

    Zero in the PR gate (where T12's figures are pinned exactly); the
    nightly job sets 0.25 to stack a lossy wire on top of agent churn —
    the exactly-once and goodput claims must survive both at once.
    """
    return float(os.environ.get("REPRO_CHAOS_LOSS", "0") or 0.0)


@dataclass
class AgentsPoint:
    """Outcome of one (arm, churn) run."""

    arm: str                     # "blackboard" | "central"
    churn: float                 # target downtime fraction
    duration: float
    completed: int = 0           # distinct tasks completed
    goodput: float = 0.0         # completed / duration, tasks/s
    duplicates: int = 0          # completion records beyond the first
    fairness: float = 1.0        # Jain's index over per-worker completions
    max_peer_debt: float = 0.0   # worst admission fair-share debt (board)
    consensus_opened: int = 0
    consensus_decided: int = 0
    consensus_mean: float = 0.0  # mean open -> decision latency, seconds
    recoveries: int = 0          # re-offers (blackboard) / reassigns (central)
    crashes: int = 0
    completed_by: Dict[str, int] = field(default_factory=dict)

    def finish(self, decided_latencies: List[float]) -> None:
        """Fill the derived metrics once the raw counters are in."""
        self.goodput = self.completed / self.duration
        self.consensus_decided = len(decided_latencies)
        if decided_latencies:
            self.consensus_mean = (sum(decided_latencies)
                                   / len(decided_latencies))
        self.fairness = jain_fairness(list(self.completed_by.values())
                                      or [1.0])


@dataclass
class T12Result:
    """All four points of one T12 run, plus the headline ratios."""

    blackboard_zero: AgentsPoint
    blackboard_churn: AgentsPoint
    central_zero: AgentsPoint
    central_churn: AgentsPoint

    @property
    def points(self) -> List[AgentsPoint]:
        return [self.blackboard_zero, self.blackboard_churn,
                self.central_zero, self.central_churn]

    @property
    def blackboard_goodput_ratio(self) -> float:
        """Churn-arm goodput as a fraction of the zero-churn arm's."""
        if self.blackboard_zero.goodput <= 0:
            return 0.0
        return (self.blackboard_churn.goodput
                / self.blackboard_zero.goodput)

    @property
    def central_goodput_ratio(self) -> float:
        if self.central_zero.goodput <= 0:
            return 0.0
        return self.central_churn.goodput / self.central_zero.goodput


def _churn_means(churn: float) -> Tup[float, float]:
    """(mean_uptime, mean_downtime) hitting the target downtime fraction."""
    mean_down = MEAN_DOWNTIME
    mean_up = mean_down * (1.0 - churn) / churn
    return mean_up, mean_down


def _board_config() -> TiamatConfig:
    """The blackboard board: admission-controlled with fair-share pricing
    on, so per-peer debt gauges exist and a hot agent cannot starve the
    rest of the swarm's access to the board."""
    return TiamatConfig(serve_cost=0.002, serve_workers=4,
                        admission_enabled=True,
                        admission_queue_bound=128)


def run_blackboard_point(seed: int, *, churn: float = 0.0,
                         agents: int = AGENTS,
                         duration: float = DURATION,
                         registry_sink: Optional[list] = None) -> AgentsPoint:
    """One blackboard run: streaming supply, spread ballots, optional churn.

    ``registry_sink``, when given, receives the simulation's metrics
    registry after the run (the benchmark snapshots it).
    """
    sim = Simulator(seed=seed)
    vis = VisibilityGraph()
    net = Network(sim, visibility=vis, loss_rate=_chaos_loss())
    swarm = AgentSwarm(
        sim, net, vis,
        agents=tuple(f"w{i}" for i in range(agents)),
        config=SwarmConfig(work_mean=WORK_MEAN,
                           stream_inflight=STREAM_INFLIGHT),
        board_config=_board_config())
    swarm.submit_root("t12", fanout=4, depth=2)
    for qid in range(BALLOTS):
        at = duration * (qid + 1) / (BALLOTS + 1)
        sim.schedule_at(at, lambda qid=qid: swarm.ask_vote(
            qid, list(VOTE_OPTIONS)))
    swarm.ask_question(0, "status")
    if churn > 0:
        mean_up, mean_down = _churn_means(churn)
        swarm.auto_churn(mean_up, mean_down)
    swarm.start()
    sim.run(until=duration)
    swarm.stop()

    point = AgentsPoint(arm="blackboard", churn=churn, duration=duration)
    point.completed = len(swarm.completed)
    point.duplicates = swarm.stats.duplicates
    point.recoveries = swarm.stats.reoffers
    point.crashes = swarm.stats.crashes
    point.consensus_opened = len(swarm.posted_votes)
    point.completed_by = {name: swarm.stats.completed_by.get(name, 0)
                          for name in swarm.workers}
    admission = swarm.board.server.admission
    if admission is not None and admission.fair_share is not None:
        point.max_peer_debt = max(
            (debt for _, debt in admission.fair_share.debts()),
            default=0.0)
    point.finish([state["decided_at"] - state["asked_at"]
                  for state in swarm.decisions.values()
                  if state["choice"] is not None])
    if registry_sink is not None:
        registry_sink.append(sim.obs.registry)
    return point


# ---------------------------------------------------------------------------
# Central master/worker baseline
# ---------------------------------------------------------------------------
class _CentralMaster:
    """The baseline's single point of coordination (and of failure).

    Owns the only durable space: assignment tuples go out *named for one
    worker*, results and votes come back via directed ``out_at``.  All
    recovery knowledge lives here — a crashed worker is only discovered
    when its assignment times out.
    """

    def __init__(self, sim: Simulator, net: Network, vis: VisibilityGraph,
                 *, agents: int) -> None:
        self.sim = sim
        self.net = net
        self.vis = vis
        self.master = TiamatInstance(sim, net, "master")
        self.worker_names = [f"w{i}" for i in range(agents)]
        self.registry: Dict[str, TiamatInstance] = {}
        self.running = True
        self.crashes = 0
        self.reassigns = 0
        self.next_tid = 0
        self.assigned: Dict[int, Tup[str, float]] = {}  # tid -> (worker, at)
        self.done_counts: Dict[int, int] = {}
        self.completed: Dict[int, float] = {}
        self.completed_by: Dict[str, int] = {}
        self.ballots: Dict[int, Dict[str, object]] = {}
        vis.connect_clique(["master"] + self.worker_names)
        for index, name in enumerate(self.worker_names):
            self._spawn_worker(name, index)

    # -- lifecycle ----------------------------------------------------
    def _spawn_worker(self, name: str, index: int) -> None:
        inst = TiamatInstance(self.sim, self.net, name)
        self.registry[name] = inst
        self.sim.spawn(self._worker_proc(name, index, inst))

    def crash_worker(self, name: str) -> None:
        inst = self.registry.pop(name, None)
        if inst is not None:
            inst.shutdown()
            self.crashes += 1

    def revive_worker(self, name: str) -> None:
        if name in self.registry:
            return
        for other in ["master"] + self.worker_names:
            if other != name:
                self.vis.set_visible(name, other, True)
        self._spawn_worker(name, self.worker_names.index(name))

    def churn_proc(self, name: str, mean_up: float, mean_down: float, rng):
        while True:
            yield self.sim.timeout(rng.expovariate(1.0 / mean_up))
            if not self.running:
                return
            if name in self.registry:
                self.crash_worker(name)
            yield self.sim.timeout(rng.expovariate(1.0 / mean_down))
            if not self.running:
                return
            self.revive_worker(name)

    def open_ballot(self, qid: int) -> None:
        self.ballots[qid] = {"asked_at": self.sim.now, "choice": None,
                             "decided_at": None,
                             "votes": {}}  # worker -> choice

    # -- master -------------------------------------------------------
    def _assign(self, tid: int, worker: str) -> None:
        self.master.out(Tuple(ASSIGN_TAG, worker, tid, f"c{tid}"),
                        requester=_req(600.0))
        self.assigned[tid] = (worker, self.sim.now)

    def master_proc(self):
        sim = self.sim
        rr = 0
        quorum = len(self.worker_names) // 2 + 1
        while self.running:
            # 1. Collect results (and votes) the workers pushed at us.
            for _ in range(32):
                op = self.master.inp(
                    Pattern(RESULT_TAG, Formal(int), Formal(str)),
                    requester=_req(0.6))
                got = yield op.event
                if got is None:
                    break
                tid, worker = got.fields[1], got.fields[2]
                self.done_counts[tid] = self.done_counts.get(tid, 0) + 1
                if tid not in self.completed:
                    self.completed[tid] = sim.now
                    self.completed_by[worker] = (
                        self.completed_by.get(worker, 0) + 1)
                self.assigned.pop(tid, None)
            for _ in range(16):
                op = self.master.inp(
                    Pattern(VOTE_REPLY_TAG, Formal(int), Formal(str),
                            Formal(str)),
                    requester=_req(0.6))
                got = yield op.event
                if got is None:
                    break
                qid, worker, choice = (got.fields[1], got.fields[2],
                                       got.fields[3])
                state = self.ballots.get(qid)
                if state is not None:
                    state["votes"].setdefault(worker, choice)  # type: ignore[union-attr]
            # 2. Tally open ballots; re-nag non-voters with short-lease
            #    requests (a crashed worker's pending request survives on
            #    the master's space, but one it consumed died with it).
            for qid, state in self.ballots.items():
                votes: Dict[str, str] = state["votes"]  # type: ignore[assignment]
                if state["choice"] is None and len(votes) >= quorum:
                    counts: Dict[str, int] = {}
                    for choice in votes.values():
                        counts[choice] = counts.get(choice, 0) + 1
                    winner = max(sorted(counts), key=lambda c: counts[c])
                    state["choice"] = winner
                    state["decided_at"] = sim.now
                elif state["choice"] is None:
                    for worker in self.worker_names:
                        if worker not in votes:
                            self.master.out(
                                Tuple(VOTE_REQ_TAG, worker, qid,
                                      ",".join(VOTE_OPTIONS)),
                                requester=_req(0.9))
            # 3. Reassign anything that timed out (the only way this
            #    design learns about a crash).
            for tid, (worker, at) in list(self.assigned.items()):
                if tid in self.completed:
                    continue
                if sim.now - at > REASSIGN_AFTER:
                    rr += 1
                    self.reassigns += 1
                    self._assign(tid, self.worker_names[
                        rr % len(self.worker_names)])
            # 4. Keep every worker loaded with one outstanding task.
            outstanding = {worker for (worker, _) in self.assigned.values()}
            for worker in self.worker_names:
                if worker not in outstanding:
                    rr += 1
                    tid = self.next_tid
                    self.next_tid += 1
                    self._assign(tid, worker)
            yield sim.timeout(0.1)

    # -- workers ------------------------------------------------------
    def _alive(self, name: str, inst: TiamatInstance) -> bool:
        return self.registry.get(name) is inst

    def _worker_proc(self, name: str, index: int, inst: TiamatInstance):
        sim = self.sim
        rng = sim.rng(f"central/work/{name}")
        master_handle = self.master.handle()
        while self.running and self._alive(name, inst):
            # Vote if the master asked us to (non-destructive misses are
            # cheap; a consumed request we crash on is gone for good).
            op = inst.inp_at(master_handle,
                             Pattern(VOTE_REQ_TAG, name, Formal(int),
                                     Formal(str)),
                             requester=_req(0.6))
            got = yield op.event
            if not (self.running and self._alive(name, inst)):
                return
            if got is not None:
                qid = got.fields[2]
                options = got.fields[3].split(",")
                choice = options[(index + qid) % len(options)]
                yield inst.out_at(master_handle,
                                  Tuple(VOTE_REPLY_TAG, qid, name, choice))
                if not (self.running and self._alive(name, inst)):
                    return
            # Take our named assignment, do the work, push the result.
            op = inst.inp_at(master_handle,
                             Pattern(ASSIGN_TAG, name, Formal(int),
                                     Formal(str)),
                             requester=_req(0.6))
            got = yield op.event
            if not (self.running and self._alive(name, inst)):
                return
            if got is None:
                yield sim.timeout(0.05)
                continue
            tid = got.fields[2]
            yield sim.timeout(rng.expovariate(1.0 / WORK_MEAN))
            if not (self.running and self._alive(name, inst)):
                return
            yield inst.out_at(master_handle, Tuple(RESULT_TAG, tid, name))


def run_central_point(seed: int, *, churn: float = 0.0,
                      agents: int = AGENTS,
                      duration: float = DURATION) -> AgentsPoint:
    """One centralized master/worker run with the same offered shape."""
    sim = Simulator(seed=seed)
    vis = VisibilityGraph()
    net = Network(sim, visibility=vis, loss_rate=_chaos_loss())
    central = _CentralMaster(sim, net, vis, agents=agents)
    for qid in range(BALLOTS):
        at = duration * (qid + 1) / (BALLOTS + 1)
        sim.schedule_at(at, lambda qid=qid: central.open_ballot(qid))
    if churn > 0:
        mean_up, mean_down = _churn_means(churn)
        rng = sim.rng("central/churn")
        for name in central.worker_names:
            sim.spawn(central.churn_proc(name, mean_up, mean_down, rng))
    sim.spawn(central.master_proc())
    sim.run(until=duration)
    central.running = False

    point = AgentsPoint(arm="central", churn=churn, duration=duration)
    point.completed = len(central.completed)
    point.duplicates = sum(count - 1
                           for count in central.done_counts.values()
                           if count > 1)
    point.recoveries = central.reassigns
    point.crashes = central.crashes
    point.consensus_opened = len(central.ballots)
    point.completed_by = {name: central.completed_by.get(name, 0)
                          for name in central.worker_names}
    point.finish([state["decided_at"] - state["asked_at"]  # type: ignore[operator]
                  for state in central.ballots.values()
                  if state["choice"] is not None])
    return point


def run_t12(seed: int, *, churn: float = CHURN, agents: int = AGENTS,
            duration: float = DURATION,
            registry_sink: Optional[list] = None) -> T12Result:
    """All four (arm, churn) points of the T12 comparison."""
    return T12Result(
        blackboard_zero=run_blackboard_point(
            seed, churn=0.0, agents=agents, duration=duration),
        blackboard_churn=run_blackboard_point(
            seed, churn=churn, agents=agents, duration=duration,
            registry_sink=registry_sink),
        central_zero=run_central_point(
            seed, churn=0.0, agents=agents, duration=duration),
        central_churn=run_central_point(
            seed, churn=churn, agents=agents, duration=duration),
    )
