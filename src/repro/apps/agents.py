"""Multi-agent blackboard workload: swarms coordinating purely generatively.

ROADMAP item 3 ("millions of users, each of them holding a number of
devices") in miniature: N agent nodes coordinate *only* through the tuple
space — no direct messages, no central scheduler.  The shapes are the ones
agent-swarm systems build over tuple spaces (BeeTS; MassGen's broadcast /
vote orchestration), expressed in the six Linda primitives:

**Durable task tuples + bid/claim via leased ``inp``.**
A *board* node owns the task board::

    ("aspec", tid, payload, deps_csv)   durable task spec (never consumed)
    ("atask", tid, payload)             the claimable offer
    ("atok",  tid)                      completion token (exactly-once gate)

An agent claims by destructively taking the offer (``inp`` — the
substrate's network-wide exactly-once consume *is* the mutual exclusion)
and immediately deposits a ``("awip", tid, agent)`` marker on itself under
a ``claim_ttl`` lease.  If the agent crashes or stalls, that lease dies
with it; the board's reaper re-offers any task whose offer, wip marker
*and* completion record have all been missing for a full
``claim_ttl + reoffer_grace`` window — lease expiry automatically
re-offers work abandoned by crashed agents.  Completion is gated by the
token: the finisher must win ``inp ("atok", tid)`` before depositing
``("adone", tid, agent, result)``, so a slow claimant racing a re-offered
copy can never produce a duplicate completion.

**Broadcast questions, inject-then-continue.**
The board broadcasts ``("aq", qid, text)``; every agent that reads it
deposits one ``("ans", qid, agent, value)``.  The board keeps working —
reaping, offering, collecting — and injects answers as they arrive
(non-blocking ``inp`` each cycle) rather than blocking on a quorum.

**Consensus via rd-quorum over vote tuples.**
``("avq", qid, options_csv)`` opens a ballot; agents deposit
``("avote", qid, agent, choice)``.  Any agent tallies with *ground*
non-destructive reads (one ``rdp`` per roster member — an rd-quorum) and,
on seeing a majority, tries to win the decision token
``inp ("adtok", qid)``; only the winner deposits
``("adecision", qid, choice)``.  Two conflicting decisions for one
question are therefore impossible by construction — the
``quorum_safety`` oracle (``repro.check.oracles``) reads the tallier's
``decide`` flight event to prove it, and the ``split_vote`` mutation
canary proves the oracle is not vacuous.

**Task decomposition through the space.**
:func:`decompose` fans a root task into a layered DAG of subtasks; the
board offers a subtask only when every dependency has completed, so the
dependency order is resolved by completions flowing through the space.

Two engines share this protocol:

* :class:`AgentSwarm` — the simulation engine (generator processes over
  :class:`~repro.core.instance.TiamatInstance`), used by the ``agent_swarm``
  explorer template, the Hypothesis property tests and the T12 benchmark;
  supports crash/revive churn and admission-controlled boards.
* :func:`run_handles_session` — the portable engine over the
  :func:`repro.connect` front door: the same tuple vocabulary driven
  through synchronous :class:`~repro.runtime.api.TiamatNodeHandle` calls,
  on real threads for the ``threads``/``aio`` runtimes.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple as Tup

from repro.check import CANARY_DOUBLE_CLAIM, CANARY_SPLIT_VOTE, canary
from repro.core.config import TiamatConfig
from repro.core.instance import TiamatInstance
from repro.errors import LeaseError
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net.network import Network
from repro.net.visibility import VisibilityGraph
from repro.sim.kernel import Simulator
from repro.tuples import Formal, Pattern, Tuple

__all__ = [
    "AgentSwarm",
    "HandleSessionResult",
    "SwarmConfig",
    "SwarmStats",
    "TaskSpec",
    "decompose",
    "jain_fairness",
    "run_handles_session",
    "topological_order",
]

# ---------------------------------------------------------------------------
# Tuple vocabulary
# ---------------------------------------------------------------------------
SPEC_TAG = "aspec"
TASK_TAG = "atask"
WIP_TAG = "awip"
TOKEN_TAG = "atok"
DONE_TAG = "adone"
QUESTION_TAG = "aq"
ANSWER_TAG = "ans"
VOTE_Q_TAG = "avq"
VOTE_TAG = "avote"
DECIDE_TOKEN_TAG = "adtok"
DECISION_TAG = "adecision"

TASK_PATTERN = Pattern(TASK_TAG, Formal(int), Formal(str))
DONE_PATTERN = Pattern(DONE_TAG, Formal(int), Formal(str), Formal(str))
ANSWER_PATTERN = Pattern(ANSWER_TAG, Formal(int), Formal(str), Formal(str))


def _req(duration: float, max_remotes: int = 16) -> SimpleLeaseRequester:
    return SimpleLeaseRequester(LeaseTerms(duration=duration,
                                           max_remotes=max_remotes))


# ---------------------------------------------------------------------------
# Task decomposition
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskSpec:
    """One subtask in a decomposed job: id, payload, dependency ids."""

    tid: int
    payload: str
    deps: Tup[int, ...] = ()


def topological_order(specs: Sequence[TaskSpec]) -> List[int]:
    """A deterministic topological order of ``specs`` (Kahn, tid tiebreak).

    Raises ``ValueError`` on a cycle or a dependency on an unknown task.
    """
    by_tid = {spec.tid: spec for spec in specs}
    remaining: Dict[int, set] = {}
    for spec in specs:
        for dep in spec.deps:
            if dep not in by_tid:
                raise ValueError(f"task {spec.tid} depends on unknown "
                                 f"task {dep}")
        remaining[spec.tid] = set(spec.deps)
    order: List[int] = []
    ready = sorted(tid for tid, deps in remaining.items() if not deps)
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        newly = []
        for other, deps in remaining.items():
            if tid in deps:
                deps.discard(tid)
                if not deps and other not in order:
                    newly.append(other)
        ready = sorted(set(ready) | set(newly))
    if len(order) != len(specs):
        raise ValueError("dependency graph has a cycle")
    return order


def decompose(root_payload: str, *, fanout: int = 3, depth: int = 2,
              base_tid: int = 0, rng: Any = None) -> List[TaskSpec]:
    """Fan a root task into a dependency-ordered DAG of subtasks.

    Layer 0 holds ``fanout`` independent subtasks; each task in layer
    ``l > 0`` depends on one or two tasks of layer ``l-1`` (seeded by
    ``rng`` when given, deterministic otherwise); a final *join* task
    depends on the whole last layer.  The returned list is in a valid
    topological order (verified by construction via
    :func:`topological_order`).
    """
    if fanout < 1 or depth < 1:
        raise ValueError("fanout and depth must be >= 1")
    specs: List[TaskSpec] = []
    tid = base_tid
    layers: List[List[int]] = []
    for layer in range(depth):
        row: List[int] = []
        for i in range(fanout):
            if layer == 0:
                deps: Tup[int, ...] = ()
            else:
                prev = layers[layer - 1]
                if rng is not None:
                    first = rng.choice(prev)
                    deps = (first,)
                    if len(prev) > 1 and rng.random() < 0.5:
                        second = rng.choice(prev)
                        if second != first:
                            deps = (first, second)
                else:
                    deps = (prev[i % len(prev)],)
            specs.append(TaskSpec(tid, f"{root_payload}/{layer}.{i}", deps))
            row.append(tid)
            tid += 1
        layers.append(row)
    specs.append(TaskSpec(tid, f"{root_payload}/join", tuple(layers[-1])))
    order = topological_order(specs)
    by_tid = {spec.tid: spec for spec in specs}
    return [by_tid[t] for t in order]


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index over per-worker shares (1.0 = perfectly fair)."""
    values = [float(v) for v in shares]
    if not values or not any(values):
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------
@dataclass
class SwarmConfig:
    """Timing knobs of the blackboard protocol (virtual seconds)."""

    claim_ttl: float = 1.2       # wip-marker lease: how long a claim lives
    reoffer_grace: float = 0.75  # extra slack before the reaper re-offers
    reoffer_poll: float = 0.25   # board reap/offer cycle period
    poll: float = 0.08           # agent idle poll period
    work_mean: float = 0.2       # mean virtual work per task
    op_lease: float = 0.6        # lease on short probe/commit operations
    record_lease: float = 600.0  # durable records (specs, tokens, dones)
    stream_inflight: int = 0     # keep this many tasks outstanding (0 = off)
    quorum: Optional[int] = None  # ballot quorum (default: worker majority)


@dataclass
class SwarmStats:
    """Everything one swarm run produced (read after the run)."""

    offered: int = 0
    claims: int = 0
    stale_claims: int = 0        # claim results abandoned as too delayed
    abandoned: int = 0           # wip lease gone by completion time
    token_lost: int = 0          # lost the completion-token race
    reoffers: int = 0
    crashes: int = 0
    record_echoes: int = 0       # at-most-twice wire echoes absorbed
    completed_by: Dict[str, int] = field(default_factory=dict)
    done_records: Dict[int, int] = field(default_factory=dict)
    answers: Dict[int, Dict[str, str]] = field(default_factory=dict)

    @property
    def duplicates(self) -> int:
        """Distinct completion records beyond the first per task id.

        Counts distinct *completers*: the token gate forbids two agents
        finishing one task, which is what this must keep at 0.  A wire
        echo of one agent's record (the at-most-twice residue of a lossy
        destructive collect, see :mod:`repro.core.reliability`) lands in
        :attr:`record_echoes` instead.
        """
        return sum(count - 1 for count in self.done_records.values()
                   if count > 1)


#: The swarm's board node.
BOARD = "board"


class AgentSwarm:
    """The sim-engine blackboard: a board node plus N claimant agents.

    Build it over an existing ``(sim, net, vis)`` world, submit work via
    :meth:`submit` / :meth:`submit_root`, open ballots via
    :meth:`ask_vote`, then :meth:`start` and run the simulator.  Agents
    may be crashed and revived (fresh, empty instances) mid-run —
    :meth:`crash_agent` / :meth:`revive_agent` / :meth:`auto_churn`.
    """

    def __init__(self, sim: Simulator, net: Network, vis: VisibilityGraph,
                 *, agents: Sequence[str] = ("w0", "w1", "w2"),
                 config: Optional[SwarmConfig] = None,
                 board_config: Optional[TiamatConfig] = None,
                 board_worker: bool = False) -> None:
        self.sim = sim
        self.net = net
        self.vis = vis
        self.config = config if config is not None else SwarmConfig()
        self.agent_names = list(agents)
        self.names = [BOARD] + self.agent_names
        # Planted protocol bugs, consulted at construction time only.
        self._canary_double_claim = canary(CANARY_DOUBLE_CLAIM)
        self._canary_split_vote = canary(CANARY_SPLIT_VOTE)

        self.board = TiamatInstance(sim, net, BOARD, config=board_config)
        self.registry: Dict[str, TiamatInstance] = {BOARD: self.board}
        for name in self.agent_names:
            self.registry[name] = TiamatInstance(sim, net, name)
        vis.connect_clique(self.names)

        #: Claimant roster: the agents, plus the board itself when it
        #: moonlights as a worker (local claims — cheap and race-prone,
        #: exactly what the explorer wants front-loaded).
        self.workers = (list(self.agent_names) if not board_worker
                        else [BOARD] + list(self.agent_names))

        self.stats = SwarmStats()
        self.running = False
        self._specs: Dict[int, TaskSpec] = {}
        self._offered: set = set()
        self._done_agents: Dict[int, set] = {}
        self._completed: Dict[int, float] = {}    # tid -> completion time
        self._missing_since: Dict[int, float] = {}
        self._next_tid = 0
        self._questions: Dict[int, Dict[str, Any]] = {}
        self._votes: Dict[int, Dict[str, Any]] = {}
        self.posted_questions: List[int] = []
        self.posted_votes: List[int] = []

    # -- work intake ----------------------------------------------------
    @property
    def completed(self) -> Dict[int, float]:
        """tid -> virtual completion time, first observation wins."""
        return dict(self._completed)

    @property
    def decisions(self) -> Dict[int, Dict[str, Any]]:
        """qid -> ballot state (``choice``/``decided_at`` once decided)."""
        return {qid: dict(state) for qid, state in self._votes.items()}

    def submit(self, specs: Iterable[TaskSpec]) -> None:
        """Add subtasks to the board (specs are durable, never consumed)."""
        for spec in specs:
            if spec.tid in self._specs:
                raise ValueError(f"duplicate task id {spec.tid}")
            self._specs[spec.tid] = spec
            self._next_tid = max(self._next_tid, spec.tid + 1)
            self._board_out(Tuple(SPEC_TAG, spec.tid, spec.payload,
                                  ",".join(str(d) for d in spec.deps)))

    def submit_root(self, payload: str, *, fanout: int = 3,
                    depth: int = 2, rng: Any = None) -> List[TaskSpec]:
        """Decompose a root task and submit the resulting DAG."""
        specs = decompose(payload, fanout=fanout, depth=depth,
                          base_tid=self._next_tid, rng=rng)
        self.submit(specs)
        return specs

    def ask_question(self, qid: int, text: str) -> None:
        """Broadcast a question; answers are collected inject-then-continue."""
        self._questions[qid] = {"asked_at": self.sim.now, "text": text}
        self.stats.answers.setdefault(qid, {})
        self.posted_questions.append(qid)
        self._board_out(Tuple(QUESTION_TAG, qid, text))

    def ask_vote(self, qid: int, options: Sequence[str]) -> None:
        """Open a ballot: the question tuple plus its decision token."""
        self._votes[qid] = {"asked_at": self.sim.now,
                            "options": tuple(options),
                            "choice": None, "decided_at": None,
                            "decided_by": None}
        self.posted_votes.append(qid)
        self._board_out(Tuple(VOTE_Q_TAG, qid, ",".join(options)))
        self._board_out(Tuple(DECIDE_TOKEN_TAG, qid))

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the board process and one driver process per worker."""
        self.running = True
        self.sim.spawn(self._board_proc())
        for index, name in enumerate(self.workers):
            self.sim.spawn(self._agent_proc(name, index))

    def stop(self) -> None:
        self.running = False

    def crash_agent(self, name: str) -> None:
        """Kill an agent: its space — wip markers, votes, records — dies."""
        if name == BOARD:
            raise ValueError("the board is the durable anchor; crash agents")
        inst = self.registry.pop(name, None)
        if inst is not None:
            inst.shutdown()
            self.stats.crashes += 1

    def revive_agent(self, name: str) -> None:
        """Bring an agent back as a fresh, empty instance."""
        if name in self.registry:
            return
        inst = TiamatInstance(self.sim, self.net, name)
        for other in self.names:
            if other != name:
                self.vis.set_visible(name, other, True)
        self.registry[name] = inst

    def auto_churn(self, mean_uptime: float, mean_downtime: float,
                   rng: Any = None) -> None:
        """Cycle every agent through exponential crash/revive periods."""
        rng = rng if rng is not None else self.sim.rng("agents/churn")
        for name in self.agent_names:
            self.sim.spawn(self._churn_proc(name, mean_uptime,
                                            mean_downtime, rng))

    def _churn_proc(self, name: str, mean_up: float, mean_down: float,
                    rng: Any):
        while True:
            yield self.sim.timeout(rng.expovariate(1.0 / mean_up))
            if not self.running:
                return
            if name in self.registry:
                self.crash_agent(name)
            yield self.sim.timeout(rng.expovariate(1.0 / mean_down))
            if not self.running:
                return
            self.revive_agent(name)

    # -- board ----------------------------------------------------------
    def _board_out(self, tup: Tuple, duration: Optional[float] = None) -> None:
        try:
            self.board.out(tup, requester=_req(
                duration if duration is not None
                else self.config.record_lease))
        except LeaseError:
            pass  # board storage refusal: allowed weather under pressure

    def _offer(self, tid: int, *, first: bool) -> None:
        spec = self._specs[tid]
        self._board_out(Tuple(TASK_TAG, tid, spec.payload))
        if first:
            self._board_out(Tuple(TOKEN_TAG, tid))
            self.stats.offered += 1
        else:
            self.stats.reoffers += 1
        self._missing_since.pop(tid, None)

    def _mark_complete(self, tid: int) -> None:
        if tid not in self._completed:
            self._completed[tid] = self.sim.now
        self._missing_since.pop(tid, None)

    def _ready_to_offer(self) -> List[int]:
        return [tid for tid, spec in self._specs.items()
                if tid not in self._offered
                and all(dep in self._completed for dep in spec.deps)]

    def _board_proc(self):
        cfg = self.config
        sim = self.sim
        stream_rng = sim.rng("agents/stream")
        while self.running:
            # 1. Offer every spec whose dependencies have completed.
            for tid in sorted(self._ready_to_offer()):
                self._offered.add(tid)
                self._offer(tid, first=True)
            # 2. Inject completions as they arrive (never block on them).
            for _ in range(32):
                op = self.board.inp(DONE_PATTERN,
                                    requester=_req(cfg.op_lease))
                done = yield op.event
                if done is None:
                    break
                tid, agent = done.fields[1], done.fields[2]
                seen = self._done_agents.setdefault(tid, set())
                if agent in seen:
                    # A lost CLAIM_ACCEPT downgrades the destructive
                    # collect to at-most-twice: the producer restores the
                    # record after we already took it, and it comes round
                    # again.  The token gate makes a same-agent record
                    # unique, so a repeat is a wire echo — absorb it.
                    self.stats.record_echoes += 1
                    continue
                seen.add(agent)
                count = self.stats.done_records.get(tid, 0) + 1
                self.stats.done_records[tid] = count
                self.stats.completed_by[agent] = (
                    self.stats.completed_by.get(agent, 0) + 1)
                self._mark_complete(tid)
            # 3. Inject broadcast-question answers the same way.
            for _ in range(32):
                op = self.board.inp(ANSWER_PATTERN,
                                    requester=_req(cfg.op_lease))
                ans = yield op.event
                if ans is None:
                    break
                qid, agent, value = ans.fields[1], ans.fields[2], ans.fields[3]
                self.stats.answers.setdefault(qid, {})[agent] = value
            # 4. Reap: re-offer abandoned claims once their lease has
            #    provably expired (missing for claim_ttl + grace).
            for tid in sorted(self._offered):
                if tid in self._completed:
                    continue
                probe = self.board.rdp(Pattern(TASK_TAG, tid, Formal(str)),
                                       requester=_req(cfg.op_lease))
                if (yield probe.event) is not None:
                    self._missing_since.pop(tid, None)
                    continue  # still on offer
                tok = self.board.rdp(Pattern(TOKEN_TAG, tid),
                                     requester=_req(cfg.op_lease))
                if (yield tok.event) is None:
                    # Token consumed: the task completed even if the done
                    # record died with its producer.
                    self._mark_complete(tid)
                    continue
                wip = self.board.rdp(Pattern(WIP_TAG, tid, Formal(str)),
                                     requester=_req(cfg.op_lease))
                if (yield wip.event) is not None:
                    self._missing_since.pop(tid, None)
                    continue  # claim lease still alive somewhere
                since = self._missing_since.setdefault(tid, sim.now)
                if sim.now - since >= cfg.claim_ttl + cfg.reoffer_grace:
                    self._offer(tid, first=False)
            # 5. Streaming supply: keep the board saturated.
            if cfg.stream_inflight > 0:
                outstanding = len(self._offered) - len(self._completed)
                while outstanding < cfg.stream_inflight:
                    fresh = self.submit_root(f"root{self._next_tid}",
                                             fanout=4, depth=1,
                                             rng=stream_rng)
                    outstanding += len(fresh)
            yield sim.timeout(cfg.reoffer_poll)

    # -- agents ---------------------------------------------------------
    def _record_decision(self, qid: int, choice: str, agent: str) -> None:
        state = self._votes.get(qid)
        if state is not None and state["choice"] is None:
            state["choice"] = choice
            state["decided_at"] = self.sim.now
            state["decided_by"] = agent

    def _alive(self, name: str, inst: TiamatInstance) -> bool:
        """Whether ``inst`` is still the live incarnation of ``name``.

        Churn fires at timer boundaries, i.e. between two yields of an
        agent generator — so every phase re-checks this after *every*
        yield before issuing another operation: a crashed instance is
        detached from the network and must never originate new ops.
        """
        return self.registry.get(name) is inst

    def _agent_proc(self, name: str, index: int):
        cfg = self.config
        sim = self.sim
        rng = sim.rng(f"agents/{name}")
        answered: set = set()
        settled: set = set()   # ballots this agent saw decided
        while self.running:
            inst = self.registry.get(name)
            if inst is None:
                yield sim.timeout(cfg.poll)
                continue
            if not self._canary_double_claim:
                # (The double_claim planted bug races straight to the
                # board so the claim collision lands within the
                # shrinker's event budget.)
                yield from self._ballot_phase(inst, name, index, settled)
                if not self._alive(name, inst):
                    continue
                yield from self._question_phase(inst, name, answered)
                if not self._alive(name, inst):
                    continue
            yield from self._claim_phase(inst, name, rng)

    def _ballot_phase(self, inst: TiamatInstance, name: str, index: int,
                      settled: set):
        """Discover open ballots, vote once, rd-quorum tally, decide."""
        cfg = self.config
        sim = self.sim
        for qid in list(self.posted_votes):
            if qid in settled or not self._alive(name, inst):
                continue
            if self._canary_split_vote:
                # Planted bug: a quorum of one — decide straight from our
                # own preference, skipping ballot discovery, the roster
                # tally and the decision token.  Two agents with
                # different preferences immediately decide conflictingly.
                state = self._votes.get(qid)
                options = list(state["options"]) if state else []
                if not options:
                    continue
                choice = options[(index + qid) % len(options)]
                inst.flight_ring.append(sim.now, "decide", None, None, None,
                                        (qid, choice))
                self._record_decision(qid, choice, name)
                settled.add(qid)
                continue
            q_op = inst.rdp(Pattern(VOTE_Q_TAG, qid, Formal(str)),
                            requester=_req(cfg.op_lease))
            question = yield q_op.event
            if question is None or not self._alive(name, inst):
                continue
            options = question.fields[2].split(",")
            choice = options[(index + qid) % len(options)]
            # Self-healing ballot: our vote lives on our own space and
            # dies with a crash, so re-deposit whenever it is missing.
            # The choice is a pure function of (agent, question), hence
            # re-voting can never flip a ballot.
            mine_op = inst.rdp(Pattern(VOTE_TAG, qid, name, Formal(str)),
                               requester=_req(cfg.op_lease))
            mine = yield mine_op.event
            if not self._alive(name, inst):
                continue
            if mine is None:
                try:
                    inst.out(Tuple(VOTE_TAG, qid, name, choice),
                             requester=_req(cfg.record_lease))
                except LeaseError:
                    continue
            counts: Dict[str, int] = {}
            for peer in self.workers:
                if not self._alive(name, inst):
                    return
                v_op = inst.rdp(Pattern(VOTE_TAG, qid, peer, Formal(str)),
                                requester=_req(cfg.op_lease))
                vote = yield v_op.event
                if vote is not None:
                    counts[vote.fields[3]] = counts.get(vote.fields[3], 0) + 1
            if not self._alive(name, inst):
                return
            # Decision rule: once a quorum of ballots is *observed* (a
            # majority of the roster by default), the plurality choice
            # wins, ties broken lexicographically — deterministic, so
            # every tallier that sees a quorum computes the same winner,
            # and the decision token serializes them regardless.
            quorum = (cfg.quorum if cfg.quorum is not None
                      else len(self.workers) // 2 + 1)
            winner = (max(sorted(counts), key=lambda c: counts[c])
                      if counts else None)
            if winner is not None and sum(counts.values()) >= quorum:
                t_op = inst.inp(Pattern(DECIDE_TOKEN_TAG, qid),
                                requester=_req(cfg.op_lease))
                token = yield t_op.event
                if token is not None:
                    inst.flight_ring.append(sim.now, "decide", None, None,
                                            None, (qid, winner))
                    self._record_decision(qid, winner, name)
                    settled.add(qid)
                    if self._alive(name, inst):
                        try:
                            inst.out(Tuple(DECISION_TAG, qid, winner),
                                     requester=_req(cfg.record_lease))
                        except LeaseError:
                            pass
                    continue
                if not self._alive(name, inst):
                    return
            d_op = inst.rdp(Pattern(DECISION_TAG, qid, Formal(str)),
                            requester=_req(cfg.op_lease))
            if (yield d_op.event) is not None:
                settled.add(qid)

    def _question_phase(self, inst: TiamatInstance, name: str,
                        answered: set):
        """Answer each broadcast question exactly once."""
        cfg = self.config
        for qid in list(self.posted_questions):
            if qid in answered or not self._alive(name, inst):
                continue
            q_op = inst.rdp(Pattern(QUESTION_TAG, qid, Formal(str)),
                            requester=_req(cfg.op_lease))
            question = yield q_op.event
            if question is None or not self._alive(name, inst):
                continue
            try:
                inst.out(Tuple(ANSWER_TAG, qid, name,
                               f"{name}:{question.fields[2]}"),
                         requester=_req(cfg.record_lease))
                answered.add(qid)
            except LeaseError:
                pass

    def _claim_phase(self, inst: TiamatInstance, name: str, rng: Any):
        """One bid/claim/work/complete cycle: the leased ``inp``."""
        cfg = self.config
        sim = self.sim
        claim_started = sim.now
        if self._canary_double_claim:
            # Planted bug: "claim" with a non-destructive read, directed
            # straight at the board and pinned to the lowest offer — the
            # offer stays on the board, so every claimant acquires the
            # same task while the first claim's lease is still live.
            lowest = min(self._specs, default=0)
            op = inst.rdp_at(self.board.handle(),
                             Pattern(TASK_TAG, lowest, Formal(str)),
                             requester=_req(cfg.claim_ttl))
        else:
            op = inst.inp(TASK_PATTERN, requester=_req(cfg.claim_ttl))
        task = yield op.event
        if task is None:
            yield sim.timeout(cfg.poll * (0.5 + rng.random()))
            return
        if sim.now - claim_started > cfg.reoffer_grace:
            # The claim result arrived so late the board may already have
            # re-offered this task: voluntarily abandon it (the token
            # still guarantees at most one completion).
            self.stats.stale_claims += 1
            return
        tid = task.fields[1]
        now = sim.now
        self.stats.claims += 1
        ring = inst.flight_ring
        ring.append(now, "claim", None, None, None, (tid, now + cfg.claim_ttl))
        if not self._alive(name, inst):
            ring.append(sim.now, "release", None, None, None, tid)
            return  # claimed into a node that died mid-flight
        wip = Tuple(WIP_TAG, tid, name)
        try:
            inst.out(wip, requester=_req(cfg.claim_ttl))
        except LeaseError:
            ring.append(sim.now, "release", None, None, None, tid)
            return
        yield sim.timeout(cfg.work_mean * (0.5 + rng.random()))
        if not self._alive(name, inst):
            return  # crashed mid-work; wip died with the old space
        w_op = inst.inp(Pattern.for_tuple(wip), requester=_req(cfg.op_lease))
        held = yield w_op.event
        ring.append(sim.now, "release", None, None, None, tid)
        if held is None or not self._alive(name, inst):
            self.stats.abandoned += 1
            return  # our claim lease expired: the reaper owns it now
        # Blocking take: the completion token *should* be sitting on the
        # board, so carry the full reliability machinery (retransmission,
        # claim retries) for the one op the whole cycle hinges on.  On a
        # lossy wire a non-blocking probe misses tuples that exist; a
        # missed token strands the task until the reaper notices.
        t_op = inst.in_(Pattern(TOKEN_TAG, tid), requester=_req(cfg.op_lease))
        token = yield t_op.event
        if token is None:
            self.stats.token_lost += 1
            return  # a re-offered copy finished first: no duplicate
        if not self._alive(name, inst):
            return  # token died with us; the reaper completes via absence
        try:
            inst.out(Tuple(DONE_TAG, tid, name, f"r{tid}"),
                     requester=_req(cfg.record_lease))
        except LeaseError:
            pass  # record lost; the reaper completes via the token


# ---------------------------------------------------------------------------
# The portable engine: the same protocol over repro.connect handles
# ---------------------------------------------------------------------------
@dataclass
class HandleSessionResult:
    """Outcome of one front-door blackboard session."""

    runtime: str
    tasks: int
    completed: int
    duplicates: int
    completed_by: Dict[str, int]
    decision: Optional[str]
    answers: int
    elapsed: float

    @property
    def complete(self) -> bool:
        return self.completed == self.tasks and self.duplicates == 0


def _handle_claim_cycle(worker: Any, name: str) -> Optional[int]:
    """One claim/work/complete cycle over the handle vocabulary.

    Returns the completed task id, or ``None`` when no offer was won or
    the completion token was lost.
    """
    task = worker.inp(TASK_PATTERN)
    if task is None:
        return None
    tid = int(task.fields[1])
    wip = Tuple(WIP_TAG, tid, name)
    worker.out(wip, lease_duration=30.0)
    held = worker.inp(Pattern.for_tuple(wip))
    if held is None:
        return None
    token = worker.inp(Pattern(TOKEN_TAG, tid))
    if token is None:
        return None
    worker.out(Tuple(DONE_TAG, tid, name, f"r{tid}"), lease_duration=600.0)
    return tid


def _handle_vote(worker: Any, name: str, index: int, qid: int) -> bool:
    """Discover the ballot and cast one vote; True once voted."""
    question = worker.rdp(Pattern(VOTE_Q_TAG, qid, Formal(str)))
    if question is None:
        return False
    options = question.fields[2].split(",")
    worker.out(Tuple(VOTE_TAG, qid, name, options[index % len(options)]),
               lease_duration=600.0)
    return True


#: Wall-clock seconds a handle session's workers keep claiming.
SESSION_WALL_BUDGET = 30.0


def run_handles_session(runtime: str = "sim", *, agents: int = 3,
                        tasks: int = 8) -> HandleSessionResult:
    """Run a small blackboard session through ``repro.connect``.

    The board deposits independent task offers, completion tokens and one
    ballot; workers claim, complete and vote through the same tuple
    vocabulary as :class:`AgentSwarm`.  On ``sim`` the workers are driven
    round-robin from this thread (the sim kernel is single-threaded); on
    ``threads``/``aio`` every worker runs on a real OS thread against its
    own handle.
    """
    import repro

    names = [f"w{i}" for i in range(agents)]
    deadline = _time.monotonic() + SESSION_WALL_BUDGET
    with repro.connect(runtime=runtime) as rt:
        board = rt.node("board")
        workers = {name: rt.node(name) for name in names}
        for i, a in enumerate(["board"] + names):
            for b in (["board"] + names)[i + 1:]:
                rt.set_visible(a, b)
        for tid in range(tasks):
            board.out(Tuple(TASK_TAG, tid, f"job{tid}"), lease_duration=600.0)
            board.out(Tuple(TOKEN_TAG, tid), lease_duration=600.0)
        board.out(Tuple(VOTE_Q_TAG, 0, "alpha,beta"), lease_duration=600.0)
        board.out(Tuple(DECIDE_TOKEN_TAG, 0), lease_duration=600.0)

        completed_by = {name: 0 for name in names}

        def worker_loop(name: str, index: int) -> None:
            worker = workers[name]
            voted = False
            idle = 0
            while idle < 3 and _time.monotonic() < deadline:
                if not voted:
                    voted = _handle_vote(worker, name, index, 0)
                tid = _handle_claim_cycle(worker, name)
                if tid is None:
                    idle += 1
                    _time.sleep(0.002)
                else:
                    idle = 0
                    completed_by[name] += 1

        started = _time.monotonic()
        if runtime == "sim":
            voted = {name: False for name in names}
            idle_rounds = 0
            while idle_rounds < 3 and _time.monotonic() < deadline:
                progressed = False
                for index, name in enumerate(names):
                    worker = workers[name]
                    if not voted[name]:
                        voted[name] = _handle_vote(worker, name, index, 0)
                    tid = _handle_claim_cycle(worker, name)
                    if tid is not None:
                        progressed = True
                        completed_by[name] += 1
                idle_rounds = 0 if progressed else idle_rounds + 1
        else:
            threads = [threading.Thread(target=worker_loop, args=(name, i),
                                        daemon=True)
                       for i, name in enumerate(names)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max(0.0, deadline - _time.monotonic()))

        # rd-quorum tally from the main thread (any handle may tally).
        tallier = workers[names[0]]
        counts: Dict[str, int] = {}
        for peer in names:
            vote = tallier.rd(Pattern(VOTE_TAG, 0, peer, Formal(str)),
                              timeout=2.0)
            if vote is not None:
                counts[vote.fields[3]] = counts.get(vote.fields[3], 0) + 1
        decision: Optional[str] = None
        winner = max(counts, key=lambda c: counts[c], default=None)
        if winner is not None and counts[winner] >= len(names) // 2 + 1:
            if tallier.inp(Pattern(DECIDE_TOKEN_TAG, 0)) is not None:
                tallier.out(Tuple(DECISION_TAG, 0, winner),
                            lease_duration=600.0)
                decision = winner

        # Collect completion records at the board (exactly-once inp).
        done_records: Dict[int, int] = {}
        answers = 0
        while True:
            done = board.inp(DONE_PATTERN)
            if done is None:
                break
            tid = int(done.fields[1])
            done_records[tid] = done_records.get(tid, 0) + 1
        elapsed = _time.monotonic() - started

    duplicates = sum(c - 1 for c in done_records.values() if c > 1)
    return HandleSessionResult(
        runtime=runtime, tasks=tasks, completed=len(done_records),
        duplicates=duplicates, completed_by=completed_by,
        decision=decision, answers=answers, elapsed=elapsed)
