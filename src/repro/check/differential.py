"""Differential conformance: all three runtimes must agree.

The repository's central claim about its execution substrates is that
they implement the *same* logical-tuple-space semantics: the deterministic
simulation (``repro.core`` over ``repro.sim``), the threaded runtime
(``repro.runtime.node`` over real locks and threads), and the asyncio UDP
runtime (``repro.runtime.aio`` over real datagram sockets on loopback).
This module makes the claim testable: one seeded :class:`ScriptedWorkload`
— a sequential program of ``out``/``in``/``rd``/``inp``/``rdp``/``eval``
steps over a small clique of nodes — is driven through **every** runtime,
and the observable outcomes are diffed:

* the multiset of tuples destructively consumed (with the op and outcome
  of every step), and
* the final store contents of every node.

Workloads are constructed so agreement is *required*, not probabilistic:

* every deposited tuple is unique (no ambiguity about which copy a
  destructive take removes);
* destructive and read steps use fully-ground (all-actual) patterns
  naming one specific live tuple, so non-deterministic match selection
  never picks differently between runtimes;
* steps run strictly sequentially — each completes before the next
  starts — so there are no cross-step races to resolve;
* deposits use leases far longer than the run, so nothing expires.

Any divergence is therefore a genuine semantic difference between the
runtimes, reported step-by-step in :class:`DifferentialResult`.
"""

from __future__ import annotations

import functools
import threading
from typing import List, Optional

from repro.sim.rng import RngStream
from repro.tuples.model import Pattern, Tuple

#: First field of every workload tuple, so final-store comparison can
#: ignore any infrastructure tuples a runtime might keep in its spaces.
WORKLOAD_TAG = "wl"
EVAL_TAG = "wl_evald"
_NODES = ("n0", "n1", "n2")
_LONG_LEASE = 3600.0


def _eval_square(x: int) -> Tuple:
    """The workload's eval body (top-level so both runtimes can run it)."""
    return Tuple(EVAL_TAG, x, x * x)


class Step:
    """One scripted workload step."""

    __slots__ = ("kind", "node", "tup")

    def __init__(self, kind: str, node: str, tup: Tuple) -> None:
        self.kind = kind    # out | inp | in | rdp | rd | eval
        self.node = node
        self.tup = tup      # the deposited or targeted tuple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Step {self.kind} @{self.node} {self.tup!r}>"


class ScriptedWorkload:
    """A seeded, runtime-agnostic sequential workload.

    Two flavors share the determinism rules (unique tuples, ground
    patterns, strict sequencing):

    * ``classic`` — the original mixed op soup over random nodes.
    * ``agents`` — the blackboard coordination shapes of
      :mod:`repro.apps.agents`: bid/claim (a ground destructive take of a
      specific offer), wip markers, token-gated completions, broadcast
      question/answer collection, and a vote/rd-quorum/decision ballot —
      seeded-interleaved across tasks so claim traffic from different
      tasks overlaps, while per-task ordering is preserved.
    """

    def __init__(self, seed: int, steps: int = 40,
                 nodes: tuple = _NODES, flavor: str = "classic") -> None:
        if flavor not in ("classic", "agents"):
            raise ValueError(f"unknown workload flavor {flavor!r}")
        self.seed = seed
        self.nodes = nodes
        self.flavor = flavor
        self.steps: List[Step] = []
        rng = RngStream(seed, name=f"differential/{flavor}")
        if flavor == "agents":
            self._build_agents(rng, steps)
        else:
            self._build_classic(rng, steps)

    def _build_classic(self, rng, steps: int) -> None:
        nodes = self.nodes
        seed = self.seed
        alive: List[Tuple] = []
        counter = 0
        eval_counter = 0
        for _ in range(steps):
            roll = rng.random()
            node = rng.choice(list(nodes))
            if roll < 0.40 or not alive:
                tup = Tuple(WORKLOAD_TAG, counter, f"s{seed}")
                counter += 1
                self.steps.append(Step("out", node, tup))
                alive.append(tup)
            elif roll < 0.55:
                tup = rng.choice(alive)
                alive.remove(tup)
                self.steps.append(Step("inp", node, tup))
            elif roll < 0.70:
                tup = rng.choice(alive)
                alive.remove(tup)
                self.steps.append(Step("in", node, tup))
            elif roll < 0.80:
                self.steps.append(Step("rdp", node, rng.choice(alive)))
            elif roll < 0.90:
                self.steps.append(Step("rd", node, rng.choice(alive)))
            else:
                tup = Tuple(EVAL_TAG, eval_counter,
                            eval_counter * eval_counter)
                eval_counter += 1
                self.steps.append(Step("eval", node, tup))

    def _build_agents(self, rng, steps: int) -> None:
        """Bid/claim/answer programs, seeded-interleaved across tasks."""
        nodes = list(self.nodes)
        board = nodes[0]
        agents = nodes[1:] or nodes
        seed = self.seed
        programs: List[List[Step]] = []
        tasks = max(2, (steps - 12) // 9)
        for i in range(tasks):
            agent = rng.choice(agents)
            watchers = [n for n in nodes if n != agent] or nodes
            watcher = rng.choice(watchers)
            task = Tuple(WORKLOAD_TAG, "task", i, f"s{seed}")
            tok = Tuple(WORKLOAD_TAG, "tok", i)
            wip = Tuple(WORKLOAD_TAG, "wip", i, agent)
            done = Tuple(WORKLOAD_TAG, "done", i, agent)
            programs.append([
                Step("out", board, task), Step("out", board, tok),
                Step("inp", agent, task),    # the claim: a ground take
                Step("out", agent, wip),
                Step("rd", watcher, wip),    # a peer witnesses the claim
                Step("inp", agent, wip),
                Step("inp", agent, tok),     # exactly-once completion gate
                Step("out", agent, done),
                Step("inp", board, done),    # the board collects the record
            ])
        # One broadcast question: everyone answers, the board injects.
        question = Tuple(WORKLOAD_TAG, "q", 0, "status")
        q_prog = [Step("out", board, question)]
        for agent in agents:
            answer = Tuple(WORKLOAD_TAG, "ans", 0, agent)
            q_prog += [Step("rd", agent, question),
                       Step("out", agent, answer),
                       Step("inp", board, answer)]
        programs.append(q_prog)
        # One ballot: votes out, rd-quorum tally, decision token, verdict.
        ballot_q = Tuple(WORKLOAD_TAG, "avq", 0, "alpha,beta")
        ballot_tok = Tuple(WORKLOAD_TAG, "adtok", 0)
        ballot = [Step("out", board, ballot_q),
                  Step("out", board, ballot_tok)]
        votes: List[Tuple] = []
        for idx, agent in enumerate(agents):
            vote = Tuple(WORKLOAD_TAG, "vote", 0, agent,
                         ("alpha", "beta")[idx % 2])
            ballot += [Step("rd", agent, ballot_q),
                       Step("out", agent, vote)]
            votes.append(vote)
        tallier = agents[0]
        for vote in votes:
            ballot.append(Step("rdp", tallier, vote))
        ballot += [Step("inp", tallier, ballot_tok),
                   Step("out", tallier,
                        Tuple(WORKLOAD_TAG, "decision", 0, "alpha"))]
        programs.append(ballot)
        # Seeded adversarial interleaving: per-program order is preserved
        # (so every ground pattern targets a live tuple), cross-program
        # order is the rng's pick — claim traffic overlaps across tasks.
        while programs:
            pick = rng.randint(0, len(programs) - 1)
            self.steps.append(programs[pick].pop(0))
            if not programs[pick]:
                programs.pop(pick)


class RuntimeTranscript:
    """What one runtime observably did with the workload."""

    def __init__(self, runtime: str) -> None:
        self.runtime = runtime
        #: (step index, kind, node, consumed tuple) per destructive step.
        self.consumed: List[tuple] = []
        #: (step index, kind, node, observed tuple) per read step.
        self.observed: List[tuple] = []
        #: node -> sorted list of workload tuples left in its store.
        self.final: dict = {}

    def consumed_multiset(self) -> dict:
        counts: dict = {}
        for _, _, _, tup in self.consumed:
            counts[tup] = counts.get(tup, 0) + 1
        return counts


def _is_workload_tuple(tup: Tuple) -> bool:
    first = tup.fields[0]
    return first in (WORKLOAD_TAG, EVAL_TAG)


def _final_snapshot(snapshots: dict) -> dict:
    return {
        node: sorted((t for t in tuples if _is_workload_tuple(t)),
                     key=repr)
        for node, tuples in snapshots.items()
    }


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _await_eval(pending, timeout: float) -> Optional[str]:
    """Wait for a handle's ``eval``; returns what went wrong, if anything.

    The one place the handle kinds differ: the sim hands back the eval's
    tuple itself (``None`` if it did not finish), threads the worker
    :class:`~threading.Thread`, aio a waitable future.
    """
    if pending is None:
        return "eval did not finish"
    if isinstance(pending, Tuple):
        return None
    if isinstance(pending, threading.Thread):
        pending.join(timeout)
        return "eval did not finish" if pending.is_alive() else None
    try:
        pending.result(timeout)
    except Exception as exc:  # pragma: no cover - diagnostics
        return f"eval failed: {exc!r}"
    return None


def _run_handles(kind: str, workload: ScriptedWorkload,
                 timeout: float = 10.0) -> RuntimeTranscript:
    """Drive the workload through ``repro.connect(kind)`` node handles.

    Strictly sequential synchronous calls against the handle vocabulary;
    on ``sim`` each call drives the kernel of a simulation seeded with the
    workload's seed, on ``threads`` a probe is a method call under real
    locks, on ``aio`` every inter-node probe underneath travels as a real
    datagram (nodes bind ephemeral ports on 127.0.0.1, so the run is
    CI-safe).
    """
    from repro.runtime.api import connect

    label = "threaded" if kind == "threads" else kind
    transcript = RuntimeTranscript(label)
    errors: List[str] = []
    options = {"seed": workload.seed} if kind == "sim" else {}
    with connect(kind, **options) as rt:
        nodes = {node: rt.node(node) for node in workload.nodes}
        names = list(workload.nodes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rt.set_visible(a, b, True)
        for index, step in enumerate(workload.steps):
            node = nodes[step.node]
            if step.kind == "out":
                node.out(step.tup, lease_duration=_LONG_LEASE)
                continue
            if step.kind == "eval":
                problem = _await_eval(
                    node.eval(_eval_square, step.tup.fields[1],
                              lease_duration=_LONG_LEASE), timeout)
                if problem:
                    errors.append(f"step {index}: {problem}")
                continue
            pattern = Pattern.for_tuple(step.tup)
            if step.kind in ("in", "rd"):
                result = getattr(node, "in_" if step.kind == "in" else "rd")(
                    pattern, timeout=timeout)
            else:
                result = getattr(node, step.kind)(pattern)
            if step.kind in ("inp", "in"):
                transcript.consumed.append(
                    (index, step.kind, step.node, result))
            else:
                transcript.observed.append(
                    (index, step.kind, step.node, result))
            if result != step.tup:
                errors.append(f"step {index}: {step.kind} @{step.node} got "
                              f"{result!r}, expected {step.tup!r}")
        if errors:
            raise AssertionError(f"{label} driver mismatches: "
                                 + "; ".join(errors))
        transcript.final = _final_snapshot(
            {name: node.space.snapshot() for name, node in nodes.items()})
    return transcript


run_sim = functools.partial(_run_handles, "sim")
run_threaded = functools.partial(_run_handles, "threads")
run_aio = functools.partial(_run_handles, "aio")

#: Runtime name -> driver, in canonical comparison order.
RUNTIME_DRIVERS = {
    "sim": run_sim,
    "threaded": run_threaded,
    "aio": run_aio,
}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
class DifferentialResult:
    """Outcome of one N-way conformance run (sim is the reference)."""

    def __init__(self, seed: int, sim: RuntimeTranscript,
                 *others: RuntimeTranscript) -> None:
        self.seed = seed
        self.sim = sim
        self.transcripts = {"sim": sim}
        for transcript in others:
            self.transcripts[transcript.runtime] = transcript
        self.mismatches: List[str] = []
        for transcript in others:
            self._diff(transcript)

    @property
    def threaded(self) -> Optional[RuntimeTranscript]:
        """The threaded transcript (kept for the historical 2-way API)."""
        return self.transcripts.get("threaded")

    @property
    def aio(self) -> Optional[RuntimeTranscript]:
        return self.transcripts.get("aio")

    def _diff(self, other: RuntimeTranscript) -> None:
        name = other.runtime
        if self.sim.consumed_multiset() != other.consumed_multiset():
            self.mismatches.append(
                f"consumed multisets differ: sim={self.sim.consumed_multiset()} "
                f"{name}={other.consumed_multiset()}")
        if self.sim.consumed != other.consumed:
            self.mismatches.append(
                f"per-step consumption transcripts differ (sim vs {name})")
        if self.sim.observed != other.observed:
            self.mismatches.append(
                f"per-step read transcripts differ (sim vs {name})")
        if self.sim.final != other.final:
            self.mismatches.append(
                f"final store contents differ: sim={self.sim.final} "
                f"{name}={other.final}")

    @property
    def agree(self) -> bool:
        return not self.mismatches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "agree" if self.agree else f"{len(self.mismatches)} diffs"
        runtimes = "/".join(self.transcripts)
        return f"<DifferentialResult seed={self.seed} {runtimes} {verdict}>"


def run_differential(seed: int, steps: int = 40,
                     workload: Optional[ScriptedWorkload] = None,
                     runtimes: tuple = ("sim", "threaded"),
                     flavor: str = "classic") -> DifferentialResult:
    """Run one scripted workload through the named runtimes and diff.

    ``runtimes`` selects from :data:`RUNTIME_DRIVERS`; the sim reference
    always runs (and runs first), whether named or not.  The default
    stays the historical sim-vs-threaded pair; pass
    ``("sim", "threaded", "aio")`` for the full three-way check.
    ``flavor`` picks the workload generator (``classic`` or ``agents``).
    """
    workload = workload if workload is not None else ScriptedWorkload(
        seed, steps=steps, flavor=flavor)
    unknown = [r for r in runtimes if r not in RUNTIME_DRIVERS]
    if unknown:
        raise ValueError(f"unknown runtimes {unknown!r}: expected a subset "
                         f"of {tuple(RUNTIME_DRIVERS)}")
    sim_transcript = run_sim(workload)
    others = [RUNTIME_DRIVERS[name](workload)
              for name in runtimes if name != "sim"]
    return DifferentialResult(workload.seed, sim_transcript, *others)
