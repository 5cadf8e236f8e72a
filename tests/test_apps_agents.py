"""Property + conformance tests for the multi-agent blackboard workload.

Three Hypothesis properties pin the coordination laws of
:mod:`repro.apps.agents`:

* **decomposer** — for random DAGs, :func:`topological_order` is a
  permutation placing every dependency before its dependent, and
  :func:`decompose` only emits orders that satisfy it;
* **exactly-once** — across random crash/revive schedules, no task ever
  records a second completion (the token gate is a safety property), and
  with a quiet tail every task still completes (lease-expiry re-offers
  are a liveness property);
* **consensus agreement** — under adversarial vote interleavings (random
  seeds, rosters and churn), all ``decide`` flight events for one ballot
  agree on one choice from the ballot's option list.

Plus the portable-engine conformance check: the same tuple vocabulary
driven through ``repro.connect`` completes on all three runtimes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.agents import (
    AgentSwarm,
    SwarmConfig,
    TaskSpec,
    decompose,
    jain_fairness,
    run_handles_session,
    topological_order,
)
from repro.net import Network, VisibilityGraph
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# Decomposer: topological order over random DAGs
# ---------------------------------------------------------------------------


@st.composite
def random_dags(draw):
    """A random forward-edge DAG: each task may depend on earlier tids."""
    n = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for tid in range(n):
        deps = ()
        if tid:
            deps = tuple(sorted(draw(st.sets(
                st.integers(min_value=0, max_value=tid - 1), max_size=3))))
        specs.append(TaskSpec(tid, f"t{tid}", deps))
    # Present them shuffled so order is earned, not inherited.
    return draw(st.permutations(specs))


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_topological_order_random_dags(specs):
    order = topological_order(specs)
    assert sorted(order) == sorted(spec.tid for spec in specs)
    position = {tid: i for i, tid in enumerate(order)}
    for spec in specs:
        for dep in spec.deps:
            assert position[dep] < position[spec.tid], (dep, spec)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_decompose_emits_topological_order(fanout, depth, rng):
    specs = decompose("root", fanout=fanout, depth=depth, rng=rng)
    assert len(specs) == fanout * depth + 1  # layers + the join task
    seen = set()
    for spec in specs:
        assert all(dep in seen for dep in spec.deps), spec
        seen.add(spec.tid)
    # The join depends on the whole last layer: completing everything else
    # unblocks exactly one task.
    join = specs[-1]
    assert len(join.deps) == fanout or fanout == 1


def test_topological_order_rejects_cycles_and_unknowns():
    with pytest.raises(ValueError):
        topological_order([TaskSpec(0, "a", (1,)), TaskSpec(1, "b", (0,))])
    with pytest.raises(ValueError):
        topological_order([TaskSpec(0, "a", (7,))])


def test_jain_fairness_bounds():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([3, 3, 3]) == pytest.approx(1.0)
    assert jain_fairness([1, 0, 0]) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# Exactly-once completion across random crash schedules
# ---------------------------------------------------------------------------


def _build_swarm(seed, agents=("w0", "w1", "w2")):
    sim = Simulator(seed=seed)
    vis = VisibilityGraph()
    net = Network(sim, visibility=vis)
    swarm = AgentSwarm(sim, net, vis, agents=agents,
                       config=SwarmConfig(claim_ttl=0.9, reoffer_grace=0.6,
                                          reoffer_poll=0.2, poll=0.05,
                                          work_mean=0.15, op_lease=0.5))
    return sim, swarm


crash_schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),       # victim index
              st.floats(min_value=0.05, max_value=4.0),    # crash at
              st.floats(min_value=0.2, max_value=1.5)),    # downtime
    max_size=4)


@given(st.integers(min_value=0, max_value=10_000), crash_schedules)
@settings(max_examples=15, deadline=None)
def test_exactly_once_completion_under_crashes(seed, crashes):
    sim, swarm = _build_swarm(seed)
    swarm.submit_root("job", fanout=3, depth=1)  # 3 + join = 4 tasks
    names = swarm.agent_names
    for victim, crash_at, downtime in crashes:
        name = names[victim]
        sim.schedule_at(crash_at,
                        lambda name=name: (name in swarm.registry
                                           and swarm.crash_agent(name)))
        sim.schedule_at(crash_at + downtime,
                        lambda name=name: swarm.revive_agent(name))
    swarm.start()
    sim.run(until=25.0)  # quiet tail: all crashes healed by t=6
    swarm.stop()

    # Safety: the completion-token gate forbids duplicates outright.
    assert swarm.stats.duplicates == 0, swarm.stats.done_records
    # Liveness: lease expiry re-offered everything the crashes dropped.
    assert sorted(swarm.completed) == [0, 1, 2, 3], (
        swarm.completed, swarm.stats)


def test_auto_churn_cycles_agents_and_stays_safe():
    """Exponential crash/revive cycling (the T12 churn model): agents
    actually die and come back, and the token gate holds throughout."""
    sim, swarm = _build_swarm(seed=5)
    swarm.submit_root("job", fanout=3, depth=1)
    swarm.auto_churn(mean_uptime=2.0, mean_downtime=0.4)
    swarm.start()
    sim.run(until=30.0)
    swarm.stop()
    assert swarm.stats.crashes > 0
    assert swarm.stats.duplicates == 0, swarm.stats.done_records
    assert swarm.completed, swarm.stats


# ---------------------------------------------------------------------------
# Consensus agreement under adversarial vote interleavings
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=5),
       st.lists(st.floats(min_value=0.0, max_value=2.0),
                min_size=1, max_size=2),
       crash_schedules)
@settings(max_examples=15, deadline=None)
def test_consensus_agreement_adversarial(seed, n_agents, ballot_times,
                                         crashes):
    agents = tuple(f"w{i}" for i in range(n_agents))
    sim, swarm = _build_swarm(seed, agents=agents)
    options = ["alpha", "beta", "gamma"]
    for qid, at in enumerate(ballot_times):
        sim.schedule_at(at, lambda qid=qid: swarm.ask_vote(qid, options))
    for victim, crash_at, downtime in crashes:
        name = agents[victim % n_agents]
        sim.schedule_at(crash_at,
                        lambda name=name: (name in swarm.registry
                                           and swarm.crash_agent(name)))
        sim.schedule_at(crash_at + downtime,
                        lambda name=name: swarm.revive_agent(name))

    decides: list = []   # (question, choice) of every decide event

    def read(node, t, code, op_id, kind, peer, detail, payload=None):
        if code == "decide":
            decides.append(detail)

    sim.obs.flight.add_reader(read)
    try:
        swarm.start()
        sim.run(until=20.0)
        swarm.stop()
    finally:
        sim.obs.flight.remove_reader(read)

    # Agreement: every decide event for one ballot names the same choice,
    # and it is one of the ballot's options.
    by_qid: dict = {}
    for question, choice in decides:
        by_qid.setdefault(question, set()).add(choice)
    for qid, choices in by_qid.items():
        assert len(choices) == 1, (qid, choices)
        assert choices <= set(options)
    # Termination: with the quiet tail, every opened ballot decided.
    for qid in range(len(ballot_times)):
        state = swarm.decisions[qid]
        assert state["choice"] is not None, (qid, state)
        assert state["decided_at"] >= state["asked_at"]


# ---------------------------------------------------------------------------
# Portable engine: the same vocabulary through repro.connect
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("runtime", ["sim", "threads", "aio"])
def test_handles_session_runtimes(runtime):
    result = run_handles_session(runtime, agents=3, tasks=6)
    assert result.complete, result
    assert result.duplicates == 0
    assert result.decision in ("alpha", "beta")
    assert sum(result.completed_by.values()) == result.completed
