"""Synthetic workloads for the cross-system comparison benches.

The comparison (T5) drives every system — Tiamat and the five baselines —
with the same request/response pattern over the common
:class:`~repro.baselines.base.SpaceNode` interface: each node periodically
deposits a tagged item addressed to a random other node's tag and tries to
take items addressed to itself.  Success rate, messages per operation, and
per-node storage fall out of the run.
"""

from __future__ import annotations

from repro.baselines.base import SpaceNode
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStream
from repro.tuples import Formal, Pattern, Tuple

ITEM_TAG = "wl_item"


class WorkloadStats:
    """Counters a workload run produces."""

    def __init__(self) -> None:
        self.produced = 0
        self.consume_attempts = 0
        self.consumed = 0
        self.timeouts = 0
        self.latency_sum = 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of consume attempts that returned a tuple."""
        if self.consume_attempts == 0:
            return 0.0
        return self.consumed / self.consume_attempts

    @property
    def mean_latency(self) -> float:
        """Mean virtual seconds from consume issue to satisfaction."""
        if self.consumed == 0:
            return 0.0
        return self.latency_sum / self.consumed


class RequestResponseWorkload:
    """Each node produces items for random peers and consumes its own.

    Parameters
    ----------
    nodes:
        Name -> SpaceNode for every participant.
    rng:
        Stream for peer selection and jitter.
    period:
        Mean virtual seconds between one node's successive produce/consume
        rounds.
    op_timeout:
        Bound on each blocking consume.
    """

    def __init__(self, sim: Simulator, nodes: dict[str, SpaceNode],
                 rng: RngStream, period: float = 2.0,
                 op_timeout: float = 5.0) -> None:
        self.sim = sim
        self.nodes = nodes
        self.rng = rng
        self.period = period
        self.op_timeout = op_timeout
        self.stats = WorkloadStats()
        self._seq = 0

    def start(self, duration: float) -> None:
        """Spawn one driver process per node, running for ``duration``."""
        for name in sorted(self.nodes):
            self.sim.spawn(self._drive(name, self.sim.now + duration))

    def _drive(self, name: str, until: float):
        node = self.nodes[name]
        others = [n for n in sorted(self.nodes) if n != name]
        while self.sim.now < until:
            yield self.sim.timeout(self.rng.expovariate(1.0 / self.period))
            if self.sim.now >= until:
                break
            if others:
                target = self.rng.choice(others)
                self._seq += 1
                node.out(Tuple(ITEM_TAG, target, self._seq))
                self.stats.produced += 1
            self.stats.consume_attempts += 1
            issued = self.sim.now
            op = node.in_(Pattern(ITEM_TAG, name, Formal(int)),
                          timeout=self.op_timeout)
            result = yield op.event
            if result is not None:
                self.stats.consumed += 1
                self.stats.latency_sum += self.sim.now - issued
            else:
                self.stats.timeouts += 1
