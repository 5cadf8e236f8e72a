"""The T11 overload scenario: goodput vs offered load, with and without
admission control.

One server instance owns a ``("job", int)`` tuple and fields directed
blocking ``rd_at`` queries from N client instances arriving as a Poisson
stream.  Serving is *costly*: each dispatched query occupies one of the
server's ``serve_workers`` dispatch workers for ``serve_cost`` virtual
seconds, so the server's capacity is ``serve_workers / serve_cost``
queries per second.  Every operation carries a hard client-side deadline
(its lease duration): a reply that arrives after the lease expired is
worthless — the origin has already finalized with ``None``.

Two arms share identical workload randomness (same seed, same named RNG
streams):

**uncontrolled** (``admission=False``)
    The inbound serving queue is unbounded and FIFO.  Past saturation the
    queue grows without bound, every query waits longer than its deadline,
    and dispatch workers burn their full ``serve_cost`` on queries whose
    origins have already given up — classic congestion collapse: goodput
    falls *toward zero* as offered load rises.

**admission-controlled** (``admission=True``)
    The :class:`~repro.core.admission.AdmissionController` prices each
    arrival from live signals (queue depth, drain rate, the operation's
    deadline, per-peer fair share) and sheds the excess at arrival — a
    structured ``QUERY_REFUSED`` with ``reason`` and ``retry_after`` that
    costs no worker time.  Work that would expire while queued is dropped
    at the queue head for free.  Served queries therefore finish inside
    their deadlines and goodput *plateaus* at (near) capacity.

Used by both ``benchmarks/test_t11_overload.py`` (assertions + committed
report) and ``python -m repro.cli overload`` (interactive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import TiamatConfig, TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import Network
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple

__all__ = [
    "OverloadPoint",
    "OverloadSweep",
    "run_overload_point",
    "run_overload_sweep",
]

#: Default scenario shape (chosen so a sweep runs in a few seconds of
#: wall time while leaving a wide gap between the two arms).
SERVE_COST = 0.04       # worker-seconds per dispatched query
SERVE_WORKERS = 2       # concurrent dispatch workers
OP_DEADLINE = 1.0       # each operation's lease duration (its deadline)
QUEUE_BOUND = 25        # admission arm's inbound queue bound
CLIENTS = 8
DURATION = 12.0         # seconds of offered load per point


@dataclass
class OverloadPoint:
    """Outcome of one (offered-load, arm) run."""

    offered_rate: float          # target arrival rate, queries/s
    admission: bool
    started: int = 0             # operations issued
    satisfied: int = 0           # operations that got their tuple in time
    goodput: float = 0.0         # satisfied / duration, queries/s
    served: int = 0              # queries a worker was actually spent on
    sheds: int = 0               # refused at admission (no worker time)
    stale_dropped: int = 0       # dropped at the queue head, already dead
    refusals_seen: int = 0       # structured refusals clients received
    shed_by_reason: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        """Mean completion latency of satisfied operations (seconds)."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


@dataclass
class OverloadSweep:
    """A full goodput-vs-offered-load curve for one arm."""

    admission: bool
    capacity: float              # serve_workers / serve_cost, queries/s
    points: list = field(default_factory=list)

    def goodput_at(self, multiplier: float) -> float:
        """Goodput at the point whose offered load is ``multiplier`` x
        capacity (nearest match)."""
        target = multiplier * self.capacity
        point = min(self.points, key=lambda p: abs(p.offered_rate - target))
        return point.goodput


def run_overload_point(seed: int, offered_rate: float, *,
                       admission: bool,
                       duration: float = DURATION,
                       clients: int = CLIENTS,
                       serve_cost: float = SERVE_COST,
                       serve_workers: int = SERVE_WORKERS,
                       op_deadline: float = OP_DEADLINE,
                       queue_bound: int = QUEUE_BOUND,
                       registry_sink: Optional[list] = None) -> OverloadPoint:
    """Run one offered-load point and return its :class:`OverloadPoint`.

    ``registry_sink``, when given, receives the simulation's metrics
    registry after the run (the benchmark snapshots it).
    """
    sim = Simulator(seed=seed)
    net = Network(sim)
    server = TiamatInstance(
        sim, net, "srv",
        config=TiamatConfig(serve_cost=serve_cost,
                            serve_workers=serve_workers,
                            admission_enabled=admission,
                            admission_queue_bound=queue_bound))
    server.out(Tuple("job", 1))
    handle = server.handle()
    point = OverloadPoint(offered_rate=offered_rate, admission=admission)
    pattern = Pattern("job", int)
    nodes = []
    for i in range(clients):
        client = TiamatInstance(sim, net, f"c{i}")
        net.visibility.set_visible(client.name, "srv")
        nodes.append(client)

    per_client_rate = offered_rate / clients

    def record(op, started_at: float):
        if op.satisfied:
            point.satisfied += 1
            point.latencies.append(sim.now - started_at)
        point.refusals_seen += len(op.refusals)

    def client_proc(client):
        rng = sim.rng(f"overload/arrivals/{client.name}")
        while True:
            yield sim.timeout(rng.expovariate(per_client_rate))
            if sim.now >= duration:
                return
            requester = SimpleLeaseRequester(
                LeaseTerms(duration=op_deadline, max_remotes=4))
            op = client.rd_at(handle, pattern, requester=requester)
            point.started += 1
            started_at = sim.now
            op.event.add_callback(lambda event, op=op: record(op, started_at))

    for client in nodes:
        sim.spawn(client_proc(client))
    # Grace period: let in-flight operations run out their deadlines.
    sim.run(until=duration + op_deadline + 0.5)

    point.goodput = point.satisfied / duration
    point.served = server.server.served
    point.sheds = server.server.sheds
    point.stale_dropped = server.server.stale_dropped
    if server.server.admission is not None:
        point.shed_by_reason = dict(server.server.admission.shed_by_reason)
    if registry_sink is not None:
        registry_sink.append(sim.obs.registry)
    return point


def run_overload_sweep(seed: int, *, admission: bool,
                       multipliers: tuple = (0.25, 0.5, 1.0, 1.5, 2.0),
                       duration: float = DURATION,
                       clients: int = CLIENTS) -> OverloadSweep:
    """Sweep offered load across multiples of the server's capacity."""
    capacity = SERVE_WORKERS / SERVE_COST
    sweep = OverloadSweep(admission=admission, capacity=capacity)
    for mult in multipliers:
        sweep.points.append(run_overload_point(
            seed, mult * capacity, admission=admission, duration=duration,
            clients=clients))
    return sweep
