"""Command-line interface: run the showcase scenarios without writing code.

::

    python -m repro.cli quickstart
    python -m repro.cli demo --nodes 6 --duration 120 --seed 7
    python -m repro.cli compare --systems tiamat,central --nodes 8
    python -m repro.cli trace --seed 3 --loss 0.05 --chrome trace.json
    python -m repro.cli chaos --items 6 --seed 1
    python -m repro.cli chaos --durable --items 8 --seed 1
    python -m repro.cli wal inspect /tmp/chaos-wal/server.wal
    python -m repro.cli overload --clients 8 --duration 12
    python -m repro.cli stats --nodes 8 --duration 30 --format prom
    python -m repro.cli flight dump --loss 0.2 --out flight.json
    python -m repro.cli flight show flight.json --last 40
    python -m repro.cli top --nodes 6 --duration 20 --once

Subcommands:

``quickstart``
    The two-instance walk-through (same content as ``examples/quickstart.py``).
``demo``
    An N-node churning cluster running the request/response workload,
    reporting success rate and communication cost.
``compare``
    The T5-style comparison over any subset of the six systems.
``trace``
    A single distributed ``in`` with the full protocol timeline, the
    per-operation causal span waterfall (``repro.obs``), and optional
    Chrome trace-event JSON export (``--chrome``, Perfetto-loadable).
``chaos``
    A scripted fault scenario — burst loss, duplication, corruption, and a
    server power-cycle — with the trace, drop-reason stats, and
    reliability-sublayer counters printed (demo of ``repro.net.faults``).
    The power-cycle goes through crash recovery + anti-entropy rejoin
    (``docs/PROTOCOL.md`` section 10); the server's log lives in process
    memory by default and in a write-ahead log on disk with ``--durable``.
``wal``
    Storage tooling: ``wal inspect PATH`` decodes a write-ahead log —
    frame-by-frame records, the embedded snapshot, torn-tail diagnosis,
    and the live entry set a recovery would rebuild.
``overload``
    The T11 goodput-vs-offered-load sweep, uncontrolled vs
    admission-controlled serving side by side: congestion collapse versus
    the shedding plateau (demo of ``repro.core.admission``).
``stats``
    Run the standard workload on a Tiamat cluster and dump the full
    metrics registry (Prometheus text or JSON), optionally with the
    kernel's per-handler profile (``--profile``).
``flight``
    The flight recorder's black boxes (``repro.obs.flight``):
    ``flight dump`` runs a lossy scenario and writes every node's ring
    to JSON; ``flight show PATH`` renders a dump as a per-node (or
    ``--op``-merged) waterfall.
``top``
    In-space cluster telemetry: runs a cluster with leased
    ``("_telemetry", ...)`` health rows enabled and renders the
    collector's ok/degraded/overloaded/partitioned table, on the
    simulator (default) or the real-thread runtime (``--runtime
    threads``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.apps import RequestResponseWorkload
from repro.bench import SYSTEMS, Table, build_system
from repro.core import TiamatConfig, TiamatInstance
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import (
    ChurnInjector,
    CorruptPayload,
    CrashRestartInjector,
    DuplicateFrames,
    FaultPlan,
    GilbertElliottLoss,
    Network,
    ProtocolTrace,
)
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run the quickstart narrative."""
    sim = Simulator(seed=args.seed)
    net = Network(sim)
    a = TiamatInstance(sim, net, "alice")
    b = TiamatInstance(sim, net, "bob")
    net.visibility.set_visible("alice", "bob")
    a.out(Tuple("note", "hello"))
    op = b.in_(Pattern("note", str))
    sim.run(until=10.0)
    print(f"bob consumed {op.result} from {op.source} at t={sim.now:.3f}")
    print(f"network: {net.stats.total_messages} frames, "
          f"{net.stats.total_bytes} bytes")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run a churning Tiamat cluster under the standard workload."""
    sim, network, nodes = build_system("tiamat", args.nodes, seed=args.seed,
                                       config=TiamatConfig(
                                           propagate_mode="continuous"))
    churn = ChurnInjector(sim, network.visibility)
    for name in sorted(nodes):
        churn.auto_churn(name, mean_uptime=30.0, mean_downtime=5.0)
    workload = RequestResponseWorkload(sim, nodes, sim.rng("cli"),
                                       period=2.0, op_timeout=8.0)
    workload.start(duration=args.duration)
    sim.run(until=args.duration + 20.0)
    stats = workload.stats
    print(f"{args.nodes} nodes, {args.duration:.0f}s, churn 30s up / 5s down")
    print(f"  produced:  {stats.produced}")
    print(f"  consumed:  {stats.consumed}/{stats.consume_attempts} "
          f"(success rate {stats.success_rate:.2f})")
    print(f"  network:   {network.stats.total_messages} frames, "
          f"{network.stats.total_bytes} bytes")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the comparison workload over the selected systems."""
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        print(f"unknown systems: {unknown}; choose from {sorted(SYSTEMS)}",
              file=sys.stderr)
        return 2
    table = Table(f"comparison at {args.nodes} nodes",
                  ["system", "success", "frames/op", "stored/node"])
    for system in systems:
        sim, network, nodes = build_system(system, args.nodes, seed=args.seed)
        sim.run(until=5.0)
        workload = RequestResponseWorkload(sim, nodes, sim.rng("cli"),
                                           period=3.0, op_timeout=8.0)
        before = network.stats.total_messages
        workload.start(duration=args.duration)
        sim.run(until=5.0 + args.duration + 20.0)
        stats = workload.stats
        ops = max(1, stats.produced + stats.consume_attempts)
        frames = network.stats.total_messages - before
        stored = [n.stored_tuples() for n in nodes.values()]
        table.add_row(system, stats.success_rate, frames / ops,
                      sum(stored) / len(stored))
    table.show()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print the protocol timeline + causal span tree of one distributed in()."""
    if args.runtime == "threads":
        return _cmd_trace_threads(args)
    sim = Simulator(seed=args.seed)
    net = Network(sim, loss_rate=args.loss)
    a = TiamatInstance(sim, net, "a")
    b = TiamatInstance(sim, net, "b")
    c = TiamatInstance(sim, net, "c")
    net.visibility.connect_clique(["a", "b", "c"])
    trace = ProtocolTrace(net).attach()
    tracer = sim.obs.start_trace(net)
    b.out(Tuple("target", 1))
    c.out(Tuple("target", 2))
    op = a.in_(Pattern("target", int))
    sim.run(until=10.0)
    print(f"a consumed {op.result} from {op.source}\n")
    print(trace.render())
    print(f"\ncausal span tree for {op.op_id}:\n")
    print(tracer.waterfall(op.op_id))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(tracer.chrome_trace(op.op_id))
        print(f"\nchrome trace written to {args.chrome} "
              "(load in Perfetto or chrome://tracing)")
    return 0


def _cmd_trace_threads(args: argparse.Namespace) -> int:
    """Trace one blocking take on the real-thread runtime (wall clock)."""
    from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode

    registry = ThreadedNodeRegistry()
    a = ThreadedTiamatNode(registry, "a")
    b = ThreadedTiamatNode(registry, "b")
    ThreadedTiamatNode(registry, "c")
    for pair in (("a", "b"), ("a", "c"), ("b", "c")):
        registry.set_visible(*pair)
    tracer = registry.obs.start_trace()
    b.out(Tuple("target", 1))
    result = a.in_(Pattern("target", int), timeout=2.0)
    op_id = next(oid for oid in reversed(tracer.op_ids())
                 if oid.startswith("a@"))
    print(f"a consumed {result} (wall-clock timestamps)\n")
    print(tracer.waterfall(op_id))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(tracer.chrome_trace(op_id))
        print(f"\nchrome trace written to {args.chrome} "
              "(load in Perfetto or chrome://tracing)")
    return 0


def cmd_flight(args: argparse.Namespace) -> int:
    """Flight-recorder tooling: dump a black box, or render one."""
    from repro.obs.flight import load_flight_dump, render_flight

    if args.flight_command == "show":
        box = load_flight_dump(args.path)
        print(render_flight(box, op_id=args.op, last=args.last))
        return 0

    # flight dump: run a self-contained lossy scenario so the rings have
    # something worth keeping — retransmits, drops, op lifecycles — then
    # write every node's black box to JSON.
    sim = Simulator(seed=args.seed)
    net = Network(sim, loss_rate=args.loss)
    instances = {name: TiamatInstance(sim, net, name)
                 for name in ("a", "b", "c")}
    net.visibility.connect_clique(["a", "b", "c"])
    for i in range(args.ops):
        instances["b" if i % 2 == 0 else "c"].out(Tuple("item", i))
    outcomes: list = []

    def driver():
        client = instances["a"]
        for i in range(args.ops):
            op = client.in_(Pattern("item", i),
                            requester=SimpleLeaseRequester(
                                LeaseTerms(duration=6.0)))
            result = yield op.event
            outcomes.append(result)
            yield sim.timeout(0.3)

    sim.spawn(driver())
    sim.run(until=60.0)
    path = sim.obs.flight.dump_to(
        args.out, "cli", detail={"seed": args.seed, "loss": args.loss})
    satisfied = sum(1 for result in outcomes if result is not None)
    print(f"ran {len(outcomes)} distributed in ops ({satisfied} satisfied) "
          f"at loss={args.loss}")
    print(f"flight dump written to {path}")
    print(f"render it with: python -m repro.cli flight show {path}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Cluster health table from the in-space telemetry rows."""
    from repro.obs.telemetry import collect_cluster_health, render_top

    if args.runtime == "threads":
        return _cmd_top_threads(args)
    config = TiamatConfig(telemetry_enabled=True)
    sim, network, nodes = build_system("tiamat", args.nodes, seed=args.seed,
                                       config=config)
    sim.run(until=2.0)
    workload = RequestResponseWorkload(sim, nodes, sim.rng("cli"),
                                       period=1.5, op_timeout=6.0)
    workload.start(duration=args.duration)
    spaces = [adapter.instance.space for adapter in nodes.values()]
    expected = sorted(nodes)
    frames = 1 if args.once else max(1, int(args.duration / args.refresh))
    step = args.duration / frames
    for frame in range(frames):
        sim.run(until=sim.now + step)
        health = collect_cluster_health(
            spaces, now=sim.now, period=config.telemetry_period,
            expected=expected)
        if frame:
            print()
        print(render_top(health, sim.now,
                         title=f"sim seed={args.seed}"))
    return 0


def _cmd_top_threads(args: argparse.Namespace) -> int:
    """Cluster health over the real-thread runtime (wall clock)."""
    import time

    from repro.obs.telemetry import render_top
    from repro.runtime.node import ThreadedNodeRegistry, ThreadedTiamatNode

    period = 0.2
    registry = ThreadedNodeRegistry()
    names = [f"n{i}" for i in range(args.nodes)]
    nodes = [ThreadedTiamatNode(registry, name) for name in names]
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            registry.set_visible(left, right)
    for node in nodes:
        node.start_telemetry(period=period)
    try:
        # a dab of traffic so the windowed counters are non-zero
        for i, node in enumerate(nodes):
            node.out(Tuple("warm", i))
            node.rdp(Pattern("warm", int))
        deadline = time.monotonic() + args.duration
        first = True
        while True:
            time.sleep(2 * period)
            health = registry.cluster_health(period=period)
            if not first:
                print()
            first = False
            print(render_top(health, time.monotonic(), title="threads"))
            if args.once or time.monotonic() >= deadline:
                return 0
    finally:
        for node in nodes:
            node.stop_telemetry()


def cmd_stats(args: argparse.Namespace) -> int:
    """Run the standard workload and dump the whole metrics registry."""
    sim, network, nodes = build_system("tiamat", args.nodes, seed=args.seed)
    if args.profile:
        sim.enable_profiling()
    sim.run(until=5.0)
    workload = RequestResponseWorkload(sim, nodes, sim.rng("cli"),
                                       period=2.0, op_timeout=8.0)
    workload.start(duration=args.duration)
    sim.run(until=5.0 + args.duration + 20.0)
    registry = sim.obs.registry
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.render_prometheus(), end="")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Run the micro-layer perf suite and print the metric table.

    The same ``repro.bench.perf.collect()`` run that
    ``benchmarks/perf_baseline.py --check`` gates against
    ``BENCH_micro.json`` in CI (all 13 names plus the ungated loopback
    line); this subcommand prints it and never fails.
    """
    from repro.bench import perf

    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print(f"(no baseline at {args.baseline})")
    print(perf.render_table(perf.collect(), baseline))
    return 0


def cmd_overload(args: argparse.Namespace) -> int:
    """Goodput vs offered load: collapse without admission, plateau with.

    Runs the shared T11 scenario (:mod:`repro.bench.overload`) for both
    arms and prints the goodput curve side by side.
    """
    from repro.bench.overload import run_overload_sweep

    multipliers = tuple(float(m) for m in args.multipliers.split(","))
    sweeps = {
        admission: run_overload_sweep(
            args.seed, admission=admission, multipliers=multipliers,
            duration=args.duration, clients=args.clients)
        for admission in (False, True)
    }
    capacity = sweeps[True].capacity
    print(f"server capacity: {capacity:.0f} queries/s "
          f"({args.clients} clients, {args.duration:.0f}s per point)")
    table = Table(
        "goodput vs offered load (queries/s)",
        ["offered (x cap)", "uncontrolled", "admission", "shed", "refusals"])
    for off_point, on_point in zip(sweeps[False].points, sweeps[True].points):
        table.add_row(
            f"{off_point.offered_rate / capacity:.2f}",
            f"{off_point.goodput:.2f}",
            f"{on_point.goodput:.2f}",
            on_point.sheds,
            on_point.refusals_seen,
        )
    print(table.render())
    at2_off = sweeps[False].goodput_at(multipliers[-1])
    at2_on = sweeps[True].goodput_at(multipliers[-1])
    print(f"at {multipliers[-1]:.2f}x capacity: uncontrolled "
          f"{at2_off:.1f} q/s vs admission {at2_on:.1f} q/s")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Scripted fault scenario: chaos vs the reliability sublayer."""
    sim = Simulator(seed=args.seed)
    net = Network(sim)
    plan = FaultPlan([
        GilbertElliottLoss(p_gb=0.05, p_bg=0.5),
        DuplicateFrames(0.1),
        CorruptPayload(0.02),
    ])
    net.use_faults(plan)

    registry: dict = {}

    def factory(name: str) -> TiamatInstance:
        instance = TiamatInstance(sim, net, name)
        for peer in registry:
            if peer != name:
                net.visibility.set_visible(name, peer)
        return instance

    registry["server"] = factory("server")
    registry["client"] = factory("client")
    trace = ProtocolTrace(net).attach()

    # One recovery path, two places for the log to live: an in-process
    # MemoryBackend by default, a WAL on disk under --durable.
    from repro.tuples.storage import MemoryBackend, WALBackend, attach_backend

    wal_dir = None
    if args.durable:
        import tempfile

        wal_dir = tempfile.mkdtemp(prefix="repro-chaos-wal-")
        backend = WALBackend(os.path.join(wal_dir, "server"), compact_every=16)
    else:
        backend = MemoryBackend()
    attach_backend(registry["server"].space, backend)

    for i in range(args.items):
        registry["server"].out(
            Tuple("item", i),
            requester=SimpleLeaseRequester(LeaseTerms(duration=300.0)))

    # Power-cycle the server mid-run: it dies with whatever its backend
    # logged and recovers from it, anti-entropy rejoin included.
    boom = CrashRestartInjector(sim, registry, factory,
                                backends={"server": backend})
    boom.power_cycle("server", crash_time=2.0, restart_time=4.0)

    consumed = []

    def consumer():
        client = registry["client"]
        while "server" not in client.comms.plan():
            yield client.comms.discover()
        for i in range(args.items):
            op = client.in_(Pattern("item", i),
                            requester=SimpleLeaseRequester(
                                LeaseTerms(duration=8.0, max_remotes=8)))
            result = yield op.event
            if result is not None:
                consumed.append(i)
            # pace the ops so the power cycle lands mid-run
            yield sim.timeout(0.7)

    sim.spawn(consumer())
    sim.run(until=120.0)

    print(f"chaos: {args.items} destructive in ops under burst loss + "
          "duplication + corruption + a server power-cycle\n")
    print(trace.render())
    print(f"\nconsumed {len(consumed)}/{args.items} items "
          f"(success rate {len(consumed) / max(1, args.items):.2f})")
    print(f"power cycle: crashes={boom.crashes} restarts={boom.restarts} "
          f"tuples restored={boom.tuples_restored} "
          f"reclaimed={boom.tuples_reclaimed}")
    print(f"durable recovery: ghosts purged={boom.ghosts_purged} "
          f"log records out={backend.records_out} "
          f"rm={backend.records_remove} "
          f"compactions={backend.compactions} "
          f"torn truncations={backend.torn_truncations}")
    if wal_dir is not None:
        print(f"wal dir: {wal_dir}")
    print(f"fault plan: {plan.frames_seen} frames judged, "
          f"{plan.frames_dropped} dropped")
    print(net.stats.drop_summary())
    for name in sorted(registry):
        stats = registry[name].reliability.stats()
        print(f"reliability[{name}]: sent={stats['sent']} "
              f"retransmits={stats['retransmits']} acked={stats['acked']} "
              f"dedup-dropped={stats['duplicates_dropped']} "
              f"expired={stats['expired']}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Schedule-exploration model checking (repro.check)."""
    from repro.check.explorer import Explorer, Perturbations, TEMPLATES
    from repro.check.shrink import CheckReport

    if args.replay:
        report = CheckReport.from_json(args.replay)
        outcome = report.replay(trace=True)
        print(f"replayed {report.template} seed={report.seed} "
              f"max_events={report.min_events}")
        print(f"schedule hash: {outcome.schedule_hash}")
        if outcome.schedule_hash != report.schedule_hash:
            print("WARNING: schedule hash diverged from the report "
                  "(code changed since it was captured?)")
        if outcome.clean:
            print("no violation reproduced")
            return 1
        violation = outcome.first_violation
        print(f"violation reproduced: {violation.oracle} @event "
              f"{violation.event_index}: {violation.detail}")
        return 0

    if args.nightly:
        schedules, label = args.schedules or 10_000, "nightly"
    elif args.smoke:
        schedules, label = args.schedules or 240, "smoke"
    else:
        schedules, label = args.schedules or 240, "custom"
    templates = (args.templates.split(",") if args.templates
                 else sorted(TEMPLATES))
    explorer = Explorer(templates=templates, perturb=Perturbations())
    progress = None
    if not args.quiet:
        every = max(1, schedules // 20)

        def progress(done, total):
            if done % every == 0 or done == total:
                print(f"  explored {done}/{total} schedules", flush=True)

    print(f"repro check [{label}]: {schedules} schedules over "
          f"{len(templates)} templates {templates} (seed base {args.seed})")
    result = explorer.run(schedules=schedules, seed_base=args.seed,
                          progress=progress)
    print(result.summary())
    for report in result.reports:
        print()
        print(report.render())
    return 0 if result.clean else 1


def cmd_wal(args: argparse.Namespace) -> int:
    """Storage tooling: decode a write-ahead log + snapshot pair."""
    from repro.tuples.storage import inspect_wal

    base = args.path
    for ext in (".wal", ".snap"):
        if base.endswith(ext):
            base = base[:-len(ext)]
    info = inspect_wal(base, max_records=args.max_records)
    if info["refused"] is not None:
        print(f"refused: {info['refused']}")
        return 1
    print(f"wal:  {info['wal_path']} ({info['wal_bytes']} bytes, "
          f"{info['wal_records']} records)")
    if info["snapshot_entries"] is None:
        print(f"snap: {info['snap_path']} (absent)")
    else:
        print(f"snap: {info['snap_path']} ({info['snapshot_entries']} "
              f"entries, taken at t={info['snapshot_at']})")
    if info["torn"]:
        print(f"torn tail: {info['torn_bytes']} trailing bytes do not frame "
              "(recovery would truncate them)")
    print(f"live entries after replay: {info['live_entries']}")
    for record in info["records"]:
        if record.get("op") == "out":
            print(f"  out  #{record['id']} at t={record.get('at')} "
                  f"exp={record.get('exp')} tup={record.get('tup')}")
        elif record.get("op") == "rm":
            print(f"  rm   #{record['id']} at t={record.get('at')} "
                  f"why={record.get('why')}")
        else:
            print(f"  {record}")
    shown = len(info["records"])
    if shown < info["wal_records"]:
        print(f"  ... {info['wal_records'] - shown} more records "
              "(raise --max-records)")
    return 0


def cmd_differential(args: argparse.Namespace) -> int:
    """Cross-runtime conformance over scripted workloads."""
    from repro.check.differential import run_differential

    runtimes = tuple(r.strip() for r in args.runtimes.split(",") if r.strip())
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        result = run_differential(seed, steps=args.steps, runtimes=runtimes,
                                  flavor=args.flavor)
        verdict = "agree" if result.agree else "DIVERGE"
        print(f"seed {seed}: {verdict} across {'/'.join(result.transcripts)} "
              f"(consumed {len(result.sim.consumed)} tuples)")
        for mismatch in result.mismatches:
            failures += 1
            print(f"  {mismatch}")
    return 0 if failures == 0 else 1


def cmd_agents(args: argparse.Namespace) -> int:
    """Multi-agent blackboard coordination (the T12 scenario).

    Default mode runs the full T12 comparison
    (:mod:`repro.bench.agents`): the generative blackboard vs a
    centralized master/worker baseline, with and without churn.
    ``--once`` is the CI smoke: one small front-door session
    (:func:`repro.apps.agents.run_handles_session`) on the chosen
    runtime — exit 1 unless every task completed exactly once and the
    ballot decided.
    """
    if args.once:
        from repro.apps.agents import run_handles_session

        result = run_handles_session(args.runtime,
                                     agents=args.agents or 3,
                                     tasks=args.tasks)
        spread = ", ".join(f"{name}={count}"
                           for name, count in sorted(
                               result.completed_by.items()))
        print(f"[{result.runtime}] {result.completed}/{result.tasks} tasks "
              f"completed, {result.duplicates} duplicates, "
              f"decision={result.decision!r}, {result.answers} answers, "
              f"{result.elapsed:.2f}s wall ({spread})")
        ok = result.complete and result.decision is not None
        print("agents smoke OK" if ok else "agents smoke FAILED")
        return 0 if ok else 1

    from repro.bench.agents import AGENTS, CHURN, DURATION, run_t12

    churn = args.churn if args.churn is not None else CHURN
    result = run_t12(args.seed, churn=churn,
                     agents=args.agents or AGENTS,
                     duration=args.duration or DURATION)
    table = Table(
        "T12: blackboard vs centralized master under churn",
        ["arm", "churn", "completed", "goodput (t/s)", "dup", "fairness",
         "consensus", "ttc (s)", "recoveries", "crashes"])
    for point in result.points:
        table.add_row(
            point.arm, f"{point.churn:.0%}", point.completed,
            f"{point.goodput:.2f}", point.duplicates,
            f"{point.fairness:.3f}",
            f"{point.consensus_decided}/{point.consensus_opened}",
            f"{point.consensus_mean:.2f}",
            point.recoveries, point.crashes)
    print(table.render())
    print(f"blackboard keeps {result.blackboard_goodput_ratio:.0%} of "
          f"zero-churn goodput at {churn:.0%} churn "
          f"(central: {result.central_goodput_ratio:.0%}); "
          f"blackboard duplicates: "
          f"{result.blackboard_churn.duplicates} (token-gated), "
          f"central: {result.central_churn.duplicates} (timeout races)")
    return 0


def cmd_aio_echo(args: argparse.Namespace) -> int:
    """Loopback UDP smoke: two aio nodes round-trip real datagrams.

    Builds an :mod:`repro.runtime.aio` cluster on 127.0.0.1 (ephemeral
    ports), echoes ``--count`` tuples off a peer, and performs one remote
    take — proving that sockets, the frame codec, the pooled send path,
    and the request/response machinery all work on this host.
    """
    import repro
    from repro.tuples import Pattern, Tuple

    with repro.connect(runtime="aio") as rt:
        ping = rt.node("ping")
        pong = rt.node("pong")
        rt.set_visible("ping", "pong")
        start = time.perf_counter()
        for i in range(args.count):
            echoed = ping.echo(pong.addr, Tuple("echo", i, "payload"))
            if echoed != Tuple("echo", i, "payload"):
                print(f"echo {i} FAILED: got {echoed!r}")
                return 1
        elapsed = time.perf_counter() - start
        pong.out(Tuple("smoke", args.count))
        taken = ping.inp(Pattern("smoke", int))
        stats = ping.stats()
        rate = args.count / elapsed if elapsed > 0 else float("inf")
        print(f"{args.count} echoes over UDP loopback in {elapsed*1e3:.1f} ms "
              f"({rate:,.0f} round-trips/s)")
        print(f"remote take: {taken!r}")
        print(f"frames sent={stats['frames_sent']} "
              f"received={stats['frames_received']} "
              f"retransmits={stats['retransmits']} "
              f"pool={stats['pool']}")
        return 0 if taken == Tuple("smoke", args.count) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Tiamat reproduction scenarios")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="two-instance walk-through")

    demo = sub.add_parser("demo", help="churning cluster workload")
    demo.add_argument("--nodes", type=int, default=8)
    demo.add_argument("--duration", type=float, default=60.0)

    compare = sub.add_parser("compare", help="multi-system comparison")
    compare.add_argument("--systems", default=",".join(SYSTEMS))
    compare.add_argument("--nodes", type=int, default=8)
    compare.add_argument("--duration", type=float, default=60.0)

    trace = sub.add_parser(
        "trace", help="protocol timeline + span tree of one distributed in()")
    trace.add_argument("--loss", type=float, default=0.0,
                       help="i.i.d. frame loss rate (default 0, sim only)")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="write Chrome trace-event JSON to PATH")
    trace.add_argument("--runtime", choices=("sim", "threads"),
                       default="sim",
                       help="simulated protocol (default) or the "
                            "real-thread runtime with wall-clock spans")

    chaos = sub.add_parser("chaos", help="scripted fault-injection scenario")
    chaos.add_argument("--items", type=int, default=6,
                       help="destructive in ops to run (default 6)")
    chaos.add_argument("--durable", action="store_true",
                       help="keep the server's log in a write-ahead log "
                            "on disk instead of process memory (same "
                            "recovery path, torn-tail-tolerant replay)")

    wal = sub.add_parser("wal", help="write-ahead-log storage tooling")
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_inspect = wal_sub.add_parser(
        "inspect", help="decode a WAL + snapshot pair (read-only)")
    wal_inspect.add_argument("path",
                             help="WAL base path (with or without the "
                                  ".wal/.snap extension)")
    wal_inspect.add_argument("--max-records", type=int, default=200,
                             help="record lines to print (default 200)")

    perf = sub.add_parser(
        "perf", help="micro-ops hot-path metrics (codec, scan cache, wire)")
    perf.add_argument("--baseline", default="BENCH_micro.json",
                      help="baseline JSON to diff against "
                           "(default BENCH_micro.json)")

    overload = sub.add_parser(
        "overload",
        help="goodput vs offered load: admission-control ablation (T11)")
    overload.add_argument("--clients", type=int, default=8)
    overload.add_argument("--duration", type=float, default=12.0,
                          help="seconds of offered load per point")
    overload.add_argument("--multipliers", default="0.25,0.5,1.0,1.5,2.0",
                          help="offered load as multiples of capacity")

    stats = sub.add_parser(
        "stats", help="run the standard workload and dump the metrics registry")
    stats.add_argument("--nodes", type=int, default=8)
    stats.add_argument("--duration", type=float, default=30.0)
    stats.add_argument("--format", choices=("prom", "json"), default="prom",
                       help="output format (default prom)")
    stats.add_argument("--profile", action="store_true",
                       help="enable the kernel's per-handler profiler")

    check = sub.add_parser(
        "check",
        help="schedule-exploration model checker (invariant oracles)")
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="CI tier-1 budget (240 schedules)")
    mode.add_argument("--nightly", action="store_true",
                      help="nightly budget (10000 schedules)")
    check.add_argument("--schedules", type=int, default=None,
                       help="override the schedule budget")
    check.add_argument("--templates", default=None,
                       help="comma-separated scenario templates "
                            "(default: all)")
    check.add_argument("--replay", default=None, metavar="REPORT_JSON",
                       help="replay a CheckReport JSON blob instead of "
                            "exploring")
    check.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")

    flight = sub.add_parser(
        "flight", help="flight-recorder black boxes (dump + waterfall)")
    flight_sub = flight.add_subparsers(dest="flight_command", required=True)
    flight_dump = flight_sub.add_parser(
        "dump", help="run a lossy scenario and dump every node's ring")
    flight_dump.add_argument("--out", default="flight.json",
                             help="dump path (default flight.json)")
    flight_dump.add_argument("--loss", type=float, default=0.15,
                             help="i.i.d. frame loss rate (default 0.15)")
    flight_dump.add_argument("--ops", type=int, default=8,
                             help="distributed in ops to run (default 8)")
    flight_show = flight_sub.add_parser(
        "show", help="render a flight dump as a text waterfall")
    flight_show.add_argument("path", help="flight dump JSON path")
    flight_show.add_argument("--op", default=None, metavar="OP_ID",
                             help="merge all nodes' events for one op id")
    flight_show.add_argument("--last", type=int, default=None, metavar="N",
                             help="show only the last N events per section")

    top = sub.add_parser(
        "top", help="cluster health from the in-space telemetry rows")
    top.add_argument("--nodes", type=int, default=6)
    top.add_argument("--duration", type=float, default=20.0,
                     help="run length in (sim or wall) seconds (default 20)")
    top.add_argument("--refresh", type=float, default=5.0,
                     help="seconds between table redraws (default 5)")
    top.add_argument("--once", action="store_true",
                     help="print a single table and exit")
    top.add_argument("--runtime", choices=("sim", "threads"), default="sim",
                     help="simulated cluster (default) or real threads")

    differential = sub.add_parser(
        "differential",
        help="cross-runtime conformance (scripted workloads)")
    differential.add_argument("--seeds", type=int, default=5,
                              help="number of seeds to run (default 5)")
    differential.add_argument("--steps", type=int, default=40,
                              help="workload steps per seed (default 40)")
    differential.add_argument(
        "--runtimes", default="sim,threaded",
        help="comma-separated runtimes to compare against sim "
             "(default sim,threaded; full check: sim,threaded,aio)")
    differential.add_argument(
        "--flavor", choices=("classic", "agents"), default="classic",
        help="workload flavor: classic tuple soup or the agent "
             "blackboard vocabulary (default classic)")

    agents = sub.add_parser(
        "agents",
        help="multi-agent blackboard vs centralized master (T12)")
    agents.add_argument("--once", action="store_true",
                        help="CI smoke: one front-door session, exit 1 "
                             "unless complete and exactly-once")
    agents.add_argument("--runtime", choices=("sim", "threads", "aio"),
                        default="sim",
                        help="runtime for --once (default sim)")
    agents.add_argument("--agents", type=int, default=None,
                        help="worker count (default 3 for --once, 6 full)")
    agents.add_argument("--tasks", type=int, default=8,
                        help="tasks for --once (default 8)")
    agents.add_argument("--duration", type=float, default=None,
                        help="virtual seconds per full-mode point "
                             "(default 24)")
    agents.add_argument("--churn", type=float, default=None,
                        help="target downtime fraction for the churn "
                             "arms (default 0.2)")

    aio_echo = sub.add_parser(
        "aio-echo",
        help="UDP loopback smoke for the asyncio runtime")
    aio_echo.add_argument("--count", type=int, default=100,
                          help="echo round-trips to perform (default 100)")
    return parser


_COMMANDS = {
    "quickstart": cmd_quickstart,
    "demo": cmd_demo,
    "compare": cmd_compare,
    "trace": cmd_trace,
    "chaos": cmd_chaos,
    "overload": cmd_overload,
    "stats": cmd_stats,
    "perf": cmd_perf,
    "check": cmd_check,
    "differential": cmd_differential,
    "agents": cmd_agents,
    "aio-echo": cmd_aio_echo,
    "wal": cmd_wal,
    "flight": cmd_flight,
    "top": cmd_top,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
