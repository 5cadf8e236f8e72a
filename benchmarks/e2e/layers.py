"""Per-layer metrics measured from outside, by direct calls.

Each function builds fresh objects of one layer through its public
constructor, times calls into its public functions and returns
``{metric name: value}``.  These numbers do not depend on the workload;
the per-workload layer counters live in ``worker.py``.  Frame costs go
through the ``registry.frames`` object of a default-config aio registry,
so they price whichever codec the default config selects.
"""

from __future__ import annotations

import json
import queue
import socket
import statistics
import threading
import time
from typing import Callable, Optional

import repro
from repro.core.admission import AdmissionController
from repro.leasing import LeaseManager, LeaseTerms, OperationKind, SimpleLeaseRequester
from repro.obs import Observability
from repro.obs.flight import FlightRing
from repro.runtime.space import ThreadSafeTupleSpace
from repro.sim import Simulator
from repro.tuples import Pattern, Tuple
from repro.tuples.matching import matches
from repro.tuples.serialization import (
    decode_tuple,
    decode_tuple_binary,
    encode_tuple,
    encode_tuple_binary,
)
from repro.tuples.store import TupleStore

_clock_ns = time.perf_counter_ns


class Bench:
    """Median-of-repeats timing; ``quick`` shrinks every budget."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.min_ns = 1_000_000 if quick else 20_000_000
        self.repeats = 1 if quick else 3

    def scale(self, n: int) -> int:
        """A fixed call count, cut down in quick mode."""
        return max(n // 10, 5) if self.quick else n

    def ns(self, fn: Callable[[], object]) -> float:
        """ns per call of ``fn``: loop count calibrated once, median of repeats."""
        number = 1
        while True:
            start = _clock_ns()
            for _ in range(number):
                fn()
            elapsed = _clock_ns() - start
            if elapsed >= self.min_ns:
                break
            number = max(number * 2, int(number * self.min_ns / max(elapsed, 1)))
        samples = [elapsed / number]
        for _ in range(self.repeats - 1):
            start = _clock_ns()
            for _ in range(number):
                fn()
            samples.append((_clock_ns() - start) / number)
        return statistics.median(samples)

    def batch_ns(self, make: Callable[[], list], fn: Callable[[object], object]) -> float:
        """ns per item of ``fn`` over a fresh batch from ``make`` (untimed) per repeat."""
        samples = []
        for _ in range(self.repeats):
            items = make()
            start = _clock_ns()
            for item in items:
                fn(item)
            samples.append((_clock_ns() - start) / len(items))
        return statistics.median(samples)

    def each_ns(self, n: int, fn: Callable[[], object],
                between: Optional[Callable[[], object]] = None) -> float:
        """Median ns of ``n`` single calls, with untimed work between them."""
        samples = []
        for _ in range(self.scale(n)):
            if between is not None:
                between()
            start = _clock_ns()
            fn()
            samples.append(_clock_ns() - start)
        return statistics.median(samples)


def _job(i: int) -> Tuple:
    return Tuple("job", i, "%032x" % (i * 0x9E3779B97F4A7C15))


def _jobs(n: int) -> list:
    """Fresh tuples: the workloads encode each tuple once, never from a memo."""
    return [_job(i) for i in range(n)]


# ----------------------------------------------------------------------
def serialization(bench: Bench) -> dict:
    n = bench.scale(1000)
    out = {
        "serialization.tuple_binary_roundtrip_ns": bench.batch_ns(
            lambda: _jobs(n), lambda t: decode_tuple_binary(encode_tuple_binary(t))),
        "serialization.tuple_json_roundtrip_ns": bench.batch_ns(
            lambda: _jobs(n),
            lambda t: decode_tuple(json.loads(json.dumps(encode_tuple(t))))),
    }
    with repro.connect("aio") as rt:
        frames = rt.registry.frames

        def query(i: int) -> dict:
            return {"k": "q", "id": i, "op": "rdp", "p": Pattern("job", i, str), "o": "a"}

        def response(i: int) -> dict:
            return {"k": "r", "id": i, "st": "hit", "t": _job(i)}

        def encoded(frame: dict) -> bytes:
            buf = bytearray()
            frames.encode_into(buf, frame)
            return bytes(buf)

        buf = bytearray()

        def encode(frame: dict) -> None:
            del buf[:]
            frames.encode_into(buf, frame)

        for kind, make in (("query", query), ("response", response)):
            out[f"serialization.frame_{kind}_encode_ns"] = bench.batch_ns(
                lambda: [make(i) for i in range(n)], encode)
            out[f"serialization.frame_{kind}_decode_ns"] = bench.batch_ns(
                lambda: [encoded(make(i)) for i in range(n)], frames.decode)
            out[f"serialization.frame_{kind}_bytes"] = float(len(encoded(make(1000))))
    return out


def matching(bench: Bench) -> dict:
    pattern = Pattern("job", 7, str)
    hit, miss = _job(7), _job(8)

    def both() -> None:
        matches(pattern, hit)
        matches(pattern, miss)

    return {"matching.matches_ns": bench.ns(both) / 2}


def _resident_store() -> TupleStore:
    store = TupleStore()
    for i in range(2000):
        store.add(Tuple("task", i, "t"))
        store.add(Tuple("note", i, 0.5, "n"))
    return store


def _fill_then_drain(bench: Bench, n: int, make: Callable[[int], object],
                     fill: Callable[[object], object],
                     drain: Callable[[object], object]) -> "tuple[float, float]":
    """ns per ``fill(make(i))`` and per ``drain(what fill returned)``, n of each."""
    fills, drains = [], []
    for _ in range(bench.repeats):
        items = [make(i) for i in range(n)]
        t0 = _clock_ns()
        filled = [fill(item) for item in items]
        t1 = _clock_ns()
        for item in filled:
            drain(item)
        t2 = _clock_ns()
        fills.append((t1 - t0) / n)
        drains.append((t2 - t1) / n)
    return statistics.median(fills), statistics.median(drains)


def store(bench: Bench) -> dict:
    n = bench.scale(1000)
    target = _resident_store()
    add_ns, remove_ns = _fill_then_drain(
        bench, n, _job, target.add, lambda entry: target.remove(entry.entry_id))

    any_task = Pattern("task", int, str)
    target.find(any_task)

    def invalidate() -> None:      # any mutation bumps the store version
        target.remove(target.add(Tuple("x")).entry_id)

    return {
        "store.add_ns": add_ns,
        "store.remove_ns": remove_ns,
        "store.find_memo_hit_ns": bench.ns(lambda: target.find(any_task)),
        "store.find_miss_bucket2000_ns": bench.each_ns(
            60, lambda: target.find(any_task), between=invalidate),
        # distinct exact-id patterns: each a memo miss served by a 1-entry bucket
        "store.find_exact_ns": bench.batch_ns(
            lambda: [Pattern("task", i, str) for i in range(n)], target.find),
    }


def runtime_space(bench: Bench) -> dict:
    out = {}
    any_task = Pattern("task", int, str)
    n = bench.scale(300)
    for pop in (200, 4000):
        space = ThreadSafeTupleSpace("bench")
        for i in range(pop):
            space.out(Tuple("task", i, "t"))
        # tag-only pattern: _find_live snapshots the whole "task" bucket
        out_ns, inp_ns = _fill_then_drain(
            bench, n, lambda i: Tuple("task", pop + i, "t"), space.out,
            lambda _: space.inp(any_task))
        out[f"runtime.space.out_ns_pop{pop}"] = out_ns
        out[f"runtime.space.inp_ns_pop{pop}"] = inp_ns
        out[f"runtime.space.rdp_ns_pop{pop}"] = bench.ns(lambda: space.rdp(any_task))
    return out


def os_floors(bench: Bench) -> dict:
    """What the host charges for one datagram round trip and one thread handoff."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as a, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as b:
        a.bind(("127.0.0.1", 0))
        b.bind(("127.0.0.1", 0))
        a_addr, b_addr = a.getsockname(), b.getsockname()
        payload = b"x" * 96

        def ping_pong() -> None:
            a.sendto(payload, b_addr)
            b.recvfrom(2048)
            b.sendto(payload, a_addr)
            a.recvfrom(2048)

        rtt = bench.ns(ping_pong)

    there: queue.SimpleQueue = queue.SimpleQueue()
    back: queue.SimpleQueue = queue.SimpleQueue()

    def echo() -> None:
        while there.get():
            back.put(True)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    try:
        def handoff() -> None:
            there.put(True)
            back.get()

        handoff_ns = bench.ns(handoff)
    finally:
        there.put(False)
        thread.join(timeout=5.0)
    return {"os.udp_loopback_rtt_us": rtt / 1e3, "os.thread_handoff_us": handoff_ns / 1e3}


def runtime_aio(bench: Bench) -> dict:
    import asyncio

    payload = _job(1)
    with repro.connect("aio") as rt:
        a, b = rt.node("a"), rt.node("b")
        rt.set_visible("a", "b")
        registry = rt.registry

        async def noop() -> None:
            return None

        submit_ns = bench.ns(lambda: registry.submit(noop()).result())
        sync_ns = bench.ns(lambda: a.echo(b.addr, payload))
        count = bench.scale(2000)

        async def sequential() -> float:
            start = _clock_ns()
            for _ in range(count):
                await a.a_echo(b.addr, payload)
            return (_clock_ns() - start) / count

        async def pipelined() -> float:
            start = _clock_ns()
            for _ in range(count // 32):
                await asyncio.gather(*(a.a_echo(b.addr, payload) for _ in range(32)))
            return (count // 32 * 32) / ((_clock_ns() - start) / 1e9)

        loop_ns = statistics.median(
            registry.submit(sequential()).result() for _ in range(bench.repeats))
        pipelined_ops = statistics.median(
            registry.submit(pipelined()).result() for _ in range(bench.repeats))
    return {"runtime.aio.submit_noop_us": submit_ns / 1e3,
            "runtime.aio.echo_sync_us": sync_ns / 1e3,
            "runtime.aio.echo_loop_us": loop_ns / 1e3,
            "runtime.aio.echo_pipelined_ops_per_s": pipelined_ops}


def runtime_node(bench: Bench) -> dict:
    n = bench.scale(300)
    with repro.connect("threads") as rt:
        a, b = rt.node("a"), rt.node("b")
        rt.set_visible("a", "b")
        for i in range(200):
            b.out(Tuple("bg", i, "t"))
        b.out(_job(0))
        exact = Pattern("job", 0, str)

        def deposit(count: int) -> list:
            for i in range(1, count + 1):
                b.out(_job(i))
            return [Pattern("job", i, str) for i in range(1, count + 1)]

        return {
            "runtime.node.serve_rdp_ns": bench.ns(lambda: b.serve_rdp(exact)),
            "runtime.node.serve_inp_ns": bench.batch_ns(lambda: deposit(n), b.serve_inp),
            "runtime.node.visible_nodes_ns": bench.ns(
                lambda: rt.registry.visible_nodes("a")),
            "runtime.node.rdp_remote_us": bench.ns(lambda: a.rdp(exact)) / 1e3,
            # blocking rd waits one POLL_INTERVAL on the local space first
            "runtime.node.rd_remote_us": bench.each_ns(15, lambda: a.rd(exact)) / 1e3,
        }


def sim_runtime(bench: Bench) -> dict:
    with repro.connect("sim", seed=0) as rt:
        node = rt.node("n")
        node.out(_job(0), 1e9)
        exact = Pattern("job", 0, str)
        local_rdp = bench.each_ns(400, lambda: node.rdp(exact))

    events = bench.scale(20000)

    def run_events() -> float:
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-6, int)
        start = _clock_ns()
        sim.run()
        return (_clock_ns() - start) / events

    return {"runtime.api.sim_local_rdp_us": local_rdp / 1e3,
            "sim.kernel.event_ns": statistics.median(
                run_events() for _ in range(bench.repeats))}


def core_and_leasing(bench: Bench) -> dict:
    controller = AdmissionController(clock=time.monotonic)
    n = bench.scale(2000)
    requester = SimpleLeaseRequester(LeaseTerms(duration=30.0))

    def negotiations() -> float:
        manager = LeaseManager(Simulator())     # fresh: granted leases pile up
        start = _clock_ns()
        for _ in range(n):
            manager.negotiate(requester, OperationKind.RD)
        return (_clock_ns() - start) / n

    return {
        "core.admission.consider_ns": bench.ns(lambda: controller.consider(
            "peer", "rd", queue_depth=0, drain_rate=0.0, utilisation=0.0,
            active_servings=0)),
        "leasing.negotiate_ns": statistics.median(
            negotiations() for _ in range(bench.repeats)),
    }


def obs(bench: Bench) -> dict:
    ring = FlightRing("bench")
    counter = Observability(clock=time.monotonic, thread_safe=True).registry.counter(
        "bench_ops_total", help="bench", labels=("node", "op", "outcome"))
    return {
        "obs.flight.append_ns": bench.ns(
            lambda: ring.append(1.0, "send", "op-1", "rd", "peer", None)),
        # what every aio/threads handle call pays
        "obs.metrics.counter_inc_ns": bench.ns(
            lambda: counter.labels(node="a", op="rd", outcome="hit").inc()),
    }


def driver_overhead(bench: Bench) -> dict:
    """The generator's own cost: a remote-hit cycle whose handle calls are stubs."""
    from workloads import RemoteHit

    cycle = RemoteHit(0)
    held: list = [None]
    cycle.call_out = lambda tup: held.__setitem__(0, tup)
    cycle.call_rd = cycle.call_in = lambda pattern: held[0]
    return {"driver.cycle_overhead_ns": bench.ns(cycle.cycle)}


def measure_all(quick: bool) -> dict:
    bench = Bench(quick)
    out: dict = {}
    for layer in (serialization, matching, store, runtime_space, os_floors,
                  runtime_aio, runtime_node, sim_runtime, core_and_leasing,
                  obs, driver_overhead):
        out.update(layer(bench))
    return out
