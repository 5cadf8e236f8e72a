"""The six workloads: closed-loop drivers over ``repro.connect`` handles.

Every workload goes through the public front door with the default
``TiamatConfig`` (so the JSON wire codec, as a user gets it), generates
its inputs from the seed alone, and checks every returned tuple against
what it deposited.  The program under test never sees the seed except
through ``connect("sim", seed=...)``.

Load shape: closed loop — a caller of a tuple space waits for its reply —
from one process with at most two active threads (the client, plus the
aio loop thread).  The aio workloads cross the host's loopback interface
only; no real link is involved.
"""

from __future__ import annotations

import asyncio
import random
import time
import traceback
from typing import Any, Optional

import repro
from repro.leasing import GenerousPolicy
from repro.tuples import Pattern, Range, Tuple

from tracing import FramesProxy, Patches, Recorder

_clock_ns = time.perf_counter_ns
_clock = time.perf_counter

#: Requested lease of resident tuples on sim nodes.  Their grant policy is
#: widened to match: each sim handle call advances virtual time by up to
#: 0.25 s and the default policy caps grants at one virtual hour, which a
#: run would outlive.
FOREVER = 1e9


def _forever_policy() -> GenerousPolicy:
    return GenerousPolicy(max_duration=2 * FOREVER)


#: Handle methods traced on every node's space, and on its store.
_SPACE_CALLS = ("out", "rdp", "inp", "rd", "in_")
_STORE_CALLS = ("find", "add", "remove")


class Oracle:
    """Counts handle calls attempted and the ones that came back wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(what)


class Workload:
    """Set-up, one closed-loop cycle, counters and the final residents check."""

    name = ""
    load = ""          # printed with the results: loop kind, clients, link
    warmup_cycles = 0
    #: Sync-facade thread handoffs per handle call (aio_sync: rd and in_ of three).
    handoffs_per_call = 0.0
    #: Whether handle calls overlap in time, so their spans are latency, not cost.
    calls_overlap = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.oracle = Oracle()
        self.calls = 0                      # handle calls completed
        self.lat: dict[str, list[int]] = {"out": [], "rd": [], "in": []}
        self.rec: Optional[Recorder] = None
        self.rt: Any = None

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Connect, create nodes, seed residents, run the fixed warm-up."""
        self.build()
        self.warm_up()

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.warmup_cycles):
            self.cycle()

    def cycle(self) -> None:
        raise NotImplementedError

    def run_round(self, seconds: float) -> float:
        """Cycle until ``seconds`` have passed; returns the time taken."""
        cycle = self.cycle
        if self.rec is not None:
            cycle = self.rec.wrap("cycle", cycle, root=True)
        start = _clock()
        deadline = start + seconds
        while _clock() < deadline:
            cycle()
        return _clock() - start

    def start_timing(self) -> None:
        """Forget the warm-up's samples."""
        self.calls = 0
        self.oracle.attempted = 0
        for samples in self.lat.values():
            samples.clear()

    def close(self) -> None:
        """Residents check (deposits - takes == what the handles hold), then close."""
        try:
            expected, counted = self.residents()
            self.oracle.attempted += 1
            if expected != counted:
                self.oracle.fail(f"{self.name}: {expected} residents expected "
                                 f"(deposits - takes), handles hold {counted}")
        finally:
            self.rt.close()

    def residents(self) -> tuple[int, int]:
        raise NotImplementedError

    # -- tracing and counters -----------------------------------------
    def nodes(self) -> list:
        raise NotImplementedError

    def instrument(self, rec: Recorder) -> Patches:
        """Wrap the layers' public entry points on the objects built here."""
        patches = Patches()
        patches.set(self, "rec", rec)
        for slot in ("call_out", "call_rd", "call_in"):
            patches.set(self, slot,
                        rec.wrap("op." + slot[5:], getattr(self, slot), root=True))
        space_layer = "tuples.space." if self.rt.kind == "sim" else "runtime.space."
        for node in self.nodes():
            for attr in _SPACE_CALLS:
                patches.wrap(rec, node.space, attr, space_layer + attr)
            for attr in _STORE_CALLS:
                patches.wrap(rec, node.space.store, attr, "tuples.store." + attr)
            if self.rt.kind == "sim":
                patches.wrap(rec, node.instance.leases, "negotiate", "leasing.negotiate")
        if self.rt.kind == "sim":
            patches.wrap(rec, self.rt.sim, "run", "sim.kernel.run")
        if self.rt.kind == "aio":
            registry = self.rt.registry
            patches.wrap(rec, registry, "submit", "runtime.aio.submit")
            patches.set(registry, "frames", FramesProxy(rec, registry.frames))
        return patches

    def os_floor_us(self, delta: dict, calls: int, direct: dict) -> float:
        """What the host alone charges ``calls`` handle calls: one send and one
        receive per datagram, one queue round trip per thread handoff."""
        datagrams = delta.get("aio.pool_hits", 0) + delta.get("aio.pool_misses", 0)
        return (datagrams * direct["os.udp_loopback_rtt_us"] / 2
                + calls * self.handoffs_per_call * direct["os.thread_handoff_us"])

    def counters(self) -> dict[str, float]:
        """Cumulative public counters of the layers under this workload."""
        out = {"store.hits": 0, "store.misses": 0, "store.scans": 0,
               "store.scanned": 0}
        for node in self.nodes():
            store = node.space.store
            out["store.hits"] += store.scan_cache_hits
            out["store.misses"] += store.scan_cache_misses
            out["store.scans"] += store.scans
            out["store.scanned"] += store.entries_scanned
        if self.rt.kind == "aio":
            stats = self.rt.registry.stats()
            for key in ("frames_sent", "bytes_sent", "retransmits",
                        "dedup_served", "sheds"):
                out["aio." + key] = stats[key]
            per_node = stats["nodes"].values()
            out["aio.transport_errors"] = sum(n["transport_errors"] for n in per_node)
            out["aio.pool_hits"] = sum(n["pool"]["hits"] for n in per_node)
            out["aio.pool_misses"] = sum(n["pool"]["misses"] for n in per_node)
        if self.rt.kind == "sim":
            net = self.rt.network.stats
            out["net.frames"] = net.total_messages
            out["net.bytes"] = net.total_bytes
            out["net.dropped"] = net.total_dropped
            out["net.unicast"] = sum(n.sent_unicast for n in net.nodes.values())
            out["net.multicast"] = sum(n.sent_multicast for n in net.nodes.values())
            out["sim.events"] = self.rt.sim.events_processed
            instances = [node.instance for node in self.nodes()]
            for key in ("offers_made", "offers_won", "sheds"):
                out["serving." + key] = sum(getattr(i.server, key) for i in instances)
            for key in ("sent", "retransmits", "duplicates_dropped"):
                out["reliability." + key] = sum(getattr(i.reliability, key) for i in instances)
            for key in ("negotiations", "refusals"):
                out["leasing." + key] = sum(getattr(i.leases, key) for i in instances)
        return out


# ----------------------------------------------------------------------
# The remote-hit cycle: out on a peer, rd then in_ from the origin
# ----------------------------------------------------------------------
class RemoteHit(Workload):
    """``peer.out(job_i)`` -> ``origin.rd`` (remote hit) -> ``origin.in_`` (remote hit)."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.next_id = 0
        self.deposits = 0
        self.takes = 0

    def job(self) -> tuple[Tuple, Pattern]:
        i = self.next_id
        self.next_id = i + 1
        return (Tuple("job", i, "%032x" % self.rng.getrandbits(128)),
                Pattern("job", i, str))

    def pick_depositor(self) -> None:
        """Hook: choose which peer this cycle's ``out`` lands on."""

    def cycle(self) -> None:
        tup, pattern = self.job()
        self.pick_depositor()
        self.oracle.attempted += 3
        try:
            t0 = _clock_ns()
            self.call_out(tup)
            t1 = _clock_ns()
            read = self.call_rd(pattern)
            t2 = _clock_ns()
            taken = self.call_in(pattern)
            t3 = _clock_ns()
        except Exception:
            self.oracle.fail(traceback.format_exc(limit=3), 3)
            return
        self.check(tup, read, taken, t0, t1, t2, t3)

    def check(self, tup, read, taken, t0, t1, t2, t3) -> None:
        self.calls += 3
        self.deposits += 1
        lat = self.lat
        lat["out"].append(t1 - t0)
        lat["rd"].append(t2 - t1)
        lat["in"].append(t3 - t2)
        if read != tup:
            self.oracle.fail(f"rd returned {read!r}, deposited {tup!r}")
        if taken is not None:
            self.takes += 1
        if taken != tup:
            self.oracle.fail(f"in_ returned {taken!r}, deposited {tup!r}")

    def residents(self) -> tuple[int, int]:
        jobs = Pattern("job", int, str)
        return (self.deposits - self.takes,
                sum(node.space.count(jobs) for node in self.nodes()))


class _TwoNodes(RemoteHit):
    """Nodes ``a`` and ``b``, mutually visible, 200 background tuples on ``b``."""

    kind = ""
    warmup_cycles = 100

    def build(self) -> None:
        self.rt = repro.connect(self.kind)
        self.a = self.rt.node("a")
        self.b = self.rt.node("b")
        self.rt.set_visible("a", "b")
        for i in range(200):
            self.b.out(Tuple("bg", i, "%032x" % self.rng.getrandbits(128)))
        self.call_out = self.b.out
        self.call_rd = self.a.rd
        self.call_in = self.a.in_

    def nodes(self) -> list:
        return [self.a, self.b]


class AioSync(_TwoNodes):
    name = "aio_sync"
    kind = "aio"
    handoffs_per_call = 2 / 3
    load = "closed loop, 1 client thread on the sync facade, UDP over loopback (no real link)"


class ThreadsSync(_TwoNodes):
    name = "threads_sync"
    kind = "threads"
    warmup_cycles = 20
    load = "closed loop, 1 client thread, in-process"


class AioPipelined(_TwoNodes):
    name = "aio_pipelined"
    kind = "aio"
    in_flight = 32
    calls_overlap = True
    load = ("closed loop, 32 cycles in flight from one driver coroutine on the "
            "registry loop, UDP over loopback (no real link)")

    def warm_up(self) -> None:
        async def sequential() -> None:
            for _ in range(self.warmup_cycles):
                await self._a_cycle()
        self.rt.registry.submit(sequential()).result()

    def run_round(self, seconds: float) -> float:
        return self.rt.registry.submit(self._a_round(seconds)).result()

    async def _a_round(self, seconds: float) -> float:
        start = _clock()
        deadline = start + seconds

        async def worker() -> None:
            while _clock() < deadline:
                await self._a_cycle()

        tasks = [asyncio.ensure_future(worker()) for _ in range(self.in_flight)]
        await asyncio.gather(*tasks)
        return _clock() - start

    async def _a_cycle(self) -> None:
        tup, pattern = self.job()
        self.oracle.attempted += 3
        try:
            t0 = _clock_ns()
            await self.b.a_out(tup)
            t1 = _clock_ns()
            read = await self.a.a_rd(pattern)
            t2 = _clock_ns()
            taken = await self.a.a_in(pattern)
            t3 = _clock_ns()
        except Exception:
            self.oracle.fail(traceback.format_exc(limit=3), 3)
            return
        rec = self.rec
        if rec is not None:
            # Cycles overlap on the loop, so their spans are written by hand;
            # layer spans in between belong to whichever cycle was running.
            cycle_id = rec.new_id()
            rec.add(rec.new_id(), cycle_id, "op.out", t0, t1)
            rec.add(rec.new_id(), cycle_id, "op.rd", t1, t2)
            rec.add(rec.new_id(), cycle_id, "op.in", t2, t3)
            rec.add(cycle_id, 0, "cycle", t0, t3)
        self.check(tup, read, taken, t0, t1, t2, t3)


class SimUnion(RemoteHit):
    name = "sim_union"
    warmup_cycles = 30
    peers_n = 8
    load = "closed loop, 1 client driving the sim kernel inline, origin + 8 peers in a clique"

    def build(self) -> None:
        self.rt = repro.connect("sim", seed=self.seed)
        self.origin = self.rt.node("origin", policy=_forever_policy())
        self.peers = [self.rt.node(f"p{i}", policy=_forever_policy())
                      for i in range(self.peers_n)]
        names = [node.name for node in self.nodes()]
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                self.rt.set_visible(x, y)
        for node in self.nodes():
            for i in range(25):
                node.out(Tuple("bg", node.name, i), FOREVER)
        self.depositor = self.peers[0]
        self.call_out = self._peer_out
        self.call_rd = self.origin.rd
        self.call_in = self.origin.in_

    def pick_depositor(self) -> None:
        self.depositor = self.peers[self.rng.randrange(self.peers_n)]

    def _peer_out(self, tup: Tuple) -> None:
        self.depositor.out(tup, 600.0)

    def nodes(self) -> list:
        return [self.origin] + self.peers


# ----------------------------------------------------------------------
# One store, used two ways
# ----------------------------------------------------------------------
RESIDENT_TASKS = 2000
ANY_TASK = Pattern("task", int, str)


class _StoreNode(Workload):
    """One sim node holding 2000 ``task`` and 2000 ``note`` tuples."""

    def build(self) -> None:
        self.rt = repro.connect("sim", seed=self.seed)
        self.node = self.rt.node("n", policy=_forever_policy())
        self.tasks: dict[int, Tuple] = {}
        self.notes: dict[int, Tuple] = {}
        for i in range(RESIDENT_TASKS):
            self.tasks[i] = Tuple("task", i, "%032x" % self.rng.getrandbits(128))
            self.notes[i] = Tuple("note", i, self.rng.random(), "n")
            self.node.out(self.tasks[i], FOREVER)
            self.node.out(self.notes[i], FOREVER)
        self.next_id = RESIDENT_TASKS
        self.call_out = self._out
        self.call_rd = self.node.rdp
        self.call_in = self.node.inp

    def _out(self, tup: Tuple) -> None:
        self.node.out(tup, FOREVER)

    def nodes(self) -> list:
        return [self.node]

    def residents(self) -> tuple[int, int]:
        space = self.node.space
        return (len(self.tasks) + len(self.notes),
                space.count(ANY_TASK) + space.count(Pattern("note", int, float, str)))


class StoreChurn(_StoreNode):
    name = "store_churn"
    warmup_cycles = 20
    load = "closed loop, 1 client driving the sim kernel inline, single node, 4000 residents"

    def cycle(self) -> None:
        i = self.next_id
        self.next_id = i + 1
        fresh = Tuple("task", i, "%032x" % self.rng.getrandbits(128))
        self.oracle.attempted += 3
        try:
            t0 = _clock_ns()
            taken = self.call_in(ANY_TASK)
            t1 = _clock_ns()
            self.call_out(fresh)
            t2 = _clock_ns()
            read = self.call_rd(Pattern("task", i, str))    # a new pattern every cycle
            t3 = _clock_ns()
        except Exception:
            self.oracle.fail(traceback.format_exc(limit=3), 3)
            return
        self.calls += 3
        self.lat["in"].append(t1 - t0)
        self.lat["out"].append(t2 - t1)
        self.lat["rd"].append(t3 - t2)
        # pop: a task taken twice, or never deposited, is no longer (or never was) here
        if taken is None or self.tasks.pop(taken.fields[1], None) != taken:
            self.oracle.fail(f"inp(any task) returned {taken!r}: not a resident task")
        self.tasks[i] = fresh
        if read != fresh:
            self.oracle.fail(f"rdp(task {i}) returned {read!r}, deposited {fresh!r}")


class StorePoll(_StoreNode):
    name = "store_poll"
    warmup_cycles = 3
    reads_per_write = 100
    load = "closed loop, 1 client driving the sim kernel inline, single node, 4000 residents"

    def build(self) -> None:
        super().build()
        exact = self.rng.randrange(RESIDENT_TASKS)
        lo = self.rng.randrange(RESIDENT_TASKS - 10)
        self.exact = self.tasks[exact]
        self.lo, self.hi = lo, lo + 9
        self.patterns = [
            ANY_TASK,                                         # 2000 matches
            Pattern("task", exact, str),                      # exact id
            Pattern("note", Range(self.lo, self.hi), float, str),
            Pattern("task", -1, str),                         # a miss
        ]

    def cycle(self) -> None:
        rd_lat = self.lat["rd"]
        fail = self.oracle.fail
        self.oracle.attempted += self.reads_per_write + 2
        try:
            for k in range(self.reads_per_write):
                which = k & 3
                t0 = _clock_ns()
                got = self.call_rd(self.patterns[which])
                rd_lat.append(_clock_ns() - t0)
                self.calls += 1
                if which == 0:
                    if got is None or self.tasks.get(got.fields[1]) != got:
                        fail(f"rdp(any task) returned {got!r}: not a resident task")
                elif which == 1:
                    if got != self.exact:
                        fail(f"rdp(exact) returned {got!r}, resident is {self.exact!r}")
                elif which == 2:
                    if (got is None or not self.lo <= got.fields[1] <= self.hi
                            or self.notes.get(got.fields[1]) != got):
                        fail(f"rdp(note in {self.lo}..{self.hi}) returned {got!r}")
                elif got is not None:
                    fail(f"rdp(miss) returned {got!r}, expected None")
            i = self.next_id
            self.next_id = i + 1
            tick = Tuple("tick", i)
            t0 = _clock_ns()
            self.call_out(tick)
            t1 = _clock_ns()
            taken = self.call_in(Pattern("tick", i))
            t2 = _clock_ns()
        except Exception:
            self.oracle.fail(traceback.format_exc(limit=3))
            return
        self.calls += 2
        self.lat["out"].append(t1 - t0)
        self.lat["in"].append(t2 - t1)
        if taken != tick:
            fail(f"inp(tick {i}) returned {taken!r}, deposited {tick!r}")

    def residents(self) -> tuple[int, int]:
        expected, counted = super().residents()
        return expected, counted + self.node.space.count(Pattern("tick", int))


WORKLOADS = {cls.name: cls for cls in
             (AioSync, AioPipelined, ThreadsSync, SimUnion, StoreChurn, StorePoll)}
