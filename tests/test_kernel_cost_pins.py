"""What a sim handle call costs the kernel and the recorders, pinned exactly.

Three seeded shapes, built here as the end-to-end benchmark builds them:
one node holding 2 000 ``task`` and 2 000 ``note`` tuples, read mostly
(``store_poll``) or taken from and refilled (``store_churn``), and an
origin reading and taking from one of eight peers (``sim_union``).  Each
cycle of a shape calls the same handle methods the same way, so kernel
events, frames, flight events and metric observations per call are exact
ratios.  A figure that moves means an operation schedules, sends or
records more, or less, than it did:

* a local hit costs one kernel event, the flush of its own event; a
  local miss probes for peers, five events and one discovery frame;
* a leased ``out`` costs none (its deadline joins a heap behind one
  timer);
* a remote hit in the eight-peer clique costs 65 events and 51 frames
  per ``out``/``rd``/``in_`` cycle;
* every handle call records 4 flight events (the store shapes) and
  observes its latency and, for a lookup, its scan into histograms; the
  clique cycle records 181 events, two per frame among them, and 39
  observations;
* each unicast frame is sized by one JSON encoding;
* kernel pushes (timers scheduled, fired or not) are pinned too: the
  clique cycle pushes 123, 58 of which never fire (a serving lease's
  deadline re-aimed at its release, an acked frame's retransmission).
"""

import random

import pytest

import repro
from repro.leasing import GenerousPolicy
from repro.net import message
from repro.tuples import Pattern, Range, Tuple

FOREVER = 1e9
ANY_TASK = Pattern("task", int, str)


def _forever_node(rt, name):
    return rt.node(name, policy=GenerousPolicy(max_duration=2 * FOREVER))


class _Shape:
    """A seeded shape: ``cycle()`` makes handle calls and counts them."""

    warmup = 0

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.rt = repro.connect("sim", seed=seed)
        self.calls = 0

    def measure(self, cycles):
        """(kernel events, frames, flight events, metric observations,
        kernel pushes) per handle call over ``cycles`` cycles."""
        for _ in range(self.warmup):
            self.cycle()
        sim, stats = self.rt.sim, self.rt.network.stats
        before = (self.calls, sim.events_processed, stats.total_messages,
                  _flight_events(sim), _observations(sim), _pushes(sim))
        for _ in range(cycles):
            self.cycle()
        after = (self.calls, sim.events_processed, stats.total_messages,
                 _flight_events(sim), _observations(sim), _pushes(sim))
        calls = after[0] - before[0]
        return tuple((a - b) / calls for a, b in zip(after[1:], before[1:]))


def _flight_events(sim):
    """Every event the flight recorder recorded: appends and frames."""
    return sum(ring.recorded for ring in sim.obs.flight.rings.values())


def _pushes(sim):
    """Timers pushed onto the kernel's heap so far: the next ``seq``, read
    from the counter's repr so that reading it draws none."""
    return int(repr(sim._seq).removeprefix("count(").removesuffix(")"))


def _observations(sim):
    """Every histogram observation in the simulation's metrics registry."""
    return sum(sample["count"] for family in sim.obs.registry.families()
               if family.kind == "histogram"
               for sample in family.samples() if "count" in sample)


class _Store(_Shape):
    def __init__(self, seed):
        super().__init__(seed)
        self.node = _forever_node(self.rt, "n")
        for i in range(2000):
            self.node.out(Tuple("task", i, "%032x" % self.rng.getrandbits(128)),
                          FOREVER)
            self.node.out(Tuple("note", i, self.rng.random(), "n"), FOREVER)
        self.next_id = 2000


class StorePoll(_Store):
    warmup = 3

    def __init__(self, seed):
        super().__init__(seed)
        exact = self.rng.randrange(2000)
        lo = self.rng.randrange(2000 - 10)
        self.patterns = [ANY_TASK, Pattern("task", exact, str),
                         Pattern("note", Range(lo, lo + 9), float, str),
                         Pattern("task", -1, str)]

    def cycle(self):
        for k in range(100):
            got = self.node.rdp(self.patterns[k & 3])
            assert (got is None) == (k & 3 == 3)
        tick = Tuple("tick", self.next_id)
        self.next_id += 1
        self.node.out(tick, FOREVER)
        assert self.node.inp(Pattern("tick", tick[1])) == tick
        self.calls += 102


class StoreChurn(_Store):
    warmup = 20

    def cycle(self):
        i = self.next_id
        self.next_id = i + 1
        fresh = Tuple("task", i, "%032x" % self.rng.getrandbits(128))
        assert self.node.inp(ANY_TASK) is not None
        self.node.out(fresh, FOREVER)
        assert self.node.rdp(Pattern("task", i, str)) == fresh
        self.calls += 3


class SimUnion(_Shape):
    warmup = 30

    def __init__(self, seed):
        super().__init__(seed)
        self.origin = _forever_node(self.rt, "origin")
        self.peers = [_forever_node(self.rt, f"p{i}") for i in range(8)]
        names = ["origin"] + [peer.name for peer in self.peers]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.rt.set_visible(a, b)
        for node in [self.origin] + self.peers:
            for i in range(25):
                node.out(Tuple("bg", node.name, i), FOREVER)
        self.next_id = 0

    def cycle(self):
        i = self.next_id
        self.next_id = i + 1
        job = Tuple("job", i, "%032x" % self.rng.getrandbits(128))
        pattern = Pattern("job", i, str)
        self.peers[self.rng.randrange(8)].out(job, 600.0)
        assert self.origin.rd(pattern) == job
        assert self.origin.in_(pattern) == job
        self.calls += 3


@pytest.mark.parametrize(
    "shape, cycles, events, frames, flight, observed, pushes", [
        # 1.9706 events per call; 2 observations per call (latency, scan)
        (StorePoll, 3, 201 / 102, 25 / 102, 4.0, 202 / 102, 251 / 102),
        (StoreChurn, 30, 2 / 3, 0.0, 4.0, 4 / 3, 2 / 3),   # 0.6667 events
        (SimUnion, 12, 65 / 3, 17.0, 181 / 3, 13.0, 41.0),  # 21.6667 events
    ], ids=["store_poll", "store_churn", "sim_union"])
def test_kernel_events_and_frames_per_handle_call(
        shape, cycles, events, frames, flight, observed, pushes):
    assert shape(3).measure(cycles) == pytest.approx(
        (events, frames, flight, observed, pushes), rel=0, abs=1e-12)


def test_each_unicast_frame_is_sized_once(monkeypatch):
    shape = SimUnion(3)
    for _ in range(shape.warmup):
        shape.cycle()
    stats = shape.rt.network.stats
    unicasts = lambda: sum(node.sent_unicast for node in stats.nodes.values())
    encodes, real, sent = [], message._encode, unicasts()
    monkeypatch.setattr(message, "_encode",
                        lambda *a: encodes.append(a) or real(*a))
    for _ in range(4):
        shape.cycle()
    assert len(encodes) == unicasts() - sent == 4 * 51
