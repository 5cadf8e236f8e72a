"""Unit tests for the discrete-event kernel (clock, queue, timers)."""

import hashlib
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.core import TiamatInstance
from repro.core.monitoring import AppMonitor
from repro.errors import SimulationError
from repro.leasing import GenerousPolicy, LeaseTerms, SimpleLeaseRequester
from repro.net.network import Network, default_latency
from repro.sim import Simulator
from repro.sim.kernel import Timer
from repro.tuples import LocalTupleSpace, Pattern, Tuple


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=10.0).now == 10.0


def test_schedule_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_fifo_order_at_same_instant():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_interleaved_times_run_in_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_zero_delay_runs_after_already_queued_now():
    sim = Simulator()
    seen = []
    sim.schedule(0.0, seen.append, 1)
    sim.schedule(0.0, seen.append, 2)
    sim.run()
    assert seen == [1, 2]


def test_callback_can_schedule_more_work():
    sim = Simulator()
    seen = []

    def later():
        seen.append(sim.now)
        if sim.now < 3:
            sim.schedule(1.0, later)

    sim.schedule(1.0, later)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_timer_cancel_prevents_callback():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, seen.append, "x")
    timer.cancel()
    sim.run()
    assert seen == []
    assert not timer.active


def test_timer_active_lifecycle():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    assert timer.active
    sim.run()
    assert timer.fired and not timer.active


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0  # clock advanced exactly to the horizon
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_when_queue_empty():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i), seen.append, i)
    sim.run(max_events=2)
    assert seen == [0, 1]


def test_step_processes_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, seen.append, 2)
    assert sim.step()
    assert seen == [1]
    assert sim.step()
    assert not sim.step()


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: (seen.append("a"), sim.stop()))
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_schedule_at_in_past_clamps_to_now():
    sim = Simulator()
    seen = []

    def cb():
        sim.schedule_at(0.5, seen.append, sim.now)  # already past

    sim.schedule(2.0, cb)
    sim.run()
    assert seen == [2.0]


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@example(2.001, 6.001)   # 2.001 + (6.001 - 2.001) == 6.0009999999999994
def test_schedule_at_fires_exactly_at_its_time(a, b):
    now, t = sorted((a, b))
    sim = Simulator()
    sim.run(until=now)
    seen = []
    sim.schedule_at(t, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [t]


def test_a_tuple_expires_when_its_deadline_rounds_below_now_plus_delay():
    sim = Simulator(seed=1)
    sim.run(until=2.001)
    space = LocalTupleSpace(sim, "s")
    space.out(Tuple("x", 1), expires_at=6.001)
    sim.run(until=20.0)
    assert space.count() == 0
    assert space.expirations == 1


def test_pending_and_peek():
    sim = Simulator()
    assert sim.peek() is None
    t1 = sim.schedule(3.0, lambda: None)
    sim.schedule(7.0, lambda: None)
    assert sim.pending == 2
    assert sim.peek() == 3.0
    t1.cancel()
    assert sim.peek() == 7.0
    assert sim.pending == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def bad():
        sim.run()

    sim.schedule(1.0, bad)
    with pytest.raises(SimulationError):
        sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_consumed_tuples_and_released_leases_do_not_pin_timers():
    """out+inp cycles under a 1e9 s lease leave a bounded queue behind.

    Each cycle schedules a tuple-expiry and two lease-expiry timers that
    never reach the head of the queue; they must be cancelled when the
    tuple is consumed / the lease ends, and swept out of the heap.
    """
    rt = repro.connect("sim", seed=3)
    try:
        node = rt.node("n", policy=GenerousPolicy(max_duration=2e9))
        sim = rt.sim
        sizes = []
        for i in range(5000):
            node.out(Tuple("task", i), 1e9)
            assert node.inp(Pattern("task", int)) == Tuple("task", i)
            if i in (999, 4999):
                sizes.append((sim.pending, len(sim._queue)))
        assert sizes[1][0] == sizes[0][0]                   # live timers: constant
        assert sizes[1][1] <= 2 * Simulator.COMPACT_FLOOR   # dead ones: swept
    finally:
        rt.close()


@pytest.mark.parametrize("kind", ["rdp", "inp", "rd", "in_"])
def test_a_local_hit_schedules_only_its_event_flush(kind):
    """A locally satisfied operation finishes inside the call: one live
    timer (the operation event's flush), no process, no linger, no record
    left — and every observer still sees it."""
    sim = Simulator(seed=4)
    inst = TiamatInstance(sim, Network(sim), "a")
    monitor = AppMonitor(sim)
    monitor.attach(inst)
    inst.space.out(Tuple("x", 1))       # no lease, no expiry timer
    sim.run()
    pending, leases = sim.pending, inst.leases.active_count
    op = getattr(inst, kind)(Pattern("x", int))
    assert op.done and (op.result, op.source) == (Tuple("x", 1), "a")
    assert sim.pending == pending + 1
    assert inst._ops == {}
    assert inst.leases.active_count == leases
    assert sim.step() and sim.pending == pending
    assert [e["event"] for e in inst.flight_ring.events()
            if e.get("op_id") == op.op_id] == ["op_start", "op_end"]
    [sample] = sim.obs.registry.snapshot()["slo_op_latency_seconds"]["samples"]
    assert (sample["labels"]["kind"], sample["count"]) == (op.kind.value, 1)
    [record] = monitor.history
    assert (record.kind, record.satisfied, record.finished_at) == (
        op.kind.value, True, sim.now)


def test_compaction_leaves_the_schedule_unchanged():
    def run(force_compaction):
        sim = Simulator(seed=9)
        rng = sim.rng("test")
        fired = []

        def tick(i):
            fired.append((sim.now, i))
            if force_compaction and i % 50 == 0:
                sim._compact()

        timers = [sim.schedule(rng.uniform(0, 100), tick, i) for i in range(3000)]
        for timer in rng.sample(timers, 1800):
            timer.cancel()
        end = sim.run()
        return fired, sim.events_processed, end

    swept, lazy = run(True), run(False)
    assert swept == lazy
    assert swept[1] == 1200


# ----------------------------------------------------------------------
# The total order (time, tiebreak, seq): pinned, and as a property
# ----------------------------------------------------------------------
#: SHA-256 over ``(time, seq)`` of every timer ``_schedule_digest`` fires,
#: recorded when the heap still ordered ``Timer`` objects by ``__lt__`` and
#: unchanged since.
SCHEDULE_SHA256 = ("edcd91437b19c59bc24141df062c4be6"
                   "08a2ebeb5871aebb21ba9a145618f763")


def _schedule_digest():
    sim = Simulator(seed=22)
    net = Network(sim, latency_factory=default_latency(per_byte=0.0))
    a = TiamatInstance(sim, net, "a")
    b = TiamatInstance(sim, net, "b")
    net.visibility.connect_clique(["a", "b"])
    sha = hashlib.sha256()
    sim.event_hook = lambda t: sha.update(struct.pack("<dq", t.time, t.seq))
    for i in range(50):
        b.out(Tuple("job", i))
        rd = a.rd(Pattern("job", i))
        sim.run(until=sim.now + 0.5)
        take = a.in_(Pattern("job", int))
        sim.run(until=sim.now + 0.5)
        assert rd.result == take.result == Tuple("job", i)
    b.out(Tuple("brief", 0),
          requester=SimpleLeaseRequester(LeaseTerms(duration=2.0)))
    sim.run(until=sim.now + 5.0)
    assert b.space.rdp(Pattern("brief", int)) is None      # lease expired
    return sha.hexdigest(), sim.events_processed, sim.now


def test_schedule_hash_is_pinned():
    assert _schedule_digest() == (SCHEDULE_SHA256, 1156, 55.0)


@given(seed=st.integers(0, 2**16),
       count=st.integers(1, 2 * Simulator.COMPACT_FLOOR + 200),
       hooked=st.booleans(), cancel_share=st.floats(0.0, 0.9))
def test_fired_order_is_sorted_by_time_tiebreak_seq(seed, count, hooked,
                                                    cancel_share):
    sim = Simulator(seed=seed)
    rng = sim.rng("test")
    if hooked:
        # two-valued on purpose: ties on (time, tiebreak) fall to seq
        sim.set_tiebreak(lambda: float(rng.randint(0, 1)))
    fired = []
    sim.event_hook = fired.append
    timers = []
    for _ in range(count):      # few distinct delays: ties are the rule
        timers.append(sim.schedule(rng.choice([0.0, 0.5, 1.0, 2.5, 7.0]),
                                   lambda: None))
        if rng.random() < cancel_share:    # cancels interleave with sweeps
            rng.choice(timers).cancel()
    sim.run()
    live = [t for t in timers if not t.cancelled]
    assert fired == sorted(live, key=lambda t: (t.time, t.tiebreak, t.seq))


def test_timers_are_unorderable():
    """Nothing orders timers: heap entries settle on (time, tiebreak, seq)."""
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.0, lambda: None) < sim.schedule(1.0, lambda: None)
    with pytest.raises(TypeError):
        Timer(0.0, 0, print, ()) < Timer(0.0, 1, print, ())
