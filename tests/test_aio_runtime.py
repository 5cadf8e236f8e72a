"""The asyncio UDP runtime: real datagrams on loopback, ephemeral ports.

Everything here binds ``port=0`` sockets on 127.0.0.1, so the suite is
CI-safe: no fixed ports, no external network.
"""

import asyncio
import concurrent.futures
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.config import TiamatConfig
from repro.runtime.aio import (
    AioNodeRegistry,
    AioTiamatNode,
    BufferPool,
    MAX_BATCH_FRAMES,
)
from repro.tuples.model import Pattern, Tuple

pytestmark = pytest.mark.timeout(60)


@pytest.fixture()
def cluster():
    with AioNodeRegistry() as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        registry.set_visible("a", "b")
        yield registry, a, b


# ----------------------------------------------------------------------
# The six operations over real sockets
# ----------------------------------------------------------------------
def test_local_out_rdp_inp(cluster):
    _, a, _ = cluster
    a.out(Tuple("job", 1))
    assert a.rdp(Pattern("job", int)) == Tuple("job", 1)
    assert a.inp(Pattern("job", int)) == Tuple("job", 1)
    assert a.inp(Pattern("job", int)) is None


def test_remote_read_and_take(cluster):
    _, a, b = cluster
    b.out(Tuple("task", "parse", 7))
    # rd leaves the tuple with the owner; in removes it over the wire
    assert a.rdp(Pattern("task", str, int)) == Tuple("task", "parse", 7)
    assert b.space.count() == 1
    assert a.inp(Pattern("task", str, int)) == Tuple("task", "parse", 7)
    assert b.space.count() == 0
    assert a.inp(Pattern("task", str, int)) is None


def test_visibility_is_enforced():
    with AioNodeRegistry() as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        # no set_visible: the spaces are disjoint even on one host
        b.out(Tuple("hidden", 1))
        assert a.rdp(Pattern("hidden", int)) is None
        registry.set_visible("a", "b")
        assert a.rdp(Pattern("hidden", int)) == Tuple("hidden", 1)


def test_blocking_take_wakes_on_late_remote_deposit(cluster):
    _, a, b = cluster

    def deposit():
        time.sleep(0.15)
        b.out(Tuple("late", 99))

    t = threading.Thread(target=deposit)
    t.start()
    try:
        got = a.in_(Pattern("late", int), timeout=10.0)
    finally:
        t.join()
    assert got == Tuple("late", 99)
    assert b.space.count() == 0


def test_local_out_during_a_probe_is_not_a_lost_wakeup(cluster):
    """Sync ``rd``: the deposit lands while the caller's thread is inside
    the aio transport hook; the park re-checks the store and returns."""
    _, a, _ = cluster
    a.POLL_INTERVAL = 1.0       # one instance; a slept poll would be obvious
    real_probe_peer = a._probe_peer

    def probe_peer_with_a_deposit_in_flight(*args, **kwargs):
        a._probe_peer = real_probe_peer     # only the first round's probe
        a.out(Tuple("mid", 1))
        return real_probe_peer(*args, **kwargs)

    a._probe_peer = probe_peer_with_a_deposit_in_flight
    start = time.monotonic()
    assert a.rd(Pattern("mid", int), timeout=3.0) == Tuple("mid", 1)
    assert time.monotonic() - start < 0.5


def test_async_local_out_during_a_probe_is_not_a_lost_wakeup(cluster):
    """The async twin: ``a_rd`` parked on the loop after a probe during
    which ``a_out`` deposited its tuple."""
    registry, a, _ = cluster
    a.POLL_INTERVAL = 1.0
    real_probe = a._probe

    async def probe_with_a_deposit_in_flight(*args, **kwargs):
        a._probe = real_probe   # only the first round's probe
        await a.a_out(Tuple("mid", 1))
        return await real_probe(*args, **kwargs)

    a._probe = probe_with_a_deposit_in_flight
    start = time.monotonic()
    got = registry.submit(a.a_rd(Pattern("mid", int),
                                 timeout=3.0)).result(timeout=10.0)
    assert got == Tuple("mid", 1)
    assert time.monotonic() - start < 0.5


def test_a_second_async_op_does_not_swallow_the_first_ones_wakeup(cluster):
    """Two loop-side blocking ops on one node: op X's tuple is deposited
    while X probes a peer, then a second ``a_rd`` starts its first round.
    X must still return at once, not after a full ``POLL_INTERVAL``."""
    registry, a, _ = cluster
    a.POLL_INTERVAL = 1.0
    real_probe = a._probe
    others = []

    async def probe_then_start_a_second_op(*args, **kwargs):
        a._probe = real_probe
        await a.a_out(Tuple("mid", 1))
        others.append(asyncio.ensure_future(
            a.a_rd(Pattern("other", int), timeout=0.2)))
        await asyncio.sleep(0)          # the second op runs its first round
        return await real_probe(*args, **kwargs)

    async def x_then_the_other():
        loop = asyncio.get_running_loop()
        start = loop.time()
        got = await a.a_rd(Pattern("mid", int), timeout=3.0)
        elapsed = loop.time() - start
        await others[0]
        return got, elapsed

    a._probe = probe_then_start_a_second_op
    got, elapsed = registry.submit(x_then_the_other()).result(timeout=10.0)
    assert got == Tuple("mid", 1)
    assert elapsed < 0.5


def test_sync_out_leaves_the_loop_alone_unless_a_loop_op_is_parked(
        cluster, monkeypatch):
    registry, a, _ = cluster
    loop = registry.loop
    scheduled = []
    real = loop.call_soon_threadsafe

    def spy(callback, *args, **kwargs):
        scheduled.append(callback)
        return real(callback, *args, **kwargs)

    monkeypatch.setattr(loop, "call_soon_threadsafe", spy)
    a.out(Tuple("quiet", 1))
    assert scheduled == []
    monkeypatch.undo()

    # With an a_rd parked on the loop, the sync out wakes it at once.
    a.POLL_INTERVAL = 1.0
    parked = registry.submit(a.a_rd(Pattern("wake", int), timeout=3.0))
    deadline = time.monotonic() + 5.0
    while not a._loop_waiters and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)                    # past the first round's peer probe
    start = time.monotonic()
    a.out(Tuple("wake", 1))
    assert parked.result(timeout=5.0) == Tuple("wake", 1)
    assert time.monotonic() - start < 0.5


def test_concurrent_sync_takes_under_loss_are_exactly_once():
    """Four application threads take 40 remote tuples over a lossy wire.
    They run side by side on their own threads; every tuple is taken
    exactly once."""
    with AioNodeRegistry(loss_rate=0.2, loss_seed=11) as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        registry.set_visible("a", "b")
        for i in range(40):
            b.out(Tuple("job", i))
        taken = [[] for _ in range(4)]

        def worker(mine):
            for _ in range(10):
                mine.append(a.in_(Pattern("job", int), timeout=20.0))

        threads = [threading.Thread(target=worker, args=(mine,))
                   for mine in taken]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the callers' bytecode
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=50.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        got = [tup for mine in taken for tup in mine]
        assert None not in got
        assert sorted(got, key=lambda t: t[1]) == [Tuple("job", i)
                                                  for i in range(40)]
        assert b.space.count() == 0
        assert registry.frames_dropped > 0
        assert a.retransmits > 0


def test_tracer_and_wait_histogram_see_sync_calls(cluster):
    registry, a, b = cluster
    tracer = registry.obs.start_trace()
    b.out(Tuple("seen", 1))
    assert a.rd(Pattern("seen", int), timeout=1.0) == Tuple("seen", 1)
    (op_id,) = [op for op in tracer.op_ids() if op.startswith("a@")]
    events = tracer.events_for(op_id)
    assert [e.event for e in events] == ["op_start", "note", "op_end"]
    assert events[-1].detail == {"satisfied": True, "source": "b"}
    waits = registry.obs.registry.snapshot()["runtime_blocking_wait_seconds"]
    counts = {s["labels"]["node"]: s["count"] for s in waits["samples"]}
    assert counts["a"] == 1


def test_close_mid_probe_unblocks_the_sync_caller():
    registry = AioNodeRegistry()
    a = AioTiamatNode(registry, "a")
    b = AioTiamatNode(registry, "b")
    registry.set_visible("a", "b")
    b._serve_query = lambda frame, addr: None      # b never answers
    outcome = []

    def call():
        try:
            outcome.append(a.rd(Pattern("x", int), timeout=10.0))
        except BaseException as exc:  # noqa: BLE001 - the type is the point
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    deadline = time.monotonic() + 5.0
    while not a._pending and time.monotonic() < deadline:
        time.sleep(0.001)
    registry.close()
    caller.join(timeout=1.0)
    assert not caller.is_alive()
    assert len(outcome) == 1
    assert isinstance(outcome[0], concurrent.futures.CancelledError)


def test_blocking_read_times_out_cleanly(cluster):
    _, a, _ = cluster
    start = time.monotonic()
    assert a.rd(Pattern("never", int), timeout=0.3) is None
    assert time.monotonic() - start < 5.0
    assert a.ops_unsatisfied >= 1


def test_eval_runs_worker_and_deposits(cluster):
    _, a, b = cluster
    fut = a.eval(lambda x: Tuple("square", x, x * x), 6)
    assert fut.result(timeout=10.0) == Tuple("square", 6, 36)
    # the active tuple's result landed in a's space, visible to b
    assert b.inp(Pattern("square", int, int)) == Tuple("square", 6, 36)


def test_eval_rejects_non_tuple_results(cluster):
    _, a, _ = cluster
    with pytest.raises(TypeError, match="not a Tuple"):
        a.eval(lambda: 42).result(timeout=10.0)


def test_echo_roundtrip_and_wire_counters(cluster):
    _, a, b = cluster
    payload = Tuple("ping", "x" * 64)
    assert a.echo(b.addr, payload) == payload
    stats = a.stats()
    assert stats["frames_sent"] >= 1
    assert stats["bytes_sent"] > 0
    assert b.frames_received >= 1


# ----------------------------------------------------------------------
# Reliability plane: dedup cache, shedding/backoff, loss counters
# ----------------------------------------------------------------------
def test_destructive_hit_is_replayed_not_recomputed(cluster):
    """A retransmitted take whose hit was already committed must replay
    the cached answer — consuming the tuple exactly once."""
    registry, a, b = cluster
    b.out(Tuple("once", 5))
    frame = {"k": "q", "id": 424242, "op": "inp",
             "p": Pattern("once", int), "o": "a"}

    async def serve_twice():
        b._serve_query(dict(frame), a.addr)
        b._serve_query(dict(frame), a.addr)  # the retransmitted copy

    registry.submit(serve_twice()).result(timeout=10.0)
    assert b.space.count() == 0
    assert b.dedup_served == 1


def test_miss_is_recomputed_on_retransmit(cluster):
    """Misses are *not* cached: the same request id probed again after a
    deposit must see the new tuple (blocking ops reuse ids per round)."""
    registry, a, b = cluster
    frame = {"k": "q", "id": 434343, "op": "inp",
             "p": Pattern("later", int), "o": "a"}

    async def probe():
        b._serve_query(dict(frame), a.addr)

    registry.submit(probe()).result(timeout=10.0)
    b.out(Tuple("later", 1))
    registry.submit(probe()).result(timeout=10.0)
    assert b.dedup_served == 0
    assert b.space.count() == 0  # the second serve consumed it


def test_replay_cache_evicts_oldest_first(cluster):
    registry, a, b = cluster
    b.SERVED_CACHE = 2
    for i in range(3):
        b.out(Tuple("evict", i))

    async def take(i):
        b._serve_query({"k": "q", "id": 5000 + i, "op": "inp",
                        "p": Pattern("evict", i), "o": "a"}, a.addr)

    for i in range(3):
        registry.submit(take(i)).result(timeout=10.0)
    assert list(b._served_cache) == [("a", 5001), ("a", 5002)]
    registry.submit(take(2)).result(timeout=10.0)   # still cached: replayed
    registry.submit(take(0)).result(timeout=10.0)   # evicted: recomputed
    assert b.dedup_served == 1
    assert list(b._served_cache) == [("a", 5001), ("a", 5002)]


def test_node_is_registered_only_once_its_socket_is_bound(monkeypatch):
    """Visibility may be declared before a node exists; its peers must
    never be handed the unbound ``("", 0)`` placeholder address."""
    seen = []
    start = AioTiamatNode._a_start

    async def spying_start(self, port):
        seen.append(self.registry.visible_peers("a"))   # socket not bound yet
        await start(self, port)

    monkeypatch.setattr(AioTiamatNode, "_a_start", spying_start)
    with AioNodeRegistry() as registry:
        registry.set_visible("a", "b")
        AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        assert seen == [[], []]
        assert registry.visible_peers("a") == [("b", b.addr)]
        assert b.addr[1] != 0


def test_force_shed_and_backoff_recovery(cluster):
    _, a, b = cluster
    b.out(Tuple("gated", 3))
    b.force_shed = True
    assert a.rdp(Pattern("gated", int)) is None
    assert b.sheds >= 1
    assert a._peer_backoff.get("b", (0, 0))[0] >= 1  # backoff recorded
    b.force_shed = False
    # blocking take outlasts the (capped) backoff and succeeds
    assert a.in_(Pattern("gated", int), timeout=10.0) == Tuple("gated", 3)
    assert "b" not in a._peer_backoff  # streak cleared on admission


def test_seeded_loss_drives_retransmits():
    with AioNodeRegistry(loss_rate=0.3, loss_seed=7) as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        registry.set_visible("a", "b")
        payload = Tuple("lossy", 1)
        replies = [a.echo(b.addr, payload, budget=5.0) for _ in range(10)]
        assert any(r == payload for r in replies)
        assert registry.frames_dropped > 0
        assert a.retransmits > 0


def test_loss_rate_validation():
    with pytest.raises(ValueError, match="loss_rate"):
        AioNodeRegistry(loss_rate=1.0)


# ----------------------------------------------------------------------
# Send plane: batching + buffer pool
# ----------------------------------------------------------------------
def test_same_tick_frames_coalesce_into_batches(cluster):
    registry, a, b = cluster
    before = b.frames_received

    async def burst():
        for i in range(5):
            a._queue_frame(b.addr, {"k": "e", "id": 10_000 + i,
                                    "t": Tuple("burst", i)})
        # frames queued in one tick flush together on the next

    registry.submit(burst()).result(timeout=10.0)
    deadline = time.monotonic() + 5.0
    while b.frames_received < before + 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert b.frames_received >= before + 5
    assert a.batches_sent >= 1


def test_oversize_queue_flushes_eagerly(cluster):
    registry, a, b = cluster

    async def flood():
        for i in range(MAX_BATCH_FRAMES + 1):
            a._queue_frame(b.addr, {"k": "e", "id": 20_000 + i,
                                    "t": Tuple("flood", i)})

    registry.submit(flood()).result(timeout=10.0)
    deadline = time.monotonic() + 5.0
    want = MAX_BATCH_FRAMES + 1
    while b.frames_received < want and time.monotonic() < deadline:
        time.sleep(0.01)
    assert a.frames_sent >= want


def test_buffer_pool_recycles():
    pool = BufferPool(capacity=2)
    first = pool.acquire()
    first.extend(b"x" * 100)
    pool.release(first)
    second = pool.acquire()
    assert second is first          # recycled, not reallocated
    assert len(second) == 0         # and handed back empty
    stats = pool.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_buffer_pool_caps_free_list():
    pool = BufferPool(capacity=1)
    a, b = pool.acquire(), pool.acquire()
    pool.release(a)
    pool.release(b)                 # beyond capacity: dropped, not kept
    assert pool.stats()["free"] == 1


def test_pool_is_exercised_by_traffic(cluster):
    _, a, b = cluster
    for i in range(20):
        a.echo(b.addr, Tuple("pooled", i))
    stats = a.stats()["pool"]
    assert stats["hits"] > 0
    assert stats["misses"] <= 2     # steady state reuses one buffer


# ----------------------------------------------------------------------
# The frame codec: JSON, and outside input that does not decode
# ----------------------------------------------------------------------
def test_json_codec_cluster_interoperates():
    with AioNodeRegistry(config=TiamatConfig()) as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        registry.set_visible("a", "b")
        b.out(Tuple("json", 1, 2.5, True))
        assert a.inp(Pattern("json", int, float, bool)) == \
            Tuple("json", 1, 2.5, True)


@pytest.fixture()
def raw_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5.0)
    yield sock
    sock.close()


def _exchange_raw(sock, node, frame):
    """Send one raw datagram to ``node`` and read back its one answer."""
    sock.sendto(json.dumps(frame).encode("utf-8"), node.addr)
    data, _ = sock.recvfrom(65536)
    return json.loads(data)


ECHO = {"k": "e", "id": 41, "t": ["t", [["s", "ping"]]]}


def test_junk_datagram_is_a_transport_error(cluster, raw_socket):
    _, a, _ = cluster
    raw_socket.sendto(b"\xff not json", a.addr)
    assert _exchange_raw(raw_socket, a, ECHO)["id"] == 41
    assert a.transport_errors == 1


def test_batch_with_a_non_dict_member_keeps_the_rest(cluster, raw_socket):
    _, a, _ = cluster
    answer = _exchange_raw(raw_socket, a, {"k": "b", "f": [7, ECHO]})
    assert (answer["k"], answer["id"]) == ("er", 41)
    assert answer["t"] == ECHO["t"]
    assert a.transport_errors == 0


def test_query_with_a_malformed_pattern_is_a_miss(cluster, raw_socket):
    _, a, _ = cluster
    a.out(Tuple("job", 1))
    answer = _exchange_raw(raw_socket, a, {"k": "q", "id": 9, "op": "inp",
                                           "p": "junk", "o": "x"})
    assert answer == {"k": "r", "id": 9, "st": "miss"}
    assert a.space.count() == 1 and a.transport_errors == 0


# ----------------------------------------------------------------------
# Registry lifecycle + thread discipline
# ----------------------------------------------------------------------
def test_sync_facade_refuses_loop_thread(cluster):
    """Calling the blocking facade from loop code would deadlock the
    event loop waiting on itself; the registry refuses instead."""
    registry, a, _ = cluster

    async def misuse():
        return a.rdp(Pattern("x", int))

    with pytest.raises(RuntimeError, match="loop thread"):
        registry.submit(misuse()).result(timeout=10.0)


def test_submit_after_close_is_rejected():
    registry = AioNodeRegistry()
    AioTiamatNode(registry, "solo")
    registry.close()
    registry.close()                # idempotent

    async def nop():
        return 1

    with pytest.raises(RuntimeError, match="closed"):
        registry.submit(nop())


def test_registry_stats_roll_up_nodes(cluster):
    _, a, b = cluster
    a.echo(b.addr, Tuple("s", 1))
    stats = cluster[0].stats()
    assert set(stats["nodes"]) == {"a", "b"}
    assert stats["frames_dropped"] == 0
    assert stats["nodes"]["a"]["frames_sent"] >= 1
