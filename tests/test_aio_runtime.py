"""The asyncio UDP runtime: real datagrams on loopback, ephemeral ports.

Everything here binds ``port=0`` sockets on 127.0.0.1, so the suite is
CI-safe: no fixed ports, no external network.
"""

import asyncio
import concurrent.futures
import itertools
import json
import select
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import config as core_config
from repro.runtime.aio import (
    AioNodeRegistry,
    AioTiamatNode,
    BufferPool,
    MAX_BATCH_FRAMES,
)
from repro.tuples.model import Pattern, Tuple
from repro.tuples.serialization import encode_pattern, encode_tuple

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


def test_sync_remote_ops_hand_nothing_to_the_loop(cluster, monkeypatch):
    """A sync exchange sends and receives on the caller's thread."""
    registry, a, b = cluster
    loop = registry.loop
    scheduled = []
    real = loop.call_soon_threadsafe

    def spy(callback, *args, **kwargs):
        scheduled.append(callback)
        return real(callback, *args, **kwargs)

    b.out(Tuple("far", 1))
    monkeypatch.setattr(loop, "call_soon_threadsafe", spy)
    assert a.rd(Pattern("far", int), timeout=1.0) == Tuple("far", 1)
    assert a.in_(Pattern("far", int), timeout=1.0) == Tuple("far", 1)
    assert a.echo(b.addr, Tuple("ping", 1)) == Tuple("ping", 1)
    assert scheduled == []


def test_a_remote_sync_rd_costs_the_loop_two_callbacks(cluster, monkeypatch):
    """The peer's read and its flush; nothing runs on the origin's side."""
    _, a, b = cluster
    b.out(Tuple("far", 1))
    for _ in range(50):
        a.rd(Pattern("far", int), timeout=1.0)
    runs = []
    real = asyncio.events.Handle._run

    def counting(handle):
        runs.append(1)
        return real(handle)

    monkeypatch.setattr(asyncio.events.Handle, "_run", counting)
    for _ in range(200):
        assert a.rd(Pattern("far", int), timeout=1.0) == Tuple("far", 1)
    monkeypatch.undo()
    assert len(runs) <= 2 * 200


def test_caller_endpoints_are_reused_and_closed(cluster):
    """Sixteen short-lived callers, four at a time, share four endpoints;
    closing the registry shuts every socket it bound."""
    registry, a, b = cluster
    b.out(Tuple("far", 1))
    got = []

    def caller():
        got.append(a.rd(Pattern("far", int), timeout=1.0))

    for _ in range(4):
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    assert got == [Tuple("far", 1)] * 16
    assert len(a._endpoints) - 1 <= 4       # the loop's own, plus callers'
    registry.close()
    assert all(end.sock.fileno() == -1
               for node in (a, b) for end in node._endpoints)


def test_sync_echo_counters_are_exact(cluster):
    _, a, b = cluster
    for i in range(20):
        assert a.echo(b.addr, Tuple("n", i)) == Tuple("n", i)
    assert a.frames_sent == 20
    assert b.frames_received == 20
    assert a.frames_received == 20


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
        # Every query a's callers sent reached b: no counter update lost.
        deadline = time.monotonic() + 5.0
        while (b.frames_received < a.frames_sent
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert b.frames_received == a.frames_sent


def test_tracer_and_wait_histogram_see_sync_calls(cluster):
    registry, a, b = cluster
    tracer = registry.obs.start_trace()
    b.out(Tuple("seen", 1))
    assert a.rd(Pattern("seen", int), timeout=1.0) == Tuple("seen", 1)
    (op_id,) = [op for op in tracer.op_ids() if op.startswith("a@")]
    events = tracer.events_for(op_id)
    assert [e.event for e in events] == ["op_start", "serve_started", "op_end"]
    assert (events[-1].detail, events[-1].peer) == ("ok", "b")
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
    while not b.frames_received and time.monotonic() < deadline:
        time.sleep(0.001)
    registry.close()
    caller.join(timeout=1.0)
    assert not caller.is_alive()
    assert len(outcome) == 1
    assert isinstance(outcome[0], concurrent.futures.CancelledError)


def test_close_between_send_and_receive_cancels_the_caller(cluster):
    """close() that shuts a caller's socket after its send, before its
    next recv, cancels the caller: no bare OSError from the dead socket."""
    registry, a, b = cluster
    assert a.echo(b.addr, Tuple("warm", 1)) == Tuple("warm", 1)
    (end,) = a._idle
    send = end.send

    def send_then_close(addr, frames):
        send(addr, frames)
        registry.close()

    end.send = send_then_close
    with pytest.raises(concurrent.futures.CancelledError):
        a.echo(b.addr, Tuple("ping", 1))
    assert end.sock.fileno() == -1


def test_close_after_an_endpoint_fails_to_bind(cluster, monkeypatch):
    """A caller endpoint whose bind fails closes its socket and is never
    tracked, so close() still stops the loop and shuts every socket."""
    registry, a, b = cluster
    made = []

    class Unbindable(socket.socket):
        def bind(self, addr):
            made.append(self)
            raise OSError(98, "Address already in use")

    b.out(Tuple("far", 1))
    monkeypatch.setattr(socket, "socket", Unbindable)
    with pytest.raises(OSError):
        a.rd(Pattern("far", int), timeout=1.0)
    monkeypatch.undo()
    assert [sock.fileno() for sock in made] == [-1]
    assert len(a._endpoints) == 1           # the loop's own
    registry.close()
    assert not registry._thread.is_alive()
    assert all(end.sock.fileno() == -1
               for node in (a, b) for end in node._endpoints)


def test_a_stale_answer_on_a_reused_endpoint_is_drained(cluster, raw_socket,
                                                        monkeypatch):
    """A blocking op sends one request id every round, so an answer left on
    an idle endpoint (a retransmit's late twin) can carry the id the next
    exchange sends.  It is read out first: a one-round take gets the tuple
    instead of the stale miss, and nothing is consumed into the void.

    The first retransmit is pushed past the 1 s budgets of the echo and
    the probe, so a slow answer under CPU load cannot leave a real twin
    on the endpoint beside the planted one and break the exact count."""
    monkeypatch.setattr(core_config, "RETRY_INITIAL", 5.0)
    _, a, b = cluster
    assert a.echo(b.addr, Tuple("warm", 1)) == Tuple("warm", 1)
    (end,) = a._idle
    a._req_ids = itertools.count(1000)
    raw_socket.sendto(json.dumps({"k": "r", "id": 1000, "st": "miss"})
                      .encode("utf-8"), end.addr)
    assert select.select([end.sock], [], [], 5.0)[0]   # queued there
    b.out(Tuple("far", 1))
    assert a.in_(Pattern("far", int), timeout=0.0) == Tuple("far", 1)
    assert b.space.count() == 0
    assert a.frames_received == 3           # the drained one is counted
    assert a.retransmits == 0


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
# Reliability plane: dedup cache, loss counters
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
    with AioNodeRegistry() as registry:
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


def test_unkeyable_id_or_origin_is_a_transport_error(cluster, raw_socket):
    """An ``id`` or ``o`` that cannot key the replay cache or the pending
    table costs its own frame, one transport error; the batch stands."""
    _, a, _ = cluster
    query = {"k": "q", "op": "rdp", "p": encode_pattern(Pattern("job", int))}
    bad = [dict(query, id=[1], o="x"), dict(query, id=2, o={"x": 1}),
           {"k": "r", "id": {"x": 1}, "st": "miss"}]
    answer = _exchange_raw(raw_socket, a, {"k": "b", "f": bad + [ECHO]})
    assert (answer["k"], answer["id"]) == ("er", 41)
    assert a.transport_errors == 3


# Arbitrary JSON, the shape of anything a datagram could carry.
_json = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2**40), max_value=2**40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8)
_field = st.one_of(_json, st.sampled_from(
    ["rdp", "inp", "hit", encode_pattern(Pattern("job", int)),
     encode_tuple(Tuple("job", 1))]))
_frame = st.fixed_dictionaries(
    {"k": st.sampled_from(["q", "r", "e", "er", "zz", 7, None])},
    optional=dict({key: _json for key in ("id", "o")},
                  **{key: _field for key in ("op", "p", "t", "st")}))
_datagram = st.one_of(
    _json, _frame,
    st.fixed_dictionaries({"k": st.just("b"), "f": st.one_of(
        st.lists(st.one_of(_frame, _json), max_size=4), _json)}))


def test_loop_receive_survives_arbitrary_json(cluster, raw_socket):
    registry, a, b = cluster
    a.out(Tuple("job", 1))

    async def deliver(data):
        a._on_datagram(data, raw_socket.getsockname())

    @settings(max_examples=200, deadline=None)
    @given(_datagram)
    def check(doc):
        data = json.dumps(doc).encode("utf-8")
        registry.submit(deliver(data)).result(timeout=5.0)
        assert b.echo(a.addr, Tuple("still", 1)) == Tuple("still", 1)

    check()


def test_caller_receive_survives_arbitrary_json(cluster, raw_socket):
    """Junk and stale answers queued on a caller's endpoint are read and
    skipped before the answer the caller waits for."""
    _, a, b = cluster
    # Request ids no generated value equals: longer than any drawn string.
    a._req_ids = (f"request-{i}" for i in itertools.count())
    assert a.echo(b.addr, Tuple("warm", 1)) == Tuple("warm", 1)
    (end,) = a._idle

    @settings(max_examples=200, deadline=None)
    @given(_datagram)
    def check(doc):
        raw_socket.sendto(json.dumps(doc).encode("utf-8"), end.addr)
        assert a.echo(b.addr, Tuple("still", 1)) == Tuple("still", 1)

    check()


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
