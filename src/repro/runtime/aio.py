"""Asyncio UDP runtime: Tiamat nodes over real sockets on an event loop.

The third execution substrate beside the deterministic simulation
(:mod:`repro.core` over :mod:`repro.sim`) and the threaded runtime
(:mod:`repro.runtime.node`): each :class:`AioTiamatNode` owns a real UDP
socket bound on the cluster host (loopback by default, ephemeral port so
tests never collide), and every inter-node operation travels as a
datagram — mirroring the paper's prototype, which ran the protocol over
IP on physical devices.  Semantics are the threaded runtime's, bit for
bit where the differential harness can see them: ``out`` deposits
locally, probes walk the currently visible peers in sorted order through
their serving planes, blocking operations poll the opportunistic
logical space until match or deadline, ``eval`` runs the active tuple on
a worker and deposits its result locally.

Threads of a sync call
----------------------
The synchronous facade runs :class:`~repro.runtime.base.RuntimeNode`'s
one operation loop on the *caller's* thread, as the threaded runtime
does, and so does its datagram exchange (:meth:`AioTiamatNode._exchange`)
on a UDP socket borrowed from the node's free list: no thread is crossed
on the caller's side, and concurrent sync callers run side by side.  A
sync ``out`` touches the loop only while a loop-side ``a_rd``/``a_in`` is
parked.

Transport shape
---------------
* **Frames are JSON payload dicts**, tuples and patterns in their
  tag-first forms — the one frame encoding the simulated network prices,
  so the wire format is shared across all three runtimes rather than
  reinvented here.  A field that does not decode is kept as received,
  and the dispatcher's type checks answer it (a bad pattern is a miss).
* **Per-peer send queues with same-tick coalescing**: frames queued for
  a peer within one event-loop tick are flushed together, as one
  datagram per peer per tick (a ``{"k": "b"}`` batch envelope when more
  than one frame rode the tick) — one wakeup, one syscall.
* **Pooled send buffers**: frames are encoded into pooled ``bytearray``
  buffers (:class:`BufferPool`) and handed to the kernel as a
  ``memoryview`` via the socket's own ``sendto`` — no intermediate
  ``bytes`` object per send.
* **Reliability**: every query carries a request id; the origin
  retransmits on a capped exponential schedule (the ``RETRY_*``
  constants of :mod:`repro.core.config`) until answered or out of
  budget, and the serving side keeps a bounded
  cache of completed answers so a retransmitted destructive ``inp`` is
  answered *idempotently* — exactly-once consumption over a lossy wire.

See ``docs/PROTOCOL.md`` §12 for the frame vocabulary and the buffer
pool lifecycle.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import random
import socket
import threading
import time
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple as PyTuple,
    Union,
)

from repro.core import config as core_config
from repro.errors import SerializationError
from repro.runtime.base import NodeRegistry, RuntimeNode
from repro.tuples.model import Pattern, Tuple
from repro.tuples.serialization import (
    _esc,
    _value_json,
    decode_pattern,
    decode_tuple,
)

Addr = PyTuple[str, int]

#: Frame kinds (the ``"k"`` payload key).
QUERY = "q"            #: probe a peer's space (rdp/inp)
RESPONSE = "r"         #: answer to a QUERY (hit/miss)
ECHO = "e"             #: echo request (CLI smoke + loopback bench)
ECHO_REPLY = "er"      #: echo answer
BATCH = "b"            #: same-tick coalescing envelope

#: Frames coalesced into one datagram before the batch is force-flushed
#: (keeps envelopes comfortably under the UDP payload ceiling).
MAX_BATCH_FRAMES = 32


def _expire(fut: "asyncio.Future") -> None:
    """A request's wait ran out: wake its awaiter with ``None``."""
    if not fut.done():
        fut.set_result(None)


def _answer_tuple(answer: Optional[dict]) -> Optional[Tuple]:
    """The tuple an answer frame carries, if any."""
    result = None if answer is None else answer.get("t")
    return result if isinstance(result, Tuple) else None


class BufferPool:
    """A bounded free-list of reusable ``bytearray`` frame buffers.

    ``acquire`` hands out an empty buffer (recycled when one is free,
    freshly allocated otherwise); ``release`` clears and returns it to
    the pool unless the pool is full.  Buffers the kernel has already
    copied out of (``sendto`` is synchronous) are safe to recycle
    immediately, which is what makes the encode path allocation-free in
    steady state.
    """

    __slots__ = ("capacity", "_free", "hits", "misses", "returned")

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._free: List[bytearray] = []
        self.hits = 0
        self.misses = 0
        self.returned = 0

    def acquire(self) -> bytearray:
        if self._free:
            self.hits += 1
            return self._free.pop()
        self.misses += 1
        return bytearray()

    def release(self, buf: bytearray) -> None:
        if len(self._free) < self.capacity:
            del buf[:]
            self._free.append(buf)
            self.returned += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "returned": self.returned, "free": len(self._free)}


# ---------------------------------------------------------------------------
# The frame codec: JSON datagrams
# ---------------------------------------------------------------------------
#: Frame keys whose values travel in a tag-first form, and their decoders.
_FIELD_DECODERS = (("t", decode_tuple), ("p", decode_pattern))


def _frame_json(frame: dict) -> str:
    """``json.dumps`` of a frame, its tuples and patterns in their tag-first
    forms, written key by key in one pass: the same ASCII text."""
    return "{" + ",".join([
        _esc(key) + ":" + ("[" + ",".join(map(_frame_json, value)) + "]"
                           if key == "f" else _value_json(value))
        for key, value in frame.items()]) + "}"


def _decode_frame(frame: Any) -> dict:
    """Decode a frame's fields in place.  A field that does not decode, and
    a batch member that is not a dict, is kept as received: the
    dispatcher's type checks skip or answer it, and the rest of the
    datagram stands."""
    if type(frame) is not dict:
        raise SerializationError(f"a frame is a JSON object, not {frame!r}")
    for key, decode in _FIELD_DECODERS:
        if key in frame:
            try:
                frame[key] = decode(frame[key])
            except SerializationError:
                pass
    if "f" in frame:
        frame["f"] = [_decode_frame(sub) if type(sub) is dict else sub
                      for sub in frame["f"]]
    return frame


class _JsonFrames:
    """The frame codec: tuples/patterns ride in their tag-first forms."""

    name = "json"

    @staticmethod
    def encode_into(buf: bytearray, frame: dict) -> None:
        buf += _frame_json(frame).encode("ascii")

    @staticmethod
    def decode(data: Union[bytes, memoryview]) -> dict:
        # UTF-8 as RFC 8259 has it for JSON on a network, read with no copy
        # and without json.loads' sniffing for the UTF-16/32 of files.
        return _decode_frame(json.loads(str(data, "utf-8")))


class _Endpoint(asyncio.DatagramProtocol):
    """A UDP socket with its own :class:`BufferPool` and wire counters.
    One user at a time — the loop for a node's own socket (whose protocol
    it is), one sync caller for a borrowed one — so each counter has one
    writer."""

    def __init__(self, node: "AioTiamatNode", port: int = 0) -> None:
        self.node = node
        self.registry = registry = node.registry
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        try:
            self.sock.bind((registry.host, port))
        except OSError:
            self.sock.close()
            raise
        self.addr: Addr = self.sock.getsockname()[:2]
        # asyncio's buffered send path: the loop's endpoint only
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.pool = BufferPool()
        self.frames_sent = self.frames_received = self.batches_sent = 0
        self.bytes_sent = self.retransmits = self.transport_errors = 0

    def send(self, addr: Addr, frames: List[dict]) -> None:
        """One datagram to ``addr``: ``frames``, in a batch envelope if
        more than one, encoded into a pooled buffer."""
        registry = self.registry
        if registry.lose_frame():
            return
        if len(frames) == 1:
            frame = frames[0]
        else:
            frame = {"k": BATCH, "f": frames}
            self.batches_sent += 1
        buf = self.pool.acquire()
        try:
            registry.frames.encode_into(buf, frame)
            size = len(buf)
            try:
                self.sock.sendto(memoryview(buf)[:size], addr)
            except (BlockingIOError, InterruptedError):
                # Kernel buffer full: fall back to asyncio's buffered path
                # (a bytes copy); a caller's drops it, like a loss.
                if self.transport is not None:
                    self.transport.sendto(bytes(buf), addr)
            except OSError:
                self.transport_errors += 1  # unroutable: drop, like a loss
            self.frames_sent += len(frames)
            self.bytes_sent += size
        finally:
            self.pool.release(buf)

    def receive(self, data: bytes) -> List[dict]:
        """The frames a datagram carries, counted: a batch's members, its
        non-dict ones skipped.  A datagram that does not decode, and a
        member whose ``id`` or ``o`` cannot key a table, is a transport
        error; the rest of the batch stands."""
        try:
            frame = self.registry.frames.decode(data)
        except Exception:
            self.transport_errors += 1
            return []
        out: List[dict] = []
        for sub in frame.get("f", ()) if frame.get("k") == BATCH else [frame]:
            if not isinstance(sub, dict):
                continue
            try:
                hash((sub.get("id"), sub.get("o")))
                out.append(sub)
            except TypeError:
                self.transport_errors += 1
        self.frames_received += len(out)
        return out

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        self.node._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.transport_errors += 1


def _summed(counter: str) -> Any:
    """A node's wire counter: the sum over its endpoints."""
    return property(lambda node: sum(getattr(end, counter)
                                     for end in node._endpoints))


class AioNodeRegistry(NodeRegistry["AioTiamatNode"]):
    """A cluster of aio nodes: the shared registry plus an event loop.

    The visibility relation hands out *addresses only*
    (:meth:`visible_peers`); every probe and answer
    travels through the nodes' UDP sockets.  One event loop on a
    daemon thread drives every member node's socket, so the synchronous
    facade (``node.rdp(...)`` on the calling thread) and the native
    ``async`` API (``await node.a_rdp(...)`` from loop code) coexist.

    ``loss_rate``/``loss_seed`` inject seeded, deterministic datagram
    loss at the send boundary — the chaos knob the retransmit tests and
    the T10-style smoke lean on.
    """

    def __init__(self, *, host: str = "127.0.0.1",
                 loss_rate: float = 0.0, loss_seed: int = 0) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        super().__init__()
        self.frames = _JsonFrames
        self.host = host
        self.loss_rate = loss_rate
        self._loss_rng = random.Random(loss_seed)
        self._loss_lock = threading.Lock()
        self.frames_dropped = 0
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="aio-registry", daemon=True)
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def _check_caller(self) -> None:
        """Refuse a synchronous wait on the loop that could never end:
        after :meth:`close`, or on the loop thread (waiting on itself)."""
        if self._closed:
            raise RuntimeError("registry is closed")
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                "the synchronous facade must not be called from the "
                "event-loop thread; use the async (a_*) API instead")

    def submit(self, coro) -> "concurrent.futures.Future":
        """Run a coroutine on the registry loop from any other thread."""
        try:
            self._check_caller()
        except RuntimeError:
            coro.close()
            raise
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def lose_frame(self) -> bool:
        """Seeded loss for every endpoint's send: True drops the datagram."""
        if self.loss_rate <= 0:
            return False
        with self._loss_lock:
            lost = self._loss_rng.random() < self.loss_rate
            self.frames_dropped += lost
        return lost

    def visible_peers(self, name: str) -> List[PyTuple[str, Addr]]:
        """(name, address) of nodes visible from ``name``, sorted by name."""
        return [(node.name, node.addr) for node in self.visible_nodes(name)]

    def stats(self) -> Dict[str, Any]:
        """Aggregated cluster wire counters (plus per-node breakdown);
        ``sheds`` reads 0 (no aio node sheds)."""
        nodes = {node.name: node.stats() for node in self.all_nodes()}
        total = {key: sum(n[key] for n in nodes.values())
                 for key in ("frames_sent", "frames_received", "batches_sent",
                             "bytes_sent", "retransmits", "dedup_served",
                             "sheds")}
        total["frames_dropped"] = self.frames_dropped
        total["nodes"] = nodes
        return total

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close every node's sockets and stop the event loop thread.  A
        sync caller parked in ``recv`` wakes on an empty datagram to its
        own socket and raises ``concurrent.futures.CancelledError``."""
        if self._closed:
            return
        self._closed = True
        ends = [end for node in self.all_nodes() for end in node._endpoints]
        for end in ends:
            if end.transport is None:   # a caller's, not a loop's
                end.sock.sendto(b"", end.addr)

        async def _shutdown() -> None:
            for node in self.all_nodes():
                node._close_transports()

        fut = asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        fut.result(timeout=5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()
        for end in ends:
            end.sock.close()

    def __enter__(self) -> "AioNodeRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AioTiamatNode(RuntimeNode):
    """One aio node: a local space plus opportunistic ops over UDP.

    The synchronous methods are :class:`~repro.runtime.base.RuntimeNode`'s
    loop on the caller's thread, with a datagram exchange as its transport
    (:meth:`_probe_peer`); one that needs the wire may be called from any
    thread except the event-loop thread.  Each has a native ``a_``-prefixed
    coroutine twin for asyncio applications.
    """

    registry: AioNodeRegistry
    #: Wall-clock budget for one peer probe (first send to giving up).
    PROBE_TIMEOUT = 1.0
    #: Completed query answers kept for idempotent retransmit replies.
    SERVED_CACHE = 512

    def __init__(self, registry: AioNodeRegistry, name: str, *,
                 port: int = 0) -> None:
        super().__init__(registry, name)
        self._req_ids = itertools.count(1)
        # request id -> the loop-side request's future
        self._pending: Dict[int, asyncio.Future] = {}
        # (origin, request id) -> committed destructive answer, oldest first
        self._served_cache: Dict[PyTuple[str, int], dict] = {}
        self._send_queues: Dict[Addr, List[dict]] = {}
        self._flush_scheduled = False
        # Loop-side ops inside _a_blocking (which a_rdp/a_inp run with a
        # zero lease), and the event the next local deposit sets (then
        # replaces).
        self._loop_waiters = 0
        self._local_event = asyncio.Event()
        # the loop's endpoint, then the sync callers' (idle ones: _idle)
        self._endpoints: List[_Endpoint] = []
        self._idle: List[_Endpoint] = []
        self.dedup_served = 0
        self.addr: Addr = ("", 0)
        fut = asyncio.run_coroutine_threadsafe(self._a_start(port),
                                               registry.loop)
        fut.result(timeout=10.0)
        # Only now: peers are handed ``self.addr``, so it must be bound.
        registry.register(self)

    # ------------------------------------------------------------------
    # Endpoint lifecycle (runs on the loop)
    # ------------------------------------------------------------------
    frames_sent = _summed("frames_sent")
    frames_received = _summed("frames_received")
    batches_sent = _summed("batches_sent")
    bytes_sent = _summed("bytes_sent")
    retransmits = _summed("retransmits")
    transport_errors = _summed("transport_errors")

    async def _a_start(self, port: int) -> None:
        # Bind the socket ourselves and hand it to asyncio: the transport's
        # get_extra_info("socket") is a TransportSocket proxy that forbids
        # sendto, and the zero-copy send path needs the real one.
        loop = asyncio.get_running_loop()
        end = self._loop_end = _Endpoint(self, port)
        end.transport, _ = await loop.create_datagram_endpoint(
            lambda: end, sock=end.sock)
        self._endpoints.append(end)
        self.addr = end.addr

    def _close_transports(self) -> None:
        self._loop_end.transport.close()  # type: ignore[union-attr]
        for fut in self._pending.values():
            fut.cancel()                # a no-op on a done one
        self._pending.clear()

    # ------------------------------------------------------------------
    # Send plane: per-peer queues, same-tick coalescing, pooled buffers
    # ------------------------------------------------------------------
    def _queue_frame(self, addr: Addr, frame: dict) -> None:
        queue = self._send_queues.setdefault(addr, [])
        queue.append(frame)
        if len(queue) >= MAX_BATCH_FRAMES:
            self._loop_end.send(addr, self._send_queues.pop(addr))
            return
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.registry.loop.call_soon(self._flush_all)

    def _resend(self, addr: Addr, frame: dict) -> None:
        """Queue a retransmission, counted here on the loop thread."""
        self._loop_end.retransmits += 1
        self._queue_frame(addr, frame)

    def _flush_all(self) -> None:
        self._flush_scheduled = False
        queues, self._send_queues = self._send_queues, {}
        for addr, frames in queues.items():
            self._loop_end.send(addr, frames)

    # ------------------------------------------------------------------
    # Receive plane
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, addr: Addr) -> None:
        for frame in self._loop_end.receive(data):
            self._dispatch(frame, addr)

    def _dispatch(self, frame: dict, addr: Addr) -> None:
        kind = frame.get("k")
        if kind == QUERY:
            self._serve_query(frame, addr)
        elif kind in (RESPONSE, ECHO_REPLY):
            fut = self._pending.pop(frame.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result(frame)
        elif kind == ECHO:
            self._queue_frame(addr, {"k": ECHO_REPLY, "id": frame.get("id"),
                                     "t": frame.get("t")})
        # unknown kinds are ignored (forward compatibility)

    # ------------------------------------------------------------------
    # Serving plane: how peers enter this node (idempotent takes)
    # ------------------------------------------------------------------
    def _serve_query(self, frame: dict, addr: Addr) -> None:
        origin = frame.get("o", "?")
        req_id = frame.get("id")
        key = (origin, req_id)
        cached = self._served_cache.get(key)
        if cached is not None:
            # Retransmitted destructive query whose hit we already
            # committed: replay the recorded answer so the take is
            # consumed exactly once even if every earlier copy of the
            # response was lost.
            self.dedup_served += 1
            self._queue_frame(addr, cached)
            return
        pattern = frame.get("p")
        remove = frame.get("op") == "inp"
        # A malformed pattern is a miss.
        found = (self._serve(pattern, remove)
                 if isinstance(pattern, Pattern) else None)
        response: dict = {"k": RESPONSE, "id": req_id, "st": "miss"}
        if found is not None:
            response["st"] = "hit"
            response["t"] = found
            # Only destructive hits are cached: the one irreversible
            # verdict.  Misses and reads are recomputed on retransmit, so a
            # blocking origin that reuses its request id across poll rounds
            # still sees tuples that arrive *after* an early miss.
            if remove and req_id is not None:
                self._served_cache[key] = response
                if len(self._served_cache) > self.SERVED_CACHE:
                    del self._served_cache[next(iter(self._served_cache))]
        self._queue_frame(addr, response)

    # ------------------------------------------------------------------
    # Request plane: retransmit until answered or out of budget
    # ------------------------------------------------------------------
    def _waits(self, budget: float) -> Iterator[float]:
        """How long to wait after each send of one request: the capped
        exponential ``RETRY_*`` schedule of :mod:`repro.core.config`,
        clipped to ``budget``."""
        deadline = time.monotonic() + budget
        interval = core_config.RETRY_INITIAL
        remaining = budget
        while remaining > 0:
            yield min(interval, remaining)
            interval = min(interval * core_config.RETRY_BACKOFF,
                           core_config.RETRY_MAX_INTERVAL)
            remaining = deadline - time.monotonic()

    async def _request(self, addr: Addr, frame: dict,
                       budget: float) -> Optional[dict]:
        """Send ``frame`` and await its answer, retransmitting on the
        :meth:`_waits` schedule.  Returns the answer frame or ``None`` if
        the peer never answered within ``budget`` seconds."""
        loop = asyncio.get_running_loop()
        req_id = frame["id"]
        for sends, wait in enumerate(self._waits(budget)):
            fut = loop.create_future()
            self._pending[req_id] = fut
            (self._resend if sends else self._queue_frame)(addr, frame)
            # One timer that resolves the future itself: no wait_for task.
            timer = loop.call_later(wait, _expire, fut)
            answer = await fut
            timer.cancel()
            if answer is not None:
                return answer
            self._pending.pop(req_id, None)
        return None

    def _exchange(self, addr: Addr, frame: dict,
                  budget: float) -> Optional[dict]:
        """:meth:`_request` on the caller's thread alone: it borrows an
        endpoint from the free list (binding one if it is empty), drains it,
        sends from it and blocks in its ``recv`` for each :meth:`_waits`
        slice, retransmitting under the same request id."""
        registry = self.registry
        registry._check_caller()
        try:
            end = self._idle.pop()
        except IndexError:
            end = _Endpoint(self)
            self._endpoints.append(end)
        try:
            # Drain first: a blocking op sends one request id every round,
            # so only answers to this exchange's own sends may match.
            try:
                end.sock.settimeout(0.0)
                while True:
                    end.receive(end.sock.recv(65536))
            except OSError:     # drained, or shut by close()
                pass
            for sends, wait in enumerate(self._waits(budget)):
                # After the drain: a close() from here on wakes the socket.
                registry._check_caller()
                end.retransmits += sends > 0
                end.send(addr, [frame])
                deadline = time.monotonic() + wait
                while (left := deadline - time.monotonic()) > 0:
                    try:
                        end.sock.settimeout(left)
                        data = end.sock.recv(65536)
                    except socket.timeout:
                        break
                    except OSError:     # close() shut the socket
                        if not registry._closed:
                            raise
                    if registry._closed:    # ... or woke it
                        raise concurrent.futures.CancelledError()
                    for answer in end.receive(data):
                        if (answer.get("id") == frame["id"]
                                and answer.get("k") in (RESPONSE, ECHO_REPLY)):
                            return answer
            return None
        finally:
            self._idle.append(end)
            if registry._closed:    # one bound after close() closed them
                end.sock.close()

    def _query(self, peer: str, pattern: Pattern, remove: bool,
               req_ids: Dict[str, int]) -> dict:
        """The QUERY frame for one probe of ``peer``.  One request id per
        peer per operation: with the server's destructive-hit cache, a take
        whose answer was lost is recovered on the next round instead of
        consumed into the void."""
        req_id = req_ids.get(peer)
        if req_id is None:
            req_id = req_ids[peer] = next(self._req_ids)
        return {"k": QUERY, "id": req_id, "op": "inp" if remove else "rdp",
                "p": pattern, "o": self.name}

    @staticmethod
    def _verdict(answer: Optional[dict]) -> Optional[Tuple]:
        """What a probe's answer means: a tuple for a hit, else ``None``
        (a miss, or no answer in budget)."""
        if answer is None or answer.get("st") != "hit":
            return None
        return _answer_tuple(answer)

    async def _probe(self, peer: str, addr: Addr, pattern: Pattern,
                     remove: bool, req_ids: Dict[str, int]) -> Optional[Tuple]:
        """Probe one peer from the loop (see :meth:`_query`)."""
        return self._verdict(await self._request(
            addr, self._query(peer, pattern, remove, req_ids),
            budget=self.PROBE_TIMEOUT))

    def _probe_peer(self, peer: "AioTiamatNode", pattern: Pattern,
                    remove: bool, req_ids: Dict[str, int]) -> Optional[Tuple]:
        """The sync loop's transport: an exchange with ``peer.addr``."""
        return self._verdict(self._exchange(
            peer.addr, self._query(peer.name, pattern, remove, req_ids),
            budget=self.PROBE_TIMEOUT))

    # ------------------------------------------------------------------
    # The six operations: async core
    # ------------------------------------------------------------------
    def _notify_local(self) -> None:
        """Wake every loop-side parker (on the loop only).  The event is
        set and replaced, never cleared, so one op's next round cannot
        swallow a wake-up another op has yet to see."""
        event, self._local_event = self._local_event, asyncio.Event()
        event.set()

    async def a_out(self, tup: Tuple,
                    lease_duration: Optional[float] = None) -> None:
        """Deposit into the local space (default scope, section 2.2)."""
        self.ops_started += 1
        self.space.out(tup, lease_duration)
        self._count("out", "ok")
        if self._loop_waiters:
            self._notify_local()

    async def a_rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking read: a zero lease, so one local check, one round."""
        return await self._a_blocking("rdp", pattern, remove=False,
                                      timeout=0.0)

    async def a_inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking take: a zero lease, so one local check, one round."""
        return await self._a_blocking("inp", pattern, remove=True,
                                      timeout=0.0)

    async def _a_blocking(self, op: str, pattern: Pattern, remove: bool,
                          timeout: float) -> Optional[Tuple]:
        """The async twin of :class:`RuntimeNode`'s blocking loop."""
        self.ops_started += 1
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        req_ids: Dict[str, int] = {}
        # Counted before the first local check: a sync ``out`` that reads
        # zero landed before it, and needs to wake nobody on the loop.
        self._loop_waiters += 1
        try:
            while True:
                # Captured before the local check: an ``out`` that lands
                # while a probe is awaited sets it, and the park returns.
                event = self._local_event
                local = (self.space.inp(pattern) if remove
                         else self.space.rdp(pattern))
                if local is not None:
                    self._count(op, "hit")
                    return local
                for peer, addr in self.registry.visible_peers(self.name):
                    found = await self._probe(peer, addr, pattern, remove,
                                              req_ids)
                    if found is not None:
                        self._count(op, "hit")
                        return found
                remaining = deadline - loop.time()
                if remaining <= 0:
                    self._count(op, "miss")
                    self.ops_unsatisfied += 1
                    return None
                try:
                    await asyncio.wait_for(
                        event.wait(),
                        timeout=min(self.POLL_INTERVAL, remaining))
                except asyncio.TimeoutError:
                    pass
        finally:
            self._loop_waiters -= 1

    async def a_rd(self, pattern: Pattern,
                   timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking read: polls the logical space until match or timeout."""
        return await self._a_blocking("rd", pattern, remove=False,
                                      timeout=timeout)

    async def a_in(self, pattern: Pattern,
                   timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking take: polls the logical space until match or timeout."""
        return await self._a_blocking("in", pattern, remove=True,
                                      timeout=timeout)

    async def a_eval(self, fn, *args,
                     lease_duration: Optional[float] = None) -> Tuple:
        """Active tuple: run ``fn(*args)`` on a worker, deposit the result."""
        self.ops_started += 1
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, lambda: fn(*args))
        if not isinstance(result, Tuple):
            raise TypeError(f"eval returned {result!r}, not a Tuple")
        self.space.out(result, lease_duration)
        self._count("eval", "ok")
        if self._loop_waiters:
            self._notify_local()
        return result

    def _echo_frame(self, tup: Tuple) -> dict:
        return {"k": ECHO, "id": next(self._req_ids), "t": tup}

    async def a_echo(self, addr: Addr, tup: Tuple,
                     budget: float = 1.0) -> Optional[Tuple]:
        """Round-trip ``tup`` off a peer; the CLI smoke and bench core."""
        return _answer_tuple(await self._request(
            addr, self._echo_frame(tup), budget=budget))

    # ------------------------------------------------------------------
    # Synchronous facade: RuntimeNode's loop on the caller's thread
    # ------------------------------------------------------------------
    def out(self, tup: Tuple, lease_duration: Optional[float] = None) -> None:
        """Deposit into the local space (thread-safe).  Sync parkers wake
        on the space's condition variable; the loop is touched only while
        a loop-side ``a_rd``/``a_in`` is parked."""
        super().out(tup, lease_duration)
        if self._loop_waiters:
            try:
                self.registry.loop.call_soon_threadsafe(self._notify_local)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    def eval(self, fn, *args, lease_duration: Optional[float] = None):
        """Run ``fn(*args)`` as an active tuple; returns a waitable future."""
        return self.registry.submit(
            self.a_eval(fn, *args, lease_duration=lease_duration))

    def echo(self, addr: Addr, tup: Tuple,
             budget: float = 1.0) -> Optional[Tuple]:
        """Synchronous :meth:`a_echo`, exchanged from the caller's thread."""
        return _answer_tuple(self._exchange(addr, self._echo_frame(tup),
                                            budget=budget))

    def stats(self) -> Dict[str, int]:
        """Wire and op counters for this node (``pool`` over its endpoints;
        ``sheds`` reads 0: an aio node answers every probe)."""
        pool = {key: sum(end.pool.stats()[key] for end in self._endpoints)
                for key in ("hits", "misses", "returned", "free")}
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "batches_sent": self.batches_sent,
            "bytes_sent": self.bytes_sent,
            "retransmits": self.retransmits,
            "dedup_served": self.dedup_served,
            "sheds": 0,
            "transport_errors": self.transport_errors,
            "ops_started": self.ops_started,
            "ops_unsatisfied": self.ops_unsatisfied,
            "pool": pool,  # type: ignore[dict-item]
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AioTiamatNode {self.name} @{self.addr[0]}:{self.addr[1]}>"
