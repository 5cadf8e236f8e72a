"""Measurements for the asyncio UDP runtime (part of ``BENCH_micro.json``).

Two planes, gated differently; :func:`repro.bench.perf.collect` runs both:

* **Frame codec** (gated, lower-is-better ns): the JSON frame encode
  into a pooled buffer and the decode of a received datagram, through
  the codec object the runtime itself calls (``registry.frames``).
* **Loopback throughput** (informational, *not* gated): sustained echo
  round-trips/s over real UDP sockets on 127.0.0.1.  Higher is better,
  and wildly runner-dependent — which is exactly why it lives in the
  document's ``info`` section where :func:`repro.bench.perf.compare`
  never sees it (the gate only eats lower-is-better medians).
"""

from __future__ import annotations

from repro.bench.perf import bench_ns


# ----------------------------------------------------------------------
# Gated: the frame codec
# ----------------------------------------------------------------------
def measure_aio_codec() -> dict:
    """ns to encode one query-response frame and to decode it back.

    Both go through the frame codec the runtime holds in
    ``registry.frames``, the calls ``_Endpoint.send`` (encode into a
    pooled buffer) and ``_Endpoint.receive`` (decode the datagram's
    bytes) make once per datagram.
    """
    from repro.runtime.aio import AioNodeRegistry
    from repro.tuples.model import Tuple

    with AioNodeRegistry() as registry:
        frames = registry.frames
    # A representative hit answer, as the wire carries it.
    response = {"k": "r", "id": 7, "st": "hit",
                "t": Tuple("result", 42, True, 3.14159, "body " * 8)}
    buf = bytearray()
    frames.encode_into(buf, response)
    # asyncio delivers each datagram as a fresh bytes object; decode that.
    frame_bytes = bytes(buf)

    def frame_encode():
        del buf[:]      # what BufferPool.release does between sends
        frames.encode_into(buf, response)

    def frame_decode():
        frames.decode(frame_bytes)

    return {
        "aio_frame_decode_ns": bench_ns(frame_decode),
        "aio_frame_encode_ns": bench_ns(frame_encode),
    }


# ----------------------------------------------------------------------
# Informational: real-socket loopback throughput
# ----------------------------------------------------------------------
def measure_loopback(count: int = 3000, concurrency: int = 32) -> dict:
    """Sustained echo round-trips/s over UDP loopback (info, not gated).

    ``concurrency`` echoes are kept in flight at once on the event loop
    (one ``asyncio.gather`` wave at a time), so the number reflects the
    runtime's pipelined throughput rather than a single request's RTT.
    A second figure measures the synchronous facade (one blocking echo
    at a time, sent and received on the calling thread), which is the
    floor an application using the sync API will see.
    """
    import asyncio
    import time

    from repro.runtime.aio import AioNodeRegistry, AioTiamatNode
    from repro.tuples.model import Tuple

    with AioNodeRegistry() as registry:
        a = AioTiamatNode(registry, "a")
        b = AioTiamatNode(registry, "b")
        registry.set_visible("a", "b")
        payload = Tuple("echo", 1, "payload")

        async def pipelined() -> float:
            start = time.perf_counter()
            done = 0
            while done < count:
                wave = min(concurrency, count - done)
                results = await asyncio.gather(
                    *(a.a_echo(b.addr, payload) for _ in range(wave)))
                done += wave
                if any(r is None for r in results):  # pragma: no cover
                    raise RuntimeError("echo lost on loopback")
            return count / (time.perf_counter() - start)

        pipelined_ops = registry.submit(pipelined()).result()

        sync_count = max(count // 10, 100)
        start = time.perf_counter()
        for _ in range(sync_count):
            a.echo(b.addr, payload)
        sync_ops = sync_count / (time.perf_counter() - start)

        stats = a.stats()
        return {
            "loopback_echo_ops_per_s": round(pipelined_ops, 1),
            "loopback_sync_echo_ops_per_s": round(sync_ops, 1),
            "echoes": count + sync_count,
            "concurrency": concurrency,
            "frames_sent": stats["frames_sent"],
            "batches_sent": stats["batches_sent"],
            "bytes_sent": stats["bytes_sent"],
            "retransmits": stats["retransmits"],
            "buffer_pool": stats["pool"],
        }
