"""Measurements for the asyncio UDP runtime (part of ``BENCH_micro.json``).

Two planes, gated differently; :func:`repro.bench.perf.collect` runs both:

* **Codec hot path** (gated, lower-is-better ns): the zero-copy frame
  path the aio runtime actually runs — pooled-buffer encode
  (:func:`repro.tuples.serialization.encode_tuple_into` /
  ``encode_payload_into``) and buffer-aware decode straight off the
  received datagram, no intermediate ``bytes`` copies.
* **Loopback throughput** (informational, *not* gated): sustained echo
  round-trips/s over real UDP sockets on 127.0.0.1.  Higher is better,
  and wildly runner-dependent — which is exactly why it lives in the
  document's ``info`` section where :func:`repro.bench.perf.compare`
  never sees it (the gate only eats lower-is-better medians).
"""

from __future__ import annotations

from repro.bench.perf import bench_ns, sample_tuples


# ----------------------------------------------------------------------
# Gated: the zero-copy codec hot path
# ----------------------------------------------------------------------
def measure_aio_codec() -> dict:
    """ns/op for the pooled encode, buffer decode, and full round-trip.

    The round-trip mirrors one datagram's life: append the tuple's wire
    form to a reused (pooled) buffer, then decode it back from a
    ``memoryview`` of that buffer — the exact code path
    ``AioTiamatNode._flush_to`` and ``_on_datagram`` execute, including
    the encode-once memoization that makes re-sending a tuple a memcpy.
    """
    from repro.tuples.model import Tuple
    from repro.tuples.serialization import (
        decode_payload_binary,
        decode_tuple_binary,
        encode_payload_into,
        encode_tuple_into,
    )

    tuples = sample_tuples()
    n = len(tuples)
    buf = bytearray()

    def roundtrip():
        # bytes(buf) is the arriving datagram: asyncio hands the receive
        # side a fresh bytes object, which is what the decoder walks.
        for tup in tuples:
            del buf[:]
            encode_tuple_into(buf, tup)
            decode_tuple_binary(bytes(buf))

    def encode_only():
        for tup in tuples:
            del buf[:]
            encode_tuple_into(buf, tup)

    # A representative query-response frame pair, as the wire carries it.
    response = {"k": "r", "id": 7, "st": "hit",
                "t": Tuple("result", 42, True, 3.14159, "body " * 8)}
    frame_buf = bytearray()
    encode_payload_into(frame_buf, response)
    # asyncio delivers each datagram as a fresh bytes object; decode that.
    frame_bytes = bytes(frame_buf)

    def frame_decode():
        decode_payload_binary(frame_bytes)

    def frame_encode():
        fresh = bytearray()
        encode_payload_into(fresh, response)

    return {
        "aio_codec_roundtrip_ns": bench_ns(roundtrip) / n,
        "aio_codec_encode_ns": bench_ns(encode_only) / n,
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
    at a time — every call crosses the thread boundary), which is the
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
