"""Write-ahead log backend: CRC-framed records, atomic snapshot compaction.

Two files per space, ``<base>.wal`` and ``<base>.snap``:

* the **WAL** is a sequence of framed records, appended write-through —
  a record is durable once the append returns;
* the **snapshot** is a single framed record holding the full surviving
  entry set, written atomically (temp file + ``os.replace``) by
  :meth:`WALBackend.compact`; after the snapshot lands the WAL is reset.

Record framing (see ``docs/PROTOCOL.md`` section 10)::

    u32 length (LE) | u32 crc32(payload) (LE) | payload bytes

The payload is a codec-encoded dict — JSON (``codec="json"``) or the
binary LEB128 storage codec (``codec="binary"``, section 10.1)::

    {"op": "out",  "id": N, "tup": <tuple>, "exp": T|null, "at": T}
    {"op": "rm",   "id": N, "why": "consumed|expired|reconciled", "at": T}
    {"op": "snap", "at": T, "next": high_water, "entries": [
        {"id": N, "tup": <tuple>, "exp": T|null}, ...]}

Torn-write model and tolerance
------------------------------
Appends model write-through storage: a power cut can only damage the
record that was *in flight* — the final one.  Replay walks frames until
the first short, oversized, or CRC-failing frame, truncates the file at
the last good boundary (counting ``torn_truncations``/``torn_bytes``),
and keeps everything before it.  :meth:`WALBackend.tear_tail` injects
exactly that damage for chaos tests, clamped to the final record.

Replay is **idempotent by durable id**: the snapshot is authoritative for
every id at or below its high-water mark (``next``), so stale pre-snapshot
``out`` records are never re-applied; ``rm`` records always apply (an
absent id is a no-op).  That makes a kill *between* the snapshot replace
and the WAL reset harmless — the stale WAL re-applies over the snapshot
and lands in the same state (exercised via
``compact(_crash_after_snapshot=True)``) — even when the crash also tears
a record off the stale tail.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Optional

from repro.errors import StorageError
from repro.tuples.model import Tuple
from repro.tuples.serialization import (
    decode_payload_binary,
    decode_tuple,
    decode_tuple_binary,
    encode_payload_binary,
    encode_tuple,
    encode_tuple_binary,
)
from repro.tuples.storage.base import RecoveredState, StorageBackend
from repro.tuples.storage.fs import OsFS

#: ``u32 length | u32 crc32`` little-endian frame header.
_HEADER = struct.Struct("<II")

#: Sanity cap on one record; anything larger is treated as tail damage.
MAX_RECORD_BYTES = 1 << 26


class WALBackend(StorageBackend):
    """Append-only write-ahead log with periodic atomic compaction."""

    def __init__(self, base_path: str, fs: Optional[object] = None,
                 codec: str = "json", compact_every: int = 256) -> None:
        super().__init__()
        if codec not in ("json", "binary"):
            raise StorageError(f"unknown WAL codec {codec!r}")
        if compact_every < 0:
            raise StorageError("compact_every must be >= 0")
        self.fs = fs if fs is not None else OsFS()
        self.wal_path = f"{base_path}.wal"
        self.snap_path = f"{base_path}.snap"
        self.codec = codec
        #: Records between automatic compactions (0 disables auto-compact).
        self.compact_every = compact_every
        self._mirror: dict[int, tuple] = {}
        self._high_water = 0
        self._last_time: Optional[float] = None
        self._since_compact = 0
        self.snapshot_corrupt = 0

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _enc_tuple(self, tup: Tuple) -> Any:
        if self.codec == "binary":
            return encode_tuple_binary(tup)
        return encode_tuple(tup)

    def _dec_tuple(self, data: Any) -> Tuple:
        if self.codec == "binary":
            return decode_tuple_binary(data)
        return decode_tuple(data)

    def _encode(self, record: dict) -> bytes:
        if self.codec == "binary":
            return encode_payload_binary(record)
        return json.dumps(record, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")

    def _decode(self, payload: bytes) -> dict:
        if self.codec == "binary":
            return decode_payload_binary(payload)
        return json.loads(payload.decode("utf-8"))

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    # ------------------------------------------------------------------
    # The durable contract
    # ------------------------------------------------------------------
    def record_out(self, entry_id: int, tup: Tuple,
                   expires_at: Optional[float], at: float) -> None:
        record = {"op": "out", "id": entry_id, "tup": self._enc_tuple(tup),
                  "exp": expires_at, "at": at}
        self._append(record)
        self._mirror[entry_id] = (tup, expires_at)
        self._high_water = max(self._high_water, entry_id)
        self.records_out += 1
        self._maybe_compact(at)

    def record_remove(self, entry_id: int, reason: str, at: float) -> None:
        record = {"op": "rm", "id": entry_id, "why": reason, "at": at}
        self._append(record)
        self._mirror.pop(entry_id, None)
        self._high_water = max(self._high_water, entry_id)
        self.records_remove += 1
        self._maybe_compact(at)

    def _append(self, record: dict) -> None:
        frame = self._frame(self._encode(record))
        self.fs.append(self.wal_path, frame)
        self.bytes_appended += len(frame)
        self._last_time = record.get("at")
        self._since_compact += 1

    def _maybe_compact(self, at: float) -> None:
        if self.compact_every and self._since_compact >= self.compact_every:
            self.compact(at)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, at: float, _crash_after_snapshot: bool = False) -> None:
        """Fold the WAL into one atomic snapshot, then reset the log.

        ``_crash_after_snapshot`` (tests only) returns between the two
        steps, simulating a kill after the snapshot landed but before the
        WAL was reset — the window idempotent replay exists for.
        """
        entries = [{"id": entry_id, "tup": self._enc_tuple(tup), "exp": exp}
                   for entry_id, (tup, exp) in sorted(self._mirror.items())]
        snapshot = {"op": "snap", "at": at, "next": self._high_water,
                    "entries": entries}
        self.fs.replace(self.snap_path, self._frame(self._encode(snapshot)))
        self.compactions += 1
        if _crash_after_snapshot:
            return
        self.fs.replace(self.wal_path, b"")
        self._since_compact = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Snapshot + WAL replay with torn-tail detection and truncation."""
        mirror: dict[int, tuple] = {}
        high = 0
        last_time: Optional[float] = None
        snapshot = self._read_snapshot()
        snap_next = 0
        if snapshot is not None:
            for item in snapshot["entries"]:
                mirror[item["id"]] = (self._dec_tuple(item["tup"]),
                                      item.get("exp"))
                high = max(high, item["id"])
            snap_next = max(high, snapshot.get("next", 0))
            high = snap_next
            last_time = snapshot.get("at")
        data = self.fs.read(self.wal_path) or b""
        records, good_offset = self._scan(data)
        if good_offset < len(data):
            self.torn_truncations += 1
            self.torn_bytes += len(data) - good_offset
            self.fs.truncate(self.wal_path, good_offset)
        for record in records:
            op = record.get("op")
            entry_id = record.get("id", 0)
            if op == "out":
                # Idempotent over a stale post-compaction WAL: the snapshot
                # is authoritative for every id at or below its high-water
                # mark, so a pre-snapshot `out` is never re-applied — the
                # entry either sits in the snapshot already or was removed
                # before the snapshot was cut (and must stay removed, even
                # if its own `rm` record was later torn off the tail).
                if entry_id > snap_next and entry_id not in mirror:
                    mirror[entry_id] = (self._dec_tuple(record["tup"]),
                                        record.get("exp"))
            elif op == "rm":
                # Removals are always applied: a post-snapshot `rm` may
                # target an entry the snapshot holds, and a pre-snapshot
                # one pops an id the snapshot already excludes (no-op).
                mirror.pop(entry_id, None)
            high = max(high, entry_id)
            at = record.get("at")
            if at is not None:
                last_time = at if last_time is None else max(last_time, at)
        self._mirror = mirror
        self._high_water = max(self._high_water, high)
        self._last_time = last_time
        self._since_compact = 0
        self.recoveries += 1
        self.records_replayed += len(records)
        entries = [(entry_id, tup, exp)
                   for entry_id, (tup, exp) in sorted(mirror.items())]
        return RecoveredState(entries, self._high_water, last_time)

    def _read_snapshot(self) -> Optional[dict]:
        data = self.fs.read(self.snap_path)
        if not data:
            return None
        records, good_offset = self._scan(data)
        # The snapshot is written atomically, so damage here means
        # external corruption, not a torn write; salvage what the WAL
        # holds rather than refusing to boot.
        if not records or records[0].get("op") != "snap":
            self.snapshot_corrupt += 1
            return None
        return records[0]

    def _scan(self, data: bytes) -> "tuple[list[dict], int]":
        """Decode frames until the first damaged one; returns (records, offset)."""
        records: list[dict] = []
        offset = 0
        size = len(data)
        while offset + _HEADER.size <= size:
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            if length > MAX_RECORD_BYTES or start + length > size:
                break  # short or oversized frame: torn tail
            payload = data[start:start + length]
            if zlib.crc32(payload) != crc:
                break  # damaged in flight
            try:
                record = self._decode(payload)
            except Exception:
                break  # CRC-passing garbage (wrong codec / deep rot)
            if not isinstance(record, dict):
                break
            records.append(record)
            offset = start + length
        return records, offset

    def _rewrite(self, mirror: dict, at: float) -> None:
        self._mirror = dict(mirror)
        if mirror:
            self._high_water = max(self._high_water, max(mirror))
        self.compact(at)

    # ------------------------------------------------------------------
    # Fault injection (chaos tests)
    # ------------------------------------------------------------------
    def tear_tail(self, nbytes: int) -> Optional[dict]:
        """Simulate a power cut mid-append of the final record.

        Chops up to ``nbytes`` bytes off the WAL, clamped so only the
        final record is damaged (appends are write-through, so earlier
        records were already durable when the power died).  Returns the
        decoded record that was torn (its operation must be considered
        *unacknowledged* by the layer above), or None if the WAL holds no
        complete record to tear.
        """
        if nbytes <= 0:
            return None
        data = self.fs.read(self.wal_path) or b""
        records, good_offset = self._scan(data)
        if not records or good_offset == 0:
            return None
        # Find the final record's start offset by rescanning lengths.
        offset = 0
        last_start = 0
        while offset < good_offset:
            length, _ = _HEADER.unpack_from(data, offset)
            last_start = offset
            offset += _HEADER.size + length
        span = good_offset - last_start
        cut = min(nbytes, span)
        self.fs.truncate(self.wal_path, len(data) - cut)
        torn = records[-1]
        if torn.get("op") == "out":
            self._mirror.pop(torn.get("id", 0), None)
        return torn


def inspect_wal(base_path: str, fs: Optional[object] = None,
                codec: str = "json", max_records: int = 200) -> dict:
    """Read-only diagnosis of a WAL + snapshot pair (``repro wal inspect``)."""
    backend = WALBackend(base_path, fs=fs, codec=codec, compact_every=0)
    snapshot = backend._read_snapshot()
    data = backend.fs.read(backend.wal_path) or b""
    records, good_offset = backend._scan(data)
    torn_bytes = len(data) - good_offset
    live: dict[int, dict] = {}
    snap_next = 0
    if snapshot is not None:
        for item in snapshot["entries"]:
            live[item["id"]] = item
            snap_next = max(snap_next, item["id"])
        snap_next = max(snap_next, snapshot.get("next", 0))
    for record in records:
        if record.get("op") == "out":
            if record["id"] > snap_next:
                live.setdefault(record["id"], record)
        elif record.get("op") == "rm":
            live.pop(record.get("id", 0), None)
    return {
        "wal_path": backend.wal_path,
        "snap_path": backend.snap_path,
        "wal_bytes": len(data),
        "wal_records": len(records),
        "records": records[:max_records],
        "snapshot_entries": (len(snapshot["entries"])
                             if snapshot is not None else None),
        "snapshot_at": snapshot.get("at") if snapshot is not None else None,
        "torn_bytes": torn_bytes,
        "torn": torn_bytes > 0,
        "live_entries": len(live),
    }
