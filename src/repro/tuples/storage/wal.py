"""Write-ahead log backend: CRC-framed records, atomic snapshot compaction.

Two files per space, ``<base>.wal`` and ``<base>.snap``:

* the **WAL** is a sequence of framed records, appended write-through —
  a record is durable once the append returns;
* the **snapshot** is a single framed record holding the full surviving
  entry set, written atomically (temp file + ``os.replace``) by
  :meth:`WALBackend.compact`; after the snapshot lands the WAL is reset.

Record framing (see ``docs/PROTOCOL.md`` section 10)::

    u32 length (LE) | u32 crc32(payload) (LE) | payload bytes

The payload is a compact JSON dict, tuples in their tag-first form::

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

A frame that passes its CRC but does not decode to a JSON record is not
a torn write: it is a log in another format (a binary-record log from
5.x) or deep rot.  Recovery refuses it with :class:`StorageError`, naming
the file and byte offset, and leaves both files as they are.

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
from typing import Optional

from repro.errors import StorageError
from repro.tuples.model import Tuple
from repro.tuples.serialization import decode_tuple, encode_tuple
from repro.tuples.storage.base import RecoveredState, StorageBackend
from repro.tuples.storage.fs import OsFS

#: ``u32 length | u32 crc32`` little-endian frame header.
_HEADER = struct.Struct("<II")

#: Sanity cap on one record; anything larger is treated as tail damage.
MAX_RECORD_BYTES = 1 << 26


def _encode(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan(data: bytes, path: str) -> "tuple[list[dict], int]":
    """Decode frames until the first torn one; returns (records, offset).

    A frame that passes its CRC but is not a JSON record raises
    :class:`StorageError`: a torn write cannot produce one.
    """
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
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError):
            record = None
        if not isinstance(record, dict):
            raise StorageError(
                f"{path}: the frame at byte {offset} passes its CRC but is "
                "not a JSON record (a log in another format, or deep "
                "corruption); refusing to recover from it")
        records.append(record)
        offset = start + length
    return records, offset


def _replay(snapshot: Optional[dict],
            records: "list[dict]") -> "tuple[dict[int, dict], int, Optional[float]]":
    """The replay rule :meth:`WALBackend.recover` and :func:`inspect_wal`
    share: returns ``(live, high_water, last_time)``, where ``live`` maps
    each surviving durable id to its snapshot entry or ``out`` record
    (tuple still encoded)."""
    live: dict[int, dict] = {}
    high = 0
    last_time: Optional[float] = None
    if snapshot is not None:
        for item in snapshot["entries"]:
            live[item["id"]] = item
            high = max(high, item["id"])
        high = max(high, snapshot.get("next", 0))
        last_time = snapshot.get("at")
    snap_next = high
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
            if entry_id > snap_next:
                live.setdefault(entry_id, record)
        elif op == "rm":
            # Removals are always applied: a post-snapshot `rm` may
            # target an entry the snapshot holds, and a pre-snapshot
            # one pops an id the snapshot already excludes (no-op).
            live.pop(entry_id, None)
        high = max(high, entry_id)
        at = record.get("at")
        if at is not None:
            last_time = at if last_time is None else max(last_time, at)
    return live, high, last_time


class WALBackend(StorageBackend):
    """Append-only write-ahead log with periodic atomic compaction."""

    def __init__(self, base_path: str, fs: Optional[object] = None,
                 compact_every: int = 256) -> None:
        super().__init__()
        if compact_every < 0:
            raise StorageError("compact_every must be >= 0")
        self.fs = fs if fs is not None else OsFS()
        self.wal_path = f"{base_path}.wal"
        self.snap_path = f"{base_path}.snap"
        #: Records between automatic compactions (0 disables auto-compact).
        self.compact_every = compact_every
        self._mirror: dict[int, tuple] = {}
        self._high_water = 0
        self._last_time: Optional[float] = None
        self._since_compact = 0
        self.snapshot_corrupt = 0

    # ------------------------------------------------------------------
    # The durable contract
    # ------------------------------------------------------------------
    def record_out(self, entry_id: int, tup: Tuple,
                   expires_at: Optional[float], at: float) -> None:
        record = {"op": "out", "id": entry_id, "tup": encode_tuple(tup),
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
        frame = _frame(_encode(record))
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
        entries = [{"id": entry_id, "tup": encode_tuple(tup), "exp": exp}
                   for entry_id, (tup, exp) in sorted(self._mirror.items())]
        snapshot = {"op": "snap", "at": at, "next": self._high_water,
                    "entries": entries}
        self.fs.replace(self.snap_path, _frame(_encode(snapshot)))
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
        snapshot, records, data, good_offset = self._load()
        if good_offset < len(data):
            self.torn_truncations += 1
            self.torn_bytes += len(data) - good_offset
            self.fs.truncate(self.wal_path, good_offset)
        live, high, last_time = _replay(snapshot, records)
        self._mirror = {entry_id: (decode_tuple(item["tup"]), item.get("exp"))
                        for entry_id, item in sorted(live.items())}
        self._high_water = max(self._high_water, high)
        self._last_time = last_time
        self._since_compact = 0
        self.recoveries += 1
        self.records_replayed += len(records)
        entries = [(entry_id, tup, exp)
                   for entry_id, (tup, exp) in self._mirror.items()]
        return RecoveredState(entries, self._high_water, last_time)

    def _load(self) -> "tuple[Optional[dict], list[dict], bytes, int]":
        """Read the snapshot and scan the WAL, changing neither file.

        Returns ``(snapshot, wal_records, wal_data, good_offset)``.  The
        snapshot is written atomically, so a snapshot that fails its CRC
        means external corruption, not a torn write: it is counted in
        ``snapshot_corrupt`` and recovery salvages what the WAL holds
        rather than refusing to boot.  A CRC-valid frame that is not a
        record raises :class:`StorageError` (see the module doc).
        """
        snapshot = None
        snap = self.fs.read(self.snap_path)
        if snap:
            found, _ = _scan(snap, self.snap_path)
            if not found:
                self.snapshot_corrupt += 1
            elif found[0].get("op") != "snap":
                raise StorageError(f"{self.snap_path}: the frame at byte 0 "
                                   "passes its CRC but is not a snapshot "
                                   "record; refusing to recover from it")
            else:
                snapshot = found[0]
        data = self.fs.read(self.wal_path) or b""
        records, good_offset = _scan(data, self.wal_path)
        return snapshot, records, data, good_offset

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
        records, good_offset = _scan(data, self.wal_path)
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
                max_records: int = 200) -> dict:
    """Read-only diagnosis of a WAL + snapshot pair (``repro wal inspect``).

    A pair recovery would refuse reports the reason, with the file and
    byte offset, under ``"refused"`` (otherwise None).
    """
    backend = WALBackend(base_path, fs=fs, compact_every=0)
    info: dict = {"wal_path": backend.wal_path,
                  "snap_path": backend.snap_path, "refused": None}
    try:
        snapshot, records, data, good_offset = backend._load()
    except StorageError as exc:
        info["refused"] = str(exc)
        return info
    live, _, _ = _replay(snapshot, records)
    torn_bytes = len(data) - good_offset
    info.update(
        wal_bytes=len(data),
        wal_records=len(records),
        records=records[:max_records],
        snapshot_entries=(len(snapshot["entries"])
                          if snapshot is not None else None),
        snapshot_at=snapshot.get("at") if snapshot is not None else None,
        torn_bytes=torn_bytes,
        torn=torn_bytes > 0,
        live_entries=len(live),
    )
    return info
