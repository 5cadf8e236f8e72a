"""Sqlite-backed tuple storage for spaces bigger than RAM.

Every deposit and removal is applied directly to an ``entries`` table and
committed, so the database *is* the compact representation — there is no
log to replay and :meth:`SqliteBackend.compact` is a no-op.  Tuples are
stored as binary-codec blobs (the PR 3 LEB128 wire form), which round-trips
every field type including raw ``bytes``.

Sqlite's own journal provides the torn-write protection the WAL backend
implements by hand; what this module adds is the same
:class:`~repro.tuples.storage.base.StorageBackend` contract — high-water
id tracking, lease-aware recovery, listener plumbing — over a store that
never holds the full entry set in memory.
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.tuples.model import Tuple
from repro.tuples.serialization import decode_tuple_binary, encode_tuple_binary
from repro.tuples.storage.base import RecoveredState, StorageBackend

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    id  INTEGER PRIMARY KEY,
    tup BLOB NOT NULL,
    exp REAL,
    at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v REAL NOT NULL
);
"""


class SqliteBackend(StorageBackend):
    """Stdlib ``sqlite3`` storage backend (``:memory:`` supported)."""

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------
    # Meta helpers
    # ------------------------------------------------------------------
    def _get_meta(self, key: str) -> Optional[float]:
        row = self._conn.execute(
            "SELECT v FROM meta WHERE k = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: float) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (k, v) VALUES (?, ?)", (key, value))

    def _bump_high_water(self, entry_id: int) -> None:
        current = self._get_meta("high_water") or 0
        if entry_id > current:
            self._set_meta("high_water", float(entry_id))

    # ------------------------------------------------------------------
    # The durable contract
    # ------------------------------------------------------------------
    def record_out(self, entry_id: int, tup: Tuple,
                   expires_at: Optional[float], at: float) -> None:
        blob = encode_tuple_binary(tup)
        self._conn.execute(
            "INSERT OR REPLACE INTO entries (id, tup, exp, at) "
            "VALUES (?, ?, ?, ?)", (entry_id, blob, expires_at, at))
        self._bump_high_water(entry_id)
        self._set_meta("last_time", at)
        self._conn.commit()
        self.records_out += 1
        self.bytes_appended += len(blob)

    def record_remove(self, entry_id: int, reason: str, at: float) -> None:
        self._conn.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
        self._bump_high_water(entry_id)
        self._set_meta("last_time", at)
        self._conn.commit()
        self.records_remove += 1

    def recover(self) -> RecoveredState:
        entries = []
        for entry_id, blob, exp in self._conn.execute(
                "SELECT id, tup, exp FROM entries ORDER BY id"):
            entries.append((entry_id, decode_tuple_binary(blob), exp))
        high_water = int(self._get_meta("high_water") or 0)
        if entries:
            high_water = max(high_water, entries[-1][0])
        self.recoveries += 1
        self.records_replayed += len(entries)
        return RecoveredState(entries, high_water, self._get_meta("last_time"))

    def _rewrite(self, mirror: dict, at: float) -> None:
        self._conn.execute("DELETE FROM entries")
        for entry_id, (tup, exp) in sorted(mirror.items()):
            self._conn.execute(
                "INSERT INTO entries (id, tup, exp, at) VALUES (?, ?, ?, ?)",
                (entry_id, encode_tuple_binary(tup), exp, at))
            self._bump_high_water(entry_id)
        self._set_meta("last_time", at)
        self._conn.commit()
        self.compactions += 1

    def close(self) -> None:
        self._conn.close()
