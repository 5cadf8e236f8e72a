"""Pluggable durable storage for tuple spaces (the PR 6 durability layer).

See :mod:`repro.tuples.storage.base` for the backend trait and the
recovery id discipline, :mod:`repro.tuples.storage.wal` for the CRC-framed
write-ahead log, and ``docs/PROTOCOL.md`` section 10 for the on-disk
grammar and the anti-entropy rejoin protocol.
"""

from repro.tuples.storage.base import (
    DEFAULT_SKIP_TAGS,
    MemoryBackend,
    RecoveredState,
    RecoveryStats,
    StorageBackend,
    attach_backend,
)
from repro.tuples.storage.fs import MemoryFS, OsFS
from repro.tuples.storage.wal import WALBackend, inspect_wal

__all__ = [
    "DEFAULT_SKIP_TAGS",
    "MemoryBackend",
    "MemoryFS",
    "OsFS",
    "RecoveredState",
    "RecoveryStats",
    "StorageBackend",
    "WALBackend",
    "attach_backend",
    "inspect_wal",
]
