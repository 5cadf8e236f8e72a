"""Filesystem abstraction for the durable storage backends.

Two implementations of one tiny contract:

* :class:`OsFS` — real files.  ``append`` opens, writes, flushes, and
  closes per call (modelling write-through: a record is durable once
  ``append`` returns), and ``replace`` writes a temp file *in the same
  directory* and ``os.replace``\\ s it into place, so a snapshot is either
  the complete old file or the complete new file, never a torn hybrid.
* :class:`MemoryFS` — a dict of paths to byte buffers, byte-compatible
  with :class:`OsFS` but deterministic and allocation-cheap, for the
  schedule explorer and property tests.  It adds fault-injection helpers
  (:meth:`MemoryFS.chop`, :meth:`MemoryFS.flip_bit`) for torn-tail and
  bit-rot experiments.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional


class OsFS:
    """Real-file storage with atomic replace and write-through appends."""

    def read(self, path: str) -> Optional[bytes]:
        """The file's full contents, or None if it does not exist."""
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def append(self, path: str, data: bytes) -> None:
        """Append ``data``; durable (flushed + fsynced) on return."""
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, path: str, data: bytes) -> None:
        """Atomically replace ``path``'s contents with ``data``.

        The temp file lives in the target's directory so ``os.replace``
        is a same-filesystem rename — atomic on every POSIX filesystem.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def truncate(self, path: str, size: int) -> None:
        """Cut the file down to ``size`` bytes."""
        with open(path, "r+b") as handle:
            handle.truncate(size)

    def delete(self, path: str) -> None:
        """Remove the file if present."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def size(self, path: str) -> int:
        """File size in bytes (0 if absent)."""
        try:
            return os.path.getsize(path)
        except OSError:
            return 0


class MemoryFS:
    """In-memory path → bytes map, API-compatible with :class:`OsFS`."""

    def __init__(self) -> None:
        self.files: dict[str, bytearray] = {}

    def read(self, path: str) -> Optional[bytes]:
        data = self.files.get(path)
        return None if data is None else bytes(data)

    def append(self, path: str, data: bytes) -> None:
        self.files.setdefault(path, bytearray()).extend(data)

    def replace(self, path: str, data: bytes) -> None:
        self.files[path] = bytearray(data)

    def truncate(self, path: str, size: int) -> None:
        data = self.files.get(path)
        if data is not None:
            del data[size:]

    def size(self, path: str) -> int:
        data = self.files.get(path)
        return 0 if data is None else len(data)

    # ------------------------------------------------------------------
    # Fault injection (tests and the crash_recover explorer template)
    # ------------------------------------------------------------------
    def chop(self, path: str, nbytes: int) -> int:
        """Drop the last ``nbytes`` bytes (a torn tail); returns bytes cut."""
        data = self.files.get(path)
        if data is None or nbytes <= 0:
            return 0
        cut = min(nbytes, len(data))
        del data[len(data) - cut:]
        return cut

    def flip_bit(self, path: str, offset: int, bit: int = 0) -> bool:
        """Flip one bit in place (bit rot); False if out of range."""
        data = self.files.get(path)
        if data is None or not 0 <= offset < len(data):
            return False
        data[offset] ^= 1 << (bit & 7)
        return True
