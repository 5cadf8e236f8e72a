"""A consistent-hash ring with virtual nodes.

Placement must agree across processes and runs, so every hash comes from
``hashlib.blake2b`` — never Python's builtin ``hash()``, which is
randomized per process and would make two instances of the same fabric
disagree about ownership (and break the differential harness's replay
guarantees).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from hashlib import blake2b
from typing import Iterable, List, Tuple


def stable_hash(text: str) -> int:
    """A 64-bit process-independent hash of ``text``."""
    return int.from_bytes(blake2b(text.encode("utf-8"), digest_size=8).digest(),
                          "big")


@lru_cache(maxsize=16384)
def _member_points(member: str, vnodes: int) -> Tuple[int, ...]:
    """One member's ring points — cached, since every instance of a fabric
    hashes the same names (n instances × n members would otherwise redo
    the same n² blake2b calls on every ring rebuild)."""
    return tuple(stable_hash(f"{member}#{v}") for v in range(vnodes))


class HashRing:
    """Members placed on a 64-bit ring, ``vnodes`` points each."""

    def __init__(self, members: Iterable[str], vnodes: int = 8) -> None:
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: List[str] = []
        seen = sorted(set(members))
        self.members = seen
        points = []
        for member in seen:
            for point in _member_points(member, vnodes):
                points.append((point, member))
        # Ties (astronomically unlikely) break by name for determinism.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [m for _, m in points]

    def owners(self, key: str, k: int) -> List[str]:
        """The first ``k`` distinct members clockwise from ``key``'s point.

        Deterministic for any member set; returns fewer than ``k`` names
        when the ring has fewer members.
        """
        if not self._points:
            return []
        want = min(k, len(self.members))
        start = bisect_right(self._points, stable_hash(key))
        chosen: List[str] = []
        n = len(self._points)
        for i in range(n):
            owner = self._owners[(start + i) % n]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == want:
                    break
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HashRing members={len(self.members)} vnodes={self.vnodes}>"
