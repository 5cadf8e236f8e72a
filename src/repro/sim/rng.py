"""Named, reproducible random streams.

A simulation mixes many independent sources of randomness (mobility paths,
message loss, workload inter-arrival times, non-deterministic tuple-match
selection).  If they all drew from one ``random.Random``, adding a draw in
one subsystem would shift every subsequent sample in all the others and
silently change experiment results.  ``RngStream`` therefore derives child
streams by hashing a parent seed with a stream name, so each subsystem owns
an independent, stable sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Sequence


def _derive_seed(parent_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{parent_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A seeded random stream that can spawn named child streams.

    The public surface mirrors the handful of ``random.Random`` methods the
    simulation actually uses, plus :meth:`child` for derivation.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self.seed)

    def child(self, name: str) -> "RngStream":
        """Derive an independent stream identified by ``name``."""
        return RngStream(_derive_seed(self.seed, name), name=f"{self.name}/{name}")

    # -- draws ----------------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, a: float, b: float) -> float:
        """Uniform float in [a, b]."""
        return self._random.uniform(a, b)

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed float with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        return self._random.randint(a, b)

    def choice(self, seq: Sequence[Any]) -> Any:
        """Uniformly random element of a non-empty sequence."""
        return self._random.choice(seq)

    def sample(self, seq: Sequence[Any], k: int) -> list:
        """k distinct elements sampled without replacement."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name} seed={self.seed}>"
