"""The common node interface all compared systems implement.

The T5 comparison bench drives six systems (Tiamat plus five baselines)
with one workload; :class:`SpaceNode` is the contract that makes that
possible.  Operations are asynchronous and complete via a
:class:`SimpleOp` handle — mirroring the shape of Tiamat's own
:class:`~repro.core.ops.Operation` but without leases, so each baseline can
express its own timeout/fault semantics.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.tuples import Pattern, Tuple


class SimpleOp:
    """A pending or finished baseline operation.

    ``event`` succeeds with the matching tuple, or ``None`` on
    failure/timeout; ``error`` carries a short failure reason for the
    bench's diagnostics.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.event: Event = sim.event()
        self.done = False
        self.result: Optional[Tuple] = None
        self.error: Optional[str] = None

    def finalize(self, result: Optional[Tuple], error: Optional[str] = None) -> None:
        """Complete the operation exactly once."""
        if self.done:
            return
        self.done = True
        self.result = result
        self.error = error
        self.event.succeed(result)


class SpaceNode:
    """Protocol: one participant in a distributed tuple-space system.

    Implementations provide the five data operations (``eval`` is specific
    to Tiamat and not part of the cross-system comparison).  ``timeout``
    bounds blocking operations so comparison runs terminate; systems with
    their own effort model (Tiamat's leases) map it onto that model.
    """

    name: str

    def out(self, tup: Tuple) -> None:  # pragma: no cover - interface
        """Deposit a tuple."""
        raise NotImplementedError

    def rdp(self, pattern: Pattern) -> SimpleOp:  # pragma: no cover
        """Non-blocking read."""
        raise NotImplementedError

    def inp(self, pattern: Pattern) -> SimpleOp:  # pragma: no cover
        """Non-blocking take."""
        raise NotImplementedError

    def rd(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:  # pragma: no cover
        """Blocking read (bounded by ``timeout``)."""
        raise NotImplementedError

    def in_(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:  # pragma: no cover
        """Blocking take (bounded by ``timeout``)."""
        raise NotImplementedError

    def stored_tuples(self) -> int:  # pragma: no cover - interface
        """Tuples resident at this node (storage-burden metric)."""
        raise NotImplementedError
