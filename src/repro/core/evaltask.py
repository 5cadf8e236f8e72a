"""``eval``: active tuples.

"In the case of eval the tuple is considered active and contains some
computation which must be carried out before the resultant tuple becomes
available" (section 2.1).  And under leasing: "for the eval operation, when
the lease expires the resultant computation (if it has not already
finished) may be halted and the tuple may be removed" (section 2.5).

In the simulation an active tuple is a callable plus a virtual compute
time.  The computation runs as a simulation process charged against the
eval lease; if the lease ends first, the process is interrupted and no
tuple ever appears.  On success the resultant tuple is deposited in the
local space with the remainder of the same lease as its lifetime.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MalformedTupleError, ProcessInterrupt
from repro.leasing import Lease
from repro.sim.events import Event
from repro.tuples import Tuple


class EvalTask:
    """A running (or finished) active-tuple computation.

    ``event`` succeeds with the resultant :class:`Tuple` once it has been
    deposited, or with ``None`` if the lease ended before the computation
    finished.
    """

    def __init__(self, instance, fn: Callable[..., Tuple], args: tuple,
                 compute_time: float, lease: Lease) -> None:
        self.instance = instance
        self.fn = fn
        self.args = args
        self.compute_time = compute_time
        self.lease = lease
        self.event: Event = instance.sim.event()
        self.result: Optional[Tuple] = None
        self.halted = False
        self._process = instance.sim.spawn(self._run())
        lease.on_end(self._on_lease_end)

    def _run(self):
        try:
            yield self.instance.sim.timeout(self.compute_time)
        except ProcessInterrupt:
            self.halted = True
            if not self.event.triggered:
                self.event.succeed(None)
            return
        result = self.fn(*self.args)
        if not isinstance(result, Tuple):
            error = MalformedTupleError(
                f"eval computation returned {result!r}, not a Tuple")
            self.event.fail(error)
            raise error
        self.result = result
        self.instance.deposit_eval_result(result, self.lease)
        self.event.succeed(result)

    def _on_lease_end(self, lease: Lease, state) -> None:
        # Lease ended: halt the computation if it is still running.  (If it
        # already finished, the resultant tuple's expiry is handled by the
        # space, which shares the lease's deadline.)
        if self.result is None and not self.halted and self._process.alive:
            self._process.interrupt("eval lease ended")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self.halted else ("done" if self.result else "running")
        return f"<EvalTask {state} compute_time={self.compute_time}>"
