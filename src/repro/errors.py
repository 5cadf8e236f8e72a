"""Exception hierarchy shared by every subsystem of the reproduction.

The paper's model distinguishes three broad failure classes that surface to
applications: lease negotiation failures (the lease manager is the first
point of contact for every operation, and a refused lease aborts the
operation before any other work happens), operation failures (an operation's
lease expired before a match was found, or a remote destination is
unreachable), and protocol/usage errors (malformed tuples or patterns).
Each class gets its own exception subtree so callers can catch precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class TupleError(ReproError):
    """Base class for tuple/pattern construction and matching errors."""


class MalformedTupleError(TupleError):
    """A tuple was constructed with fields the codec cannot represent."""


class MalformedPatternError(TupleError):
    """A pattern (antituple) was constructed with an invalid field spec."""


class SerializationError(TupleError):
    """A tuple or pattern could not be encoded or decoded for the wire."""


class StorageError(TupleError):
    """A durable storage backend was misconfigured or its data unusable."""


class LeaseError(ReproError):
    """Base class for leasing-subsystem errors."""


class LeaseRefusedError(LeaseError):
    """The lease manager refused to grant any lease for an operation.

    Per the model (section 2.5), when a lease is refused no further work is
    carried out on the operation.
    """


class LeaseRejectedByRequesterError(LeaseError):
    """The application's lease requester declined the offered lease.

    Per the implementation description (section 3.1.1), if the lease
    requester refuses the manager's offer, the operation fails.
    """


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class UnknownNodeError(NetworkError):
    """An address does not name a node attached to this network."""


class OperationError(ReproError):
    """Base class for tuple-space operation failures."""


class OperationAbandonedError(OperationError):
    """A routed operation was abandoned under the configured policy.

    Raised by the ``out``/``eval`` reply-to-origin variants when the
    destination instance is unavailable and the active routing policy says
    to abandon rather than route or fall back to the local space.
    """


class SimulationError(ReproError):
    """Base class for discrete-event kernel errors."""


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Simulator.run` early."""


class ProcessInterrupt(SimulationError):
    """Thrown into a simulation process by :meth:`Process.interrupt`.

    ``cause`` carries the value passed to ``interrupt`` so the interrupted
    process can decide how to react.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause
