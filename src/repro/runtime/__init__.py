"""Real-substrate runtimes for the tuple-space kernel.

Everything in :mod:`repro.core` runs over the discrete-event simulator so
experiments are deterministic and scale on one machine.  This package
demonstrates that the model is not simulator-bound, twice over:

* :mod:`repro.runtime.base` — what the two share, written once: the node
  registry and visibility relation, the admission-controlled serving gate
  (``SHED``) and the origin's per-peer shed back-off;
* :mod:`repro.runtime.node` — a **threaded** runtime: thread-safe tuple
  space with genuinely blocking ``rd``/``in`` (condition variables,
  wall-clock lease deadlines) and nodes linked by an in-process registry,
  exercising true concurrency while staying hermetic;
* :mod:`repro.runtime.aio` — an **asyncio UDP** runtime: the same node
  semantics over real unicast datagram sockets, with a zero-copy
  encode/send path — the closest shape to
  the paper's prototype (threads + sockets on physical devices).

:mod:`repro.runtime.api` fronts all substrates (including the sim) with
one constructor — ``repro.connect(runtime="sim"|"threads"|"aio")`` — and
one node-handle vocabulary.  The runtime classes themselves live in
their modules (:mod:`repro.runtime.node`, :mod:`repro.runtime.aio`).
"""

from repro.runtime.api import (
    AioRuntime,
    SimRuntime,
    ThreadsRuntime,
    TiamatNodeHandle,
    TiamatRuntime,
    connect,
)
from repro.runtime.base import SHED
from repro.runtime.space import ThreadSafeTupleSpace

__all__ = [
    "AioRuntime",
    "SHED",
    "SimRuntime",
    "ThreadSafeTupleSpace",
    "ThreadsRuntime",
    "TiamatNodeHandle",
    "TiamatRuntime",
    "connect",
]
