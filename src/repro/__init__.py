"""Tiamat: generative communication in a changing world — full reproduction.

A production-quality Python reproduction of McSorley & Evans, *Tiamat:
Generative Communication in a Changing World* (Middleware 2003): a
Linda-style tuple-space middleware for pervasive environments built on
**opportunistic logical tuple spaces** and a **pervasive leasing model**,
together with every substrate it needs (a deterministic discrete-event
kernel, a simulated mobile radio network) and the five comparison systems
from the paper's related-work analysis (centralized client/server, Limbo,
LIME, CoreLime, PeerSpaces).

Package map
-----------

=====================  ====================================================
``repro.sim``          discrete-event kernel: clock, events, processes, RNG
``repro.tuples``       tuples, antituples, matching, stores, local spaces
``repro.net``          visibility graph, mobility, churn, message delivery
``repro.leasing``      lease terms/negotiation/policies/resource factories
``repro.core``         Tiamat itself: instances, logical-space operations
``repro.baselines``    the five compared systems
``repro.apps``         web client/proxy and fractal sample applications
``repro.bench``        harness utilities for the benchmark scripts
``repro.runtime``      real substrates: threads, asyncio UDP, front door
=====================  ====================================================

Quickstart — one front door for every execution substrate::

    import repro
    from repro.tuples import Pattern, Tuple

    with repro.connect(runtime="aio") as rt:     # or "sim" / "threads"
        a, b = rt.node("a"), rt.node("b")
        rt.set_visible("a", "b")
        b.out(Tuple("job", 1))
        a.inp(Pattern("job", int))               # -> Tuple('job', 1)

See also ``examples/quickstart.py`` and the README.
"""

from repro.core import (
    AdmissionController,
    Refusal,
    SpaceHandle,
    TiamatConfig,
    TiamatInstance,
    UnavailablePolicy,
)
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.net import Network, VisibilityGraph
from repro.runtime.api import (
    TiamatNodeHandle,
    TiamatRuntime,
    connect,
)
from repro.sim import Simulator
from repro.tuples import ANY, Formal, Pattern, Range, Tuple

__version__ = "7.0.0"

__all__ = [
    "ANY",
    "AdmissionController",
    "Formal",
    "LeaseTerms",
    "Network",
    "Pattern",
    "Range",
    "Refusal",
    "SimpleLeaseRequester",
    "Simulator",
    "SpaceHandle",
    "TiamatConfig",
    "TiamatInstance",
    "TiamatNodeHandle",
    "TiamatRuntime",
    "Tuple",
    "UnavailablePolicy",
    "VisibilityGraph",
    "__version__",
    "connect",
]
