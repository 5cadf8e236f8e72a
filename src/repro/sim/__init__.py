"""Deterministic discrete-event simulation kernel.

Every experiment in the reproduction runs on this kernel: it provides a
virtual clock, an event queue with stable FIFO tie-breaking, generator-based
processes (in the style of SimPy), composable wait conditions, and seeded
random-number streams so that any run is exactly repeatable from its seed.

The kernel is deliberately self-contained: the simulated network
(:mod:`repro.net`), the leasing subsystem (:mod:`repro.leasing`) and the
Tiamat instances themselves (:mod:`repro.core`) are all expressed as event
callbacks and processes over this module.

Quick taste::

    from repro.sim import Simulator

    sim = Simulator(seed=7)

    def greeter(sim):
        yield sim.timeout(5.0)
        print("hello at", sim.now)

    sim.spawn(greeter(sim))
    sim.run()
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator, Timer
from repro.sim.process import Process
from repro.sim.rng import RngStream

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "RngStream",
    "Simulator",
    "Timeout",
    "Timer",
]
