"""The discrete-event simulator: clock, event queue, and run loop.

The design is a small, deterministic core:

* :class:`Simulator` owns the virtual clock (``now``) and a binary heap of
  ``(time, tiebreak, seq, timer)`` entries.  The monotonically increasing
  sequence number guarantees FIFO order among callbacks scheduled for the
  same instant, which in turn makes every experiment reproducible; because
  it is unique, ``heapq`` settles every comparison on the three leading
  numbers, in C, and never reaches the :class:`Timer`.
* :class:`Timer` is the cancellable handle returned by
  :meth:`Simulator.schedule`; cancelling is O(1) (the heap entry is merely
  flagged dead and skipped when popped).
* Generator-based processes and event objects live in sibling modules and
  reduce to ``schedule`` calls on this class.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError, StopSimulation
from repro.sim.rng import RngStream


class Timer:
    """Cancellable handle for a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only ever
    calls :meth:`cancel` or inspects :attr:`cancelled`/:attr:`fired`.

    ``tiebreak`` is a secondary sort key between ``time`` and ``seq``: with
    the default of ``0.0`` for every timer the heap order is exactly the
    historical ``(time, seq)`` FIFO, so seeded experiments are bit-identical.
    A schedule-exploration harness (``repro.check``) installs a tiebreak
    hook that assigns random subkeys, turning same-instant FIFO into an
    adversarially explorable interleaving while staying deterministic per
    seed.

    Timers are deliberately unorderable: the queue holds
    ``(time, tiebreak, seq, timer)`` tuples and ``seq`` is unique, so no
    comparison ever falls through to the timer itself.
    """

    __slots__ = ("time", "tiebreak", "seq", "callback", "args", "cancelled",
                 "fired")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple,
                 tiebreak: float = 0.0) -> None:
        self.time = time
        self.tiebreak = tiebreak
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running; a no-op if it already fired."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the callback is still pending."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Timer t={self.time:.6g} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulation's random streams.  Two runs with the
        same seed and the same scheduled work produce bit-identical event
        orderings.
    start_time:
        Initial value of the virtual clock (defaults to ``0.0``).
    """

    #: Smallest queue worth sweeping for cancelled timers.
    COMPACT_FLOOR = 1024

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Heap of ``(time, tiebreak, seq, timer)``; see the module docstring.
        self._queue: list[tuple[float, float, int, Timer]] = []
        #: Queue length at which cancelled timers are next swept out.
        self._compact_at = self.COMPACT_FLOOR
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.seed = seed
        self._rng_root = RngStream(seed)
        self._rng_children: dict[str, RngStream] = {}
        self._id_counters: dict[str, itertools.count] = {}
        self.events_processed = 0
        self._obs = None
        #: Optional ``fn() -> float`` returning the tiebreak subkey stamped
        #: on every subsequently scheduled timer (see :class:`Timer`).
        #: ``None`` (the default) keeps the historical FIFO order.
        self._tiebreak_hook: Optional[Callable[[], float]] = None
        #: Optional ``fn(timer)`` invoked after every executed callback —
        #: the model checker's schedule recorder.  ``None`` by default; the
        #: run loop pays one falsy check per event, nothing else.
        self.event_hook: Optional[Callable[[Timer], None]] = None
        self.profiling = False
        #: handler label -> [calls, perf_counter seconds]; populated only
        #: while :meth:`enable_profiling` is in effect.
        self.handler_profile: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def rng(self, name: str = "default") -> RngStream:
        """Return a named random stream derived from the master seed.

        Named streams decouple the randomness consumed by independent
        subsystems (e.g. mobility vs. message loss), so adding randomness in
        one place does not perturb the sampled values in another.
        """
        stream = self._rng_children.get(name)
        if stream is None:
            stream = self._rng_root.child(name)
            self._rng_children[name] = stream
        return stream

    def ids(self, kind: str) -> itertools.count:
        """Return this simulation's id counter for ``kind``, counting from 1.

        Every id a simulated component draws (op, request, lease, epoch,
        ...) comes from here, so a seeded run's ids — and through their
        widths its frame sizes and timings — depend only on the seed, not
        on what else ran in the process.  Owners bind the counter once and
        call ``next`` on it.
        """
        counter = self._id_counters.get(kind)
        if counter is None:
            counter = self._id_counters[kind] = itertools.count(1)
        return counter

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self):
        """This simulation's telemetry hub (registry + opt-in tracer).

        Built lazily on first access, clocked by virtual time.  Components
        register their collect-time metric callbacks here; tracing starts
        only when ``sim.obs.start_trace(network)`` is called, so untouched
        simulations pay nothing.
        """
        if self._obs is None:
            from repro.obs import Observability

            self._obs = Observability(clock=lambda: self._now)
            self._obs.observe_kernel(self)
        return self._obs

    def enable_profiling(self) -> None:
        """Start timing every run-loop callback with ``perf_counter``.

        Per-handler call counts and cumulative wall-clock seconds land in
        :attr:`handler_profile` (and, through ``obs``, in the
        ``sim_handler_*`` metric families).  Profiling measures wall time
        only — virtual-time behaviour is unchanged.
        """
        self.profiling = True

    def disable_profiling(self) -> None:
        """Stop timing callbacks (accumulated profile is kept)."""
        self.profiling = False

    def _profile(self, callback: Callable[..., Any], elapsed: float) -> None:
        label = getattr(callback, "__qualname__", None) or repr(callback)
        record = self.handler_profile.get(label)
        if record is None:
            record = self.handler_profile[label] = [0, 0.0]
        record[0] += 1
        record[1] += elapsed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def set_tiebreak(self, hook: Optional[Callable[[], float]]) -> None:
        """Install (or clear, with ``None``) the same-instant tiebreak hook.

        When set, every subsequently scheduled timer is stamped with
        ``hook()`` as its secondary sort key, so callbacks scheduled for
        the *same instant* execute in hook-chosen order instead of FIFO.
        This is the model checker's schedule-exploration lever: a hook
        drawing from a named :meth:`rng` stream yields a different — but
        per-seed deterministic — interleaving of every same-tick race
        (delivery vs. expiry, ack vs. retransmit, flush vs. handler).

        Timers already in the queue keep their stamps; clearing the hook
        restores FIFO for future scheduling only.
        """
        self._tiebreak_hook = hook

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` units of virtual time.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant, after all callbacks already queued for this
        instant (FIFO — unless a tiebreak hook reorders same-instant
        callbacks, see :meth:`set_tiebreak`).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, callback, args)

    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> Timer:
        tiebreak = 0.0 if self._tiebreak_hook is None else self._tiebreak_hook()
        seq = next(self._seq)
        timer = Timer(time, seq, callback, args, tiebreak)
        heapq.heappush(self._queue, (time, tiebreak, seq, timer))
        if len(self._queue) >= self._compact_at:
            self._compact()
        return timer

    def _compact(self) -> None:
        """Drop cancelled timers from the queue.

        The run loop only discards a cancelled timer when it reaches the
        head, which one scheduled far ahead (a long lease's expiry) never
        does.  Sweeping when the queue has doubled since the last sweep is
        amortised O(1) per ``schedule``; pop order depends only on the
        total ``(time, tiebreak, seq)`` key, so it is unchanged.
        """
        self._queue[:] = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)
        self._compact_at = max(self.COMPACT_FLOOR, 2 * len(self._queue))

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute virtual time ``time``.

        The timer is queued at ``time`` itself (or now, if ``time`` has
        passed), so the callback sees ``now == time`` exactly: a deadline
        reached by ``now + (time - now)`` can round one ulp short of it.
        """
        return self._push(max(time, self._now), callback, args)

    # ------------------------------------------------------------------
    # Processes and events (thin wrappers; real logic in sibling modules)
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator) -> "Process":
        """Start a generator-based process now; returns its Process handle."""
        from repro.sim.process import Process

        return Process(self, generator)

    def event(self) -> "Event":
        """Create an untriggered event bound to this simulator."""
        from repro.sim.events import Event

        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Timeout":
        """Create an event that succeeds after ``delay`` virtual time units."""
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.  Returns the final clock value.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if the queue drained earlier, mirroring SimPy semantics so that
        periodic measurements aligned to the horizon are well-defined.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        processed = 0
        try:
            while self._queue:
                if self._stopped:
                    break
                time, _, _, timer = self._queue[0]
                if timer.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heapq.heappop(self._queue)
                if time < self._now:
                    raise SimulationError("event queue corrupted: time moved backwards")
                self._now = time
                timer.fired = True
                if self.profiling:
                    started = _time.perf_counter()
                    try:
                        timer.callback(*timer.args)
                    except StopSimulation:
                        self._profile(timer.callback,
                                      _time.perf_counter() - started)
                        break
                    self._profile(timer.callback,
                                  _time.perf_counter() - started)
                else:
                    try:
                        timer.callback(*timer.args)
                    except StopSimulation:
                        break
                processed += 1
                self.events_processed += 1
                if self.event_hook is not None:
                    self.event_hook(timer)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return self._now

    def step(self) -> bool:
        """Process exactly one pending callback; False if queue is empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before

    def stop(self) -> None:
        """Halt the current :meth:`run` after the active callback returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) callbacks in the queue."""
        return sum(1 for e in self._queue if not e[3].cancelled)

    def peek(self) -> Optional[float]:
        """Time of the next live callback, or None if the queue is empty."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.6g} pending={self.pending}>"
