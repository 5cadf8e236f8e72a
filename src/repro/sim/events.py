"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that simulation processes can wait
on.  Events either *succeed* with a value or *fail* with an exception; in
both cases the registered callbacks run at the current virtual instant (via a
zero-delay timer, preserving deterministic FIFO ordering with everything else
scheduled "now").

:class:`Timeout` is an event that succeeds after a fixed virtual delay.
:class:`AnyOf`/:class:`AllOf` compose events so a process can wait for the
first of several things (e.g. "a matching tuple arrives OR my lease
expires") or for all of them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence processes can wait on.

    Callbacks are callables of one argument (the event itself); they are
    invoked exactly once, at the virtual instant the event triggers.  Adding
    a callback to an already-triggered event schedules it to run now.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._defused = True

    @property
    def defused(self) -> bool:
        """Whether a failure of this event has been marked as handled."""
        return self._defused

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(exception, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} triggered twice")
        self._value = value
        self._ok = ok
        sim = self.sim
        sim._push(sim.now, self._run_callbacks, ())    # schedule(0.0, ...)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    # -- waiting --------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event triggers."""
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            # Already triggered and callbacks flushed: run at "now".
            self.sim.schedule(0.0, callback, self)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Deregister a pending callback; a no-op if already flushed."""
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation.

    The underlying timer can be cancelled with :meth:`cancel` (e.g. when a
    blocking operation is satisfied before its lease deadline).
    """

    def __init__(self, sim, delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self.delay = delay
        self._timer = sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)

    def cancel(self) -> None:
        """Stop the timeout from firing; a no-op once triggered."""
        self._timer.cancel()


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` and :class:`AllOf`."""

    def __init__(self, sim, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed(self._snapshot())
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _snapshot(self) -> dict:
        return {e: e.value for e in self.events if e.triggered}

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._done += 1
        if self._check():
            self.succeed(self._snapshot())

    def _check(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds.

    The success value is a dict mapping each already-triggered child to its
    value, so the waiter can tell which event won.
    """

    def _check(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Succeeds when every child event has succeeded."""

    def _check(self) -> bool:
        return self._done >= len(self.events)
