"""The unified runtime front door: ``repro.connect(runtime=...)``.

Tiamat has three execution substrates — the deterministic simulation
(:mod:`repro.core` over :mod:`repro.sim`), the threaded runtime
(:mod:`repro.runtime.node`), and the asyncio UDP runtime
(:mod:`repro.runtime.aio`).  Each has its own construction ritual (build
a ``Simulator`` + ``Network`` + ``TiamatInstance``; or a
``ThreadedNodeRegistry`` + ``ThreadedTiamatNode``); this module gives all
three one door and one handle vocabulary::

    import repro
    from repro.tuples import Pattern, Tuple

    with repro.connect(runtime="aio") as rt:     # or "sim" / "threads"
        a = rt.node("a")
        b = rt.node("b")
        rt.set_visible("a", "b")
        b.out(Tuple("job", 1))
        print(a.inp(Pattern("job", int)))        # -> Tuple('job', 1)

Every handle satisfies :class:`TiamatNodeHandle`: synchronous
``out``/``rdp``/``inp``/``rd``/``in_``/``eval`` with the threaded
runtime's signatures.  The sim adapter makes that work by *driving the
kernel* under each call — virtual time advances while the caller blocks,
so a ``rd`` with a 5 s timeout completes in microseconds of wall time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

from repro.tuples.model import Pattern, Tuple

if TYPE_CHECKING:
    from repro.core.config import TiamatConfig

_RUNTIMES = ("sim", "threads", "aio")


@runtime_checkable
class TiamatNodeHandle(Protocol):
    """What every runtime hands back from :meth:`TiamatRuntime.node`."""

    name: str

    def out(self, tup: Tuple,
            lease_duration: Optional[float] = None) -> None: ...
    def rdp(self, pattern: Pattern) -> Optional[Tuple]: ...
    def inp(self, pattern: Pattern) -> Optional[Tuple]: ...
    def rd(self, pattern: Pattern,
           timeout: float = 5.0) -> Optional[Tuple]: ...
    def in_(self, pattern: Pattern,
            timeout: float = 5.0) -> Optional[Tuple]: ...
    def eval(self, fn, *args,
             lease_duration: Optional[float] = None) -> Any: ...


@runtime_checkable
class TiamatRuntime(Protocol):
    """What :func:`connect` returns, whatever the substrate."""

    kind: str

    def node(self, name: str, **options: Any) -> TiamatNodeHandle: ...
    def set_visible(self, a: str, b: str, visible: bool = True) -> None: ...
    def close(self) -> None: ...
    def __enter__(self) -> "TiamatRuntime": ...
    def __exit__(self, *exc: Any) -> None: ...


class _RuntimeBase:
    """Context-manager plumbing shared by the three adapters."""

    kind = "?"

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------
class _SimNodeHandle:
    """Synchronous facade over a :class:`~repro.core.TiamatInstance`.

    Each call constructs the operation, registers a callback on its
    event and then runs the simulation kernel in 0.25 s slices of virtual
    time until the callback has fired or the (virtual) timeout expires.
    The wait costs no kernel events of its own: no process is spawned to
    watch the event.
    """

    def __init__(self, runtime: "SimRuntime", instance: Any) -> None:
        self._runtime = runtime
        self.instance = instance
        self.name = instance.name

    @property
    def space(self) -> Any:
        return self.instance.space

    def _requester(self, lease_duration: Optional[float]) -> Any:
        if lease_duration is None:
            return None
        from repro.leasing import LeaseTerms, SimpleLeaseRequester
        return SimpleLeaseRequester(LeaseTerms(duration=lease_duration))

    def _await_event(self, event: Any, timeout: float,
                     cancel: Any = None) -> Optional[Tuple]:
        sim = self._runtime.sim
        done: list = []
        event.add_callback(done.append)
        # Advance virtual time in small slices and stop as soon as the
        # event concludes: burning the whole timeout on every call would
        # silently expire leased tuples between operations.
        deadline = sim.now + timeout
        while not done and sim.now < deadline:
            sim.run(until=min(sim.now + 0.25, deadline))
        if not done:
            if cancel is not None:
                # Timed out: withdraw the pending operation so it cannot
                # consume a tuple deposited after this call returned None.
                cancel()
            return None
        if not event.ok:
            raise event.value
        return event.value

    def out(self, tup: Tuple,
            lease_duration: Optional[float] = None) -> None:
        self.instance.out(tup, requester=self._requester(lease_duration))

    def _op(self, op_name: str, pattern: Pattern,
            timeout: float) -> Optional[Tuple]:
        op = getattr(self.instance, op_name)(pattern)
        return self._await_event(op.event, timeout,
                                 cancel=getattr(op, "cancel", None))

    def rdp(self, pattern: Pattern) -> Optional[Tuple]:
        return self._op("rdp", pattern, self._runtime.op_timeout)

    def inp(self, pattern: Pattern) -> Optional[Tuple]:
        return self._op("inp", pattern, self._runtime.op_timeout)

    def rd(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        return self._op("rd", pattern, timeout)

    def in_(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        return self._op("in_", pattern, timeout)

    def eval(self, fn, *args,
             lease_duration: Optional[float] = None) -> Optional[Tuple]:
        task = self.instance.eval(
            fn, *args, requester=self._requester(lease_duration))
        return self._await_event(task.event, self._runtime.op_timeout)


class SimRuntime(_RuntimeBase):
    """``connect(runtime="sim")``: handles that drive the kernel inline.

    ``op_timeout`` bounds the *virtual* time a non-blocking probe or an
    ``eval`` may take before the handle gives up and returns ``None``
    (blocking ``rd``/``in_`` use their own ``timeout`` arguments).
    """

    kind = "sim"

    def __init__(self, *, config: Optional["TiamatConfig"] = None,
                 seed: int = 0, op_timeout: float = 60.0) -> None:
        from repro.core.config import TiamatConfig
        from repro.net.network import Network, default_latency
        from repro.net.visibility import VisibilityGraph
        from repro.sim.kernel import Simulator

        self.config = config if config is not None else TiamatConfig()
        self.sim = Simulator(seed=seed)
        self.visibility = VisibilityGraph()
        self.network = Network(self.sim, visibility=self.visibility,
                               latency_factory=default_latency(per_byte=0.0))
        self.op_timeout = op_timeout
        self._handles: dict = {}

    def node(self, name: str, **options: Any) -> _SimNodeHandle:
        from repro.core.instance import TiamatInstance
        if name in self._handles:
            raise ValueError(f"node {name!r} already exists")
        instance = TiamatInstance(self.sim, self.network, name,
                                  config=self.config, **options)
        handle = _SimNodeHandle(self, instance)
        self._handles[name] = handle
        self.sim.run(until=self.sim.now + 0.001)   # let the instance settle
        return handle

    def set_visible(self, a: str, b: str, visible: bool = True) -> None:
        self.visibility.set_visible(a, b, visible)
        self.visibility.set_visible(b, a, visible)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Advance virtual time directly (escape hatch for sim users)."""
        return self.sim.run(until=until, max_events=max_events)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------
class ThreadsRuntime(_RuntimeBase):
    """``connect(runtime="threads")``: lock-based nodes on real threads.

    The handles *are* :class:`~repro.runtime.node.ThreadedTiamatNode`
    objects — that class already speaks the handle vocabulary; the
    adapter only owns the registry and the visibility relation.
    """

    kind = "threads"

    def __init__(self, *, config: Optional["TiamatConfig"] = None) -> None:
        from repro.runtime.node import ThreadedNodeRegistry
        self.registry = ThreadedNodeRegistry(config=config)
        self.config = self.registry.config

    def node(self, name: str, **options: Any):
        from repro.runtime.node import ThreadedTiamatNode
        return ThreadedTiamatNode(self.registry, name, **options)

    def set_visible(self, a: str, b: str, visible: bool = True) -> None:
        self.registry.set_visible(a, b, visible)


# ---------------------------------------------------------------------------
# aio
# ---------------------------------------------------------------------------
class AioRuntime(_RuntimeBase):
    """``connect(runtime="aio")``: real UDP datagrams on an event loop.

    Handles are :class:`~repro.runtime.aio.AioTiamatNode` objects; their
    ``a_``-prefixed coroutine twins are available for asyncio callers.
    ``close()`` (or the context manager) tears down every socket and the
    loop thread — unlike the in-process runtimes, forgetting it leaks
    OS resources.
    """

    kind = "aio"

    def __init__(self, *, config: Optional["TiamatConfig"] = None,
                 host: str = "127.0.0.1", loss_rate: float = 0.0,
                 loss_seed: int = 0) -> None:
        from repro.runtime.aio import AioNodeRegistry
        self.registry = AioNodeRegistry(
            host=host, config=config, loss_rate=loss_rate,
            loss_seed=loss_seed)
        self.config = self.registry.config

    def node(self, name: str, **options: Any):
        from repro.runtime.aio import AioTiamatNode
        return AioTiamatNode(self.registry, name, **options)

    def set_visible(self, a: str, b: str, visible: bool = True) -> None:
        self.registry.set_visible(a, b, visible)

    def close(self) -> None:
        self.registry.close()


def connect(runtime: str = "sim", *,
            config: Optional["TiamatConfig"] = None,
            **options: Any) -> TiamatRuntime:
    """Open a Tiamat runtime of the requested kind.

    Parameters
    ----------
    runtime:
        ``"sim"`` (deterministic simulation), ``"threads"`` (real
        threads, in-process), or ``"aio"`` (real UDP sockets on an
        asyncio event loop).
    config:
        A :class:`~repro.core.TiamatConfig` applied to every node.
    options:
        Kind-specific keywords — ``seed``/``op_timeout`` for sim;
        ``host``/``loss_rate``/``loss_seed`` for aio.

    Returns a :class:`TiamatRuntime`; use it as a context manager so the
    aio kind reliably releases its sockets and loop thread.
    """
    if runtime == "sim":
        return SimRuntime(config=config, **options)
    if runtime == "threads":
        return ThreadsRuntime(config=config, **options)
    if runtime == "aio":
        return AioRuntime(config=config, **options)
    raise ValueError(
        f"unknown runtime {runtime!r}: expected one of {_RUNTIMES}")
