"""``repro.connect``: one front door, three runtimes, one contract.

The v1.2 API redesign routes every runtime behind
``repro.connect(runtime=...)``; these tests pin the dispatch table, the
shared Protocol contract, and that the 1.x deprecation shims are gone.
"""

import pytest

import repro
from repro.core.config import TiamatConfig
from repro.runtime.api import (
    AioRuntime,
    SimRuntime,
    ThreadsRuntime,
    TiamatNodeHandle,
    TiamatRuntime,
    connect,
)
from repro.tuples.model import Pattern, Tuple

pytestmark = pytest.mark.timeout(120)

RUNTIME_KINDS = ["sim", "threads", "aio"]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def test_connect_is_exported_at_top_level():
    assert repro.connect is connect
    assert "connect" in repro.__all__
    assert "TiamatRuntime" in repro.__all__
    assert "TiamatNodeHandle" in repro.__all__


@pytest.mark.parametrize("kind,cls", [
    ("sim", SimRuntime), ("threads", ThreadsRuntime), ("aio", AioRuntime)])
def test_connect_dispatches_by_kind(kind, cls):
    with connect(runtime=kind) as rt:
        assert isinstance(rt, cls)
        assert rt.kind == kind
        assert isinstance(rt, TiamatRuntime)


def test_connect_defaults_to_sim():
    with connect() as rt:
        assert rt.kind == "sim"


def test_unknown_runtime_is_rejected():
    with pytest.raises(ValueError, match="unknown runtime"):
        connect(runtime="carrier-pigeon")


def test_connect_threads_config_flows_through():
    config = TiamatConfig(wire_codec="json")
    with connect(runtime="aio", config=config) as rt:
        assert rt.registry.codec.name == "json"


# ----------------------------------------------------------------------
# One behavioural contract across all three runtimes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_out_read_take(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        b = rt.node("b")
        rt.set_visible("a", "b")
        assert isinstance(a, TiamatNodeHandle)
        b.out(Tuple("shared", 1))
        a.out(Tuple("mine", 2))
        # local and remote reads through the identical facade
        assert a.rdp(Pattern("mine", int)) == Tuple("mine", 2)
        assert a.rdp(Pattern("shared", int)) == Tuple("shared", 1)
        assert a.inp(Pattern("shared", int)) == Tuple("shared", 1)
        assert a.rdp(Pattern("shared", int)) is None
        assert a.inp(Pattern("absent", str)) is None


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_blocking_timeout(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        assert a.rd(Pattern("never", int), timeout=0.2) is None
        assert a.in_(Pattern("never", int), timeout=0.2) is None


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_common_contract_eval_deposits(kind):
    with connect(runtime=kind) as rt:
        a = rt.node("a")
        a.eval(lambda: Tuple("made", 7))
        # eval's return shape is runtime-specific (see API.md); the
        # contract is the deposited result, observable via blocking read
        assert a.rd(Pattern("made", int), timeout=10.0) == Tuple("made", 7)


def test_runtime_protocols_are_runtime_checkable():
    with connect(runtime="sim") as rt:
        assert isinstance(rt, TiamatRuntime)
        assert isinstance(rt.node("n"), TiamatNodeHandle)
        assert not isinstance(object(), TiamatRuntime)


# ----------------------------------------------------------------------
# The 1.x deprecation shims are gone (2.0)
# ----------------------------------------------------------------------
def test_runtime_package_dropped_threaded_reexports():
    import repro.runtime as runtime_pkg
    for removed in ("ThreadedTiamatNode", "ThreadedNodeRegistry"):
        with pytest.raises(AttributeError):
            getattr(runtime_pkg, removed)
    assert not hasattr(repro, "create_instance")


def test_runtime_package_rejects_unknown_attribute():
    import repro.runtime as runtime_pkg
    with pytest.raises(AttributeError):
        runtime_pkg.NoSuchThing
