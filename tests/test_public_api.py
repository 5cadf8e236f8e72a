"""Pin the redesigned public API surface (PR 4).

Three kinds of guarantees:

* **exports** — every package's ``__all__`` is pinned exactly; adding or
  removing a name is a deliberate, reviewed act that edits this file;
* **shape** — the blessed constructors are keyword-only for their
  optional arguments (inspected, not just documented), the
  ``Network`` keywords and ``TiamatConfig`` fields are pinned exactly (a
  new switch is a reviewed diff), and :func:`repro.connect` is the
  one-call entry point (v1.2);
* **removal** — the pre-``connect`` shims are gone in 2.0: optionals
  passed positionally are a plain :class:`TypeError`, and nothing in the
  keyword form warns.

Run in CI as its own step (see ``.github/workflows/ci.yml``).
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import warnings

import pytest

import repro
import repro.core
import repro.leasing
import repro.net
import repro.obs
import repro.runtime
import repro.sim
import repro.tuples
import repro.tuples.storage

# ---------------------------------------------------------------------------
# 1. Exported names, pinned exactly.
# ---------------------------------------------------------------------------
EXPECTED_TOP_LEVEL = {
    "ANY", "AdmissionController", "Formal", "LeaseTerms", "Network",
    "Pattern", "Range", "Refusal", "SimpleLeaseRequester", "Simulator",
    "SpaceHandle", "TiamatConfig", "TiamatInstance", "TiamatNodeHandle",
    "TiamatRuntime", "Tuple", "UnavailablePolicy", "VisibilityGraph",
    "__version__", "connect",
}

EXPECTED_CORE = {
    "ALL_REFUSAL_REASONS", "AdmissionController", "AdmissionDecision",
    "AppMonitor", "CommsManager", "ConflictResolver", "EvalTask",
    "FairShare", "LeaseTuner", "Operation", "QueryServer", "Refusal",
    "ReliableChannel", "RtsMonitor", "RandomRelayRouter", "Router",
    "SPACE_INFO_PATTERN", "SPACE_INFO_TAG", "SocialRouter", "SpaceHandle",
    "TiamatConfig", "TiamatInstance", "UnavailablePolicy", "parse_refusal",
}

EXPECTED_RUNTIME = {
    "AioRuntime", "SHED", "SimRuntime", "ThreadSafeTupleSpace",
    "ThreadsRuntime", "TiamatNodeHandle", "TiamatRuntime", "connect",
}

EXPECTED_SIM = {
    "AllOf", "AnyOf", "Event", "Process", "RngStream", "Simulator",
    "Timeout", "Timer",
}

EXPECTED_TUPLES = {
    "ANY", "Actual", "Field", "Formal", "LocalTupleSpace", "Pattern",
    "Range", "StoredEntry", "Tuple", "TupleStore", "Waiter",
    "decode_pattern", "decode_tuple", "encode_pattern", "encode_tuple",
    "encoded_size", "matches",
}

EXPECTED_STORAGE = {
    "DEFAULT_SKIP_TAGS", "MemoryBackend", "MemoryFS", "OsFS",
    "RecoveredState", "RecoveryStats", "SqliteBackend", "StorageBackend",
    "WALBackend", "attach_backend", "inspect_wal",
}

EXPECTED_LEASING = {
    "AcceptAnythingRequester", "AdaptivePolicy", "ConservativePolicy",
    "DenyAllPolicy", "GenerousPolicy", "GrantPolicy", "Lease",
    "LeaseManager", "LeaseRequester", "LeaseState", "LeaseTerms",
    "OperationKind", "ResourceFactory", "ResourceToken",
    "SimpleLeaseRequester",
}

EXPECTED_NET = {
    "ChurnInjector", "CorruptPayload", "CrashRestartInjector",
    "DuplicateFrames", "FaultInjector", "FaultPlan", "GilbertElliottLoss",
    "MultiHopVisibilityDriver", "OneWayLink", "ProtocolTrace",
    "RandomLoss", "ReorderFrames", "TraceEntry", "Message", "Network",
    "NetworkInterface", "NetworkStats", "NodeStats", "Position",
    "RandomWaypointMobility", "RangeVisibilityDriver", "StaticPlacement",
    "VisibilityGraph", "WaypointTrace",
}

EXPECTED_OBS = {
    "Counter", "DEFAULT_COUNT_BUCKETS", "DEFAULT_TIME_BUCKETS",
    "FlightRecorder", "FlightRing", "Gauge", "Histogram", "MetricFamily",
    "MetricsRegistry", "NodeHealth", "Observability", "SLOObjective",
    "SLOTracker", "TELEMETRY_TAG", "TelemetryPublisher", "TraceEvent",
    "Tracer", "collect_cluster_health", "load_flight_dump", "render_flight",
    "render_top",
}


@pytest.mark.parametrize("module, expected", [
    (repro, EXPECTED_TOP_LEVEL),
    (repro.core, EXPECTED_CORE),
    (repro.runtime, EXPECTED_RUNTIME),
    (repro.sim, EXPECTED_SIM),
    (repro.tuples, EXPECTED_TUPLES),
    (repro.tuples.storage, EXPECTED_STORAGE),
    (repro.leasing, EXPECTED_LEASING),
    (repro.net, EXPECTED_NET),
    (repro.obs, EXPECTED_OBS),
], ids=lambda m: getattr(m, "__name__", None) or "expected")
def test_all_is_pinned(module, expected):
    assert set(module.__all__) == expected
    # __all__ must not promise names the module cannot deliver.
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_all_lists_are_sorted():
    for module in (repro, repro.core):
        assert list(module.__all__) == sorted(module.__all__), module


# ---------------------------------------------------------------------------
# 2. Constructor shape: optionals are keyword-only in the blessed form.
# ---------------------------------------------------------------------------
def _keyword_only_names(func):
    return {p.name for p in inspect.signature(func).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY}


def test_instance_ctor_optionals_are_keyword_only():
    kw = _keyword_only_names(repro.TiamatInstance.__init__)
    assert {"policy", "config", "storage_capacity", "thread_capacity",
            "router", "space"} <= kw


def test_network_ctor_optionals_are_keyword_only():
    kw = _keyword_only_names(repro.Network.__init__)
    assert kw == {"visibility", "loss_rate", "latency_factory"}


def test_registries_take_no_codec():
    from repro.runtime.aio import AioNodeRegistry
    from repro.runtime.node import ThreadedNodeRegistry
    from repro.tuples.storage import WALBackend, inspect_wal

    for fn in (ThreadedNodeRegistry.__init__, AioNodeRegistry.__init__,
               WALBackend.__init__, inspect_wal):
        assert "codec" not in inspect.signature(fn).parameters


def test_aio_has_no_multicast_discovery():
    from repro.net.message import Message
    from repro.runtime import aio
    from repro.runtime.api import AioRuntime

    for fn in (aio.AioNodeRegistry.__init__, AioRuntime.__init__):
        assert "multicast" not in inspect.signature(fn).parameters
    assert not hasattr(aio, "multicast_group_for")
    assert not hasattr(aio.AioTiamatNode, "discover")
    assert not hasattr(aio.AioTiamatNode, "a_discover")
    assert "msg_id" not in Message.__slots__


EXPECTED_CONFIG_FIELDS = {
    "admission_burst", "admission_enabled", "admission_fairness",
    "admission_price_curve", "admission_queue_bound",
    "admission_retry_floor", "claim_timeout", "comms_strategy",
    "dedup_window", "default_lease_terms", "discover_window", "fabric",
    "peer_timeout", "persistent_space", "propagate_mode", "relay_ttl",
    "reliability_enabled", "retry_backoff", "retry_initial", "retry_jitter",
    "retry_max_interval", "serve_cost", "serve_max_duration",
    "serve_workers", "telemetry_enabled", "telemetry_lease",
    "telemetry_period",
}


def test_config_fields_are_pinned():
    fields = {f.name for f in dataclasses.fields(repro.TiamatConfig)}
    assert fields == EXPECTED_CONFIG_FIELDS


def test_connect_is_the_front_door():
    sig = inspect.signature(repro.connect)
    params = list(sig.parameters.values())
    assert params[0].name == "runtime"
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY
               for p in params[1:] if p.kind is not
               inspect.Parameter.VAR_KEYWORD)
    with repro.connect(runtime="sim") as rt:
        assert isinstance(rt, repro.TiamatRuntime)


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts[:2])
    # the pre-connect shims were removed in 2.0, the snapshot persistence
    # module (repro.tuples.persistence) in 3.0, the sim's frame batching,
    # ack piggybacking and repro.sim.resources in 4.0, the wire-codec
    # choice (frames are JSON) in 5.0, the WAL record-codec choice (logs
    # are JSON) in 6.0, aio multicast discovery and Message.msg_id in 7.0
    assert tuple(int(p) for p in parts[:2]) >= (7, 0)


def test_import_set_does_not_grow():
    """``import repro`` is what every runtime's ``setup_s`` and
    ``peak_rss_mb`` pay before the first operation: count it in a fresh
    interpreter.  Storage stays lazy — only a node that recovers or an
    injector that crashes one imports it, and sqlite3 only with it."""
    code = ("import sys, repro; "
            "print(sorted(n for n in sys.modules if n == 'sqlite3' "
            "or n.partition('.')[0] == 'repro'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = ast.literal_eval(out)
    assert len(loaded) == 55, loaded
    assert not [n for n in loaded if n == "sqlite3" or "storage" in n
                or "persistence" in n]


# ---------------------------------------------------------------------------
# 3. Removed in 2.0: optionals passed positionally are a plain TypeError.
# ---------------------------------------------------------------------------
def test_excess_positional_arguments_are_an_error():
    sim = repro.Simulator(seed=3)
    with pytest.raises(TypeError):
        repro.Network(sim, repro.VisibilityGraph())       # a second positional
    net = repro.Network(sim)
    with pytest.raises(TypeError):
        repro.TiamatInstance(sim, net, "n0", None)        # a fourth positional


def test_positional_and_keyword_duplicate_is_an_error():
    sim = repro.Simulator(seed=3)
    with pytest.raises(TypeError):
        repro.Network(sim, repro.VisibilityGraph(),
                      visibility=repro.VisibilityGraph())


def test_keyword_form_does_not_warn():
    sim = repro.Simulator(seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        net = repro.Network(sim, loss_rate=0.0)
        repro.TiamatInstance(sim, net, "quiet",
                             config=repro.TiamatConfig())
