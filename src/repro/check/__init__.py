"""Deterministic protocol model checker and differential conformance harness.

``repro.check`` drives the deterministic sim kernel through many seeded
schedules — randomized same-instant tiebreaks, fault-plan perturbations,
visibility churn — while passive invariant oracles watch every run:

* exactly-once consumption per tuple (no double-``in``);
* lease-accounting conservation (granted ⊇ active ∪ expired ∪ revoked);
* admission-refusal vocabulary closure;
* reliability no-duplicate dispatch for critical frames;
* claim exclusivity and quorum safety in the multi-agent blackboard.

The oracles read the flight recorder's stream (:mod:`repro.obs.flight`),
the same events a flight dump shows, so a violation's dump holds the
deposits, holds and takes that led to it.

On a violation it *shrinks*: bisects the schedule to a minimal reproducing
event prefix and emits a replayable :class:`~repro.check.shrink.CheckReport`.
A second front (:mod:`repro.check.differential`) drives the same scripted
workloads through both the sim and threaded runtimes and diffs observable
outcomes.

Mutation canaries
-----------------
``REPRO_CHECK_CANARY`` switches on one intentionally planted bug:
``ghost`` in the store (caught by ``tests/test_store_pick.py``'s
reference machine), ``double_take`` and ``lease_leak`` in the protocol
core, ``double_claim`` and ``split_vote`` in the multi-agent blackboard.
Host modules read it once, at object construction, through
:func:`canary`; with the variable unset the guards are constant-``False``
attributes checked on cold paths only.  They exist to prove the checks
are not vacuous (``tests/test_check_canaries.py``,
``tests/test_check_agent_canaries.py``).

Import discipline
-----------------
Hot-path modules (store, space, leasing, agents) import only
:func:`canary` and its names from here, which need nothing but ``os``.
Everything else in this package is **lazy-loaded** via module
``__getattr__`` so that import never drags the checker machinery (and
its ``repro.core`` imports) into production paths — no import cycle, no
startup cost.
"""

from __future__ import annotations

import importlib
import os
from typing import Any

#: Names of the planted bugs (values of ``REPRO_CHECK_CANARY``).
CANARY_GHOST = "ghost"
CANARY_DOUBLE_TAKE = "double_take"
CANARY_LEASE_LEAK = "lease_leak"
CANARY_DOUBLE_CLAIM = "double_claim"
CANARY_SPLIT_VOTE = "split_vote"


def canary(name: str) -> bool:
    """Whether the named planted bug is switched on via the environment.

    Read at *object construction time* by the host modules, so a test can
    set ``REPRO_CHECK_CANARY`` before building a scenario and unset it
    afterwards without leaking into other tests.
    """
    return os.environ.get("REPRO_CHECK_CANARY", "") == name


__all__ = [
    "canary",
    "oracles",
    "explorer",
    "shrink",
    "differential",
    "InvariantMonitor",
    "Violation",
    "Explorer",
    "ExploreResult",
    "CheckReport",
    "shrink_violation",
    "run_differential",
]

_LAZY_MODULES = {"oracles", "explorer", "shrink", "differential"}
_LAZY_ATTRS = {
    "InvariantMonitor": ("repro.check.oracles", "InvariantMonitor"),
    "Violation": ("repro.check.oracles", "Violation"),
    "Explorer": ("repro.check.explorer", "Explorer"),
    "ExploreResult": ("repro.check.explorer", "ExploreResult"),
    "CheckReport": ("repro.check.shrink", "CheckReport"),
    "shrink_violation": ("repro.check.shrink", "shrink_violation"),
    "run_differential": ("repro.check.differential", "run_differential"),
}


def __getattr__(name: str) -> Any:
    if name in _LAZY_MODULES:
        return importlib.import_module(f"repro.check.{name}")
    target = _LAZY_ATTRS.get(name)
    if target is not None:
        module = importlib.import_module(target[0])
        return getattr(module, target[1])
    raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
