"""The simulated pervasive network substrate.

The paper's model rests on one concept only: **visibility** ("another
instance of Tiamat is considered visible if it can be communicated with in
some way", section 2.2).  This package provides that concept and the
machinery experiments need around it:

* :class:`VisibilityGraph` — the single source of truth for who can talk to
  whom, with change listeners (the hook for the model's *continuous*
  operation-propagation mode).
* :class:`Network` — unicast and multicast message delivery with latency,
  probabilistic loss, byte accounting, and per-node statistics.  Messages
  are only delivered between mutually visible, up nodes.
* Mobility models (:mod:`repro.net.mobility`) — static placements, random
  waypoint, and scripted traces; they move node positions, and
  :class:`RangeVisibilityDriver` converts positions + radio range into
  visibility-graph updates.
* :class:`ChurnInjector` (:mod:`repro.net.churn`) — takes nodes down and up
  on random or scripted schedules, modelling battery death, sleep, and
  departure.
* Fault injection (:mod:`repro.net.faults`) — a :class:`FaultPlan` of
  composable injectors (Gilbert–Elliott burst loss, duplication, bounded
  reordering, payload corruption, one-way links) plus
  :class:`CrashRestartInjector`, which power-cycles whole instances through
  a storage backend.
"""

from repro.net.faults import (
    CorruptPayload,
    CrashRestartInjector,
    DuplicateFrames,
    FaultInjector,
    FaultPlan,
    GilbertElliottLoss,
    OneWayLink,
    RandomLoss,
    ReorderFrames,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkInterface
from repro.net.visibility import VisibilityGraph
from repro.net.mobility import (
    Position,
    RandomWaypointMobility,
    RangeVisibilityDriver,
    StaticPlacement,
    WaypointTrace,
)
from repro.net.churn import ChurnInjector
from repro.net.stats import NetworkStats, NodeStats
from repro.net.reachability import MultiHopVisibilityDriver

__all__ = [
    "ChurnInjector",
    "CorruptPayload",
    "CrashRestartInjector",
    "DuplicateFrames",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliottLoss",
    "MultiHopVisibilityDriver",
    "OneWayLink",
    "RandomLoss",
    "ReorderFrames",
    "Message",
    "Network",
    "NetworkInterface",
    "NetworkStats",
    "NodeStats",
    "Position",
    "RandomWaypointMobility",
    "RangeVisibilityDriver",
    "StaticPlacement",
    "VisibilityGraph",
    "WaypointTrace",
]
