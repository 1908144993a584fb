"""Tiered edge↔cloud federation with speculative execution.

The paper's three architectures — dynamic v-clouds, parking-lot
micro-datacenters, RSU-anchored infrastructure clouds — plus the
conventional central cloud, composed into one hierarchy (ROADMAP
item 3):

* :mod:`.topology` — :class:`TierTopology` registers the existing
  layers as execution tiers (``local`` / ``edge`` / ``cloud``); one
  :class:`ExecutionTier` base owns every attempt's dispatch, result and
  cancel path, and each tier adds only its estimates and its executor;
* :mod:`.backhaul` — :class:`BackhaulLink`, the seeded WAN model
  (latency, jitter, loss, outage windows) in front of remote tiers,
  drivable from :class:`~repro.faults.plan.FaultPlan` specs via
  :class:`~repro.faults.backhaul.BackhaulFaultDriver`;
* :mod:`.health` — :class:`TierHealthTracker`, per-tier circuit
  breakers + backlog signals demoting unreachable tiers;
* :mod:`.offloader` — :class:`TieredOffloader`, one submit API with
  ``local_only`` / ``prefer_local`` / ``speculate`` policies;
  speculation runs local and remote replicas simultaneously,
  first-acceptable-result-wins, losers cancelled through the typed
  cancel path, collapsing to local (``backhaul_degraded`` /
  ``no_remote_slack``) when the WAN cannot help.

Benchmark E20 sweeps deadline-hit-rate against backhaul latency, loss
and outage fractions versus single-tier baselines; the tier-1 suite
pins speculation through a mid-run backhaul outage (100% deadline
hits, clean ``TierConservation``), and the campaign's tiered cells
replay it under every fault profile.
"""

from .backhaul import BackhaulLink
from .health import TierHealthTracker
from .offloader import (
    BACKHAUL_DEGRADED,
    NO_REMOTE_SLACK,
    NO_TIER_AVAILABLE,
    POLICIES,
    SpeculativeTask,
    TieredOffloader,
    TierStats,
)
from .topology import (
    BACKHAUL_LOST,
    SPECULATION_CANCELLED,
    TIER_LEVELS,
    CentralCloudTier,
    ExecutionTier,
    TierAttempt,
    TierTopology,
    VCloudTier,
)

__all__ = [
    "BACKHAUL_DEGRADED",
    "BACKHAUL_LOST",
    "BackhaulLink",
    "CentralCloudTier",
    "ExecutionTier",
    "NO_REMOTE_SLACK",
    "NO_TIER_AVAILABLE",
    "POLICIES",
    "SPECULATION_CANCELLED",
    "SpeculativeTask",
    "TIER_LEVELS",
    "TierAttempt",
    "TierHealthTracker",
    "TierStats",
    "TierTopology",
    "TieredOffloader",
    "VCloudTier",
]
