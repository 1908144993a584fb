"""Chaos harness: randomized fault campaigns with invariant checking.

The paper's dependability section (§V.A) demands that a vehicular cloud
"operate normally even under attacks or failures of sub-components".
Hand-written fault schedules (experiment E11) probe *chosen* failure
modes; this package probes *unchosen* ones:

* :mod:`.generator` samples seeded, randomized fault campaigns from a
  weighted grammar over every fault family, scaled to world size and
  run length;
* :mod:`.invariants` defines cross-subsystem safety invariants (task
  conservation, lease exclusivity, single-head, quorum safety,
  membership agreement, channel conservation, stranded tasks, DAG
  conservation) checked continuously while faults fire;
* :mod:`.runner` holds the one run loop chaos and campaign runs share
  (:func:`run_scenario`: arm the fault plans, check the invariants
  while the world runs), executes seeded campaigns and, on violation,
  captures a reproducer bundle and delta-debugs (:mod:`.minimize`) the
  fault schedule down to a minimal failing subset that replays
  deterministically from the recorded seed;
* :mod:`.scenarios` holds the one builder per Fig. 4 architecture
  (hardened or deliberately weakened) that chaos and campaign runs
  share, and the chaos workload on top of it.

Quick start::

    from repro.chaos import ChaosRunner, stationary_scenario

    runner = ChaosRunner(stationary_scenario, run_length_s=60.0)
    campaign = runner.run_campaign(range(20))
    if campaign.failing_seeds:
        bundle = runner.capture_reproducer(campaign.failing_seeds[0])
        print(bundle.describe())
"""

from .bundle import ReproducerBundle
from .generator import (
    DEFAULT_WEIGHTS,
    ChaosProfile,
    ChaosTargets,
    campaign_size,
    generate_plan,
)
from .invariants import (
    ChannelConservation,
    ClusterExclusivity,
    DagConservation,
    Invariant,
    InvariantSuite,
    LeaseExclusivity,
    MembershipAgreement,
    QuorumSafety,
    ServingConservation,
    SingleHead,
    StrandedTasks,
    TaskConservation,
    TierConservation,
    Violation,
)
from .minimize import ddmin
from .runner import (
    CampaignResult,
    ChaosRunner,
    RunResult,
    Scenario,
    ScenarioFactory,
    ScenarioRun,
    run_scenario,
)
from .scenarios import (
    CHAOS_BACKOFF,
    build_dynamic,
    build_infrastructure,
    build_stationary,
    dynamic_scenario,
    infrastructure_scenario,
    stationary_scenario,
)

__all__ = [
    "CampaignResult",
    "CHAOS_BACKOFF",
    "ChannelConservation",
    "ChaosProfile",
    "ChaosRunner",
    "ChaosTargets",
    "ClusterExclusivity",
    "DagConservation",
    "DEFAULT_WEIGHTS",
    "Invariant",
    "InvariantSuite",
    "LeaseExclusivity",
    "MembershipAgreement",
    "QuorumSafety",
    "ReproducerBundle",
    "RunResult",
    "Scenario",
    "ScenarioFactory",
    "ScenarioRun",
    "ServingConservation",
    "SingleHead",
    "StrandedTasks",
    "TaskConservation",
    "TierConservation",
    "Violation",
    "build_dynamic",
    "build_infrastructure",
    "build_stationary",
    "campaign_size",
    "ddmin",
    "dynamic_scenario",
    "generate_plan",
    "infrastructure_scenario",
    "run_scenario",
    "stationary_scenario",
]
