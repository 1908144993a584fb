"""Turn a :class:`~repro.campaign.spec.RunSpec` into a live scenario.

One builder per matrix axis value, composed: the *architecture x
mobility* pair picks the world/cloud construction — the shared
Fig. 4 builders of :mod:`repro.chaos.scenarios` (parked fleet,
elected-captain highway or Manhattan fleet, RSU-anchored highway),
plus a datacenter tier behind a WAN backhaul for the tiered
architecture — the *workload* attaches traffic (batch tasks + storage
churn, the protected serving gateway under open-loop load, or the
dependable DAG scheduler), and the *fault profile* maps to the cell's
fault plans (:func:`fault_plans`): a seeded
:class:`~repro.chaos.generator.ChaosProfile` grammar against the fleet,
or a WAN schedule against the backhaul.

Campaign cells are therefore built by the same code as the chaos
suite's scenarios and run through the same loop
(:func:`repro.chaos.runner.run_scenario`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..chaos.generator import ChaosProfile, generate_plan
from ..chaos.invariants import DagConservation, ServingConservation, TierConservation
from ..chaos.runner import Scenario
from ..chaos.scenarios import (
    build_dynamic,
    build_infrastructure,
    build_stationary,
    storage_workload,
    task_stream,
)
from ..faults.plan import FaultPlan
from ..infra.central_cloud import CentralCloud
from ..tier import (
    BackhaulLink,
    CentralCloudTier,
    TieredOffloader,
    TierTopology,
    VCloudTier,
)
from ..core import BacklogEstimator, Task
from ..dag import (
    DagScheduler,
    RedundancyPlanner,
    ReliabilityEstimator,
    map_reduce_template,
    pipeline_template,
)
from ..serve import (
    CircuitBreakerBoard,
    CompositeAdmission,
    DeadlineFeasibilityAdmission,
    DeadlineLapseShedder,
    HedgePolicy,
    PoissonArrivals,
    QueueDelayShedder,
    ServiceGateway,
    TenantFairShareAdmission,
    TenantSpec,
    WorkloadGenerator,
)
from ..sim.metrics import percentile
from .spec import RunSpec

#: Blended mean task size of the serving tenant mix (70% bulk @200 MI +
#: 30% interactive @150 MI) — sizes the open-loop rate off capacity.
MEAN_WORK_MI = 185.0

#: Sim-seconds the mobile architectures get to form membership before
#: the serving workload sizes its open-loop rate off actual capacity.
SERVING_SETTLE_S = 3.0

#: Fault-profile names -> seeded chaos grammars.  ``None`` means no
#: member-level injector is armed; "light"/"heavy" differ in fault
#: density.  "backhaul" also maps to ``None`` here — its faults target
#: the WAN link through :func:`backhaul_fault_plan`, not the fleet.
FAULT_PROFILE_TABLE: Dict[str, Optional[ChaosProfile]] = {
    "none": None,
    "light": ChaosProfile(mean_interval_s=12.0, max_faults=24),
    "heavy": ChaosProfile(mean_interval_s=5.0, max_faults=48),
    "backhaul": None,
}


def backhaul_fault_plan(seed: int, run_length_s: float) -> FaultPlan:
    """The WAN fault schedule for the "backhaul" campaign profile.

    One loss burst, one hard outage and one jitter spike, spread over
    the run proportionally so short smoke cells and long nightly cells
    stress the same phases of the workload.
    """
    plan = FaultPlan(seed)
    window = run_length_s * 0.15
    plan.loss_burst(run_length_s * 0.20, duration_s=window, drop_probability=0.3)
    plan.partition(run_length_s * 0.45, duration_s=window)
    plan.jitter_spike(
        run_length_s * 0.70, duration_s=window, max_extra_delay_s=0.5
    )
    return plan


def fault_plans(
    spec: RunSpec, scenario: Scenario
) -> Tuple[Optional[FaultPlan], Optional[FaultPlan]]:
    """The cell's member-fault plan and WAN-fault plan; None arms nothing."""
    if spec.fault_profile == "backhaul":
        return None, backhaul_fault_plan(spec.world_seed, spec.run_length_s)
    profile = FAULT_PROFILE_TABLE[spec.fault_profile]
    if profile is None:
        return None, None
    return generate_plan(spec.world_seed, spec.run_length_s, scenario.targets(), profile), None


# -- architecture x mobility ------------------------------------------------


def _build_stationary(spec: RunSpec) -> Scenario:
    return build_stationary(
        spec.world_seed, spec.members, hardened=True, cloud_name="campaign-vc"
    )


def _build_tiered(spec: RunSpec) -> Scenario:
    """Stationary local v-cloud + datacenter tier behind a WAN backhaul."""
    base = _build_stationary(spec)
    world = base.world
    central = CentralCloud(world, compute_mips=50_000.0, wan_delay_s=0.0)
    link = BackhaulLink(
        world, "campaign-wan", base_latency_s=0.05, loss_probability=0.02
    )
    topology = TierTopology()
    topology.register(VCloudTier(world, "local", "local", base.cloud))
    topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(world, topology, name="campaign")
    base.offloader = offloader
    base.backhaul_link = link
    base.invariants.append(TierConservation(offloader))

    def vector() -> Dict[str, float]:
        stats = offloader.stats
        wan = link.accounting()
        return {
            "tier/submitted": float(stats.submitted),
            "tier/completed": float(stats.completed),
            "tier/failed": float(stats.failed),
            "tier/deadline_hit_rate": stats.deadline_hit_rate(),
            "tier/speculated": float(stats.speculated),
            "tier/degraded": float(sum(stats.degraded.values())),
            "tier/wins_local": float(stats.wins_by_tier.get("local", 0)),
            "tier/wins_remote": float(stats.wins_by_tier.get("central", 0)),
            "tier/backhaul_sent": float(wan["sent"]),
            "tier/backhaul_lost": float(wan["lost"]),
        }

    base.vector_sources.append(vector)
    return base


_ARCHITECTURE_BUILDERS: Dict[str, Callable[[RunSpec], Scenario]] = {
    "stationary": _build_stationary,
    "dynamic": lambda spec: build_dynamic(
        spec.world_seed, spec.members, hardened=True, mobility=spec.mobility
    ),
    "infrastructure": lambda spec: build_infrastructure(
        spec.world_seed, spec.members, hardened=True
    ),
    "tiered": _build_tiered,
}


# -- workloads ---------------------------------------------------------------


def _attach_tasks(spec: RunSpec, scenario: Scenario) -> None:
    """Batch task stream + storage read/write churn (the chaos workload).

    On the tiered architecture the stream routes through the
    :class:`~repro.tier.TieredOffloader` as deadline-bearing speculative
    tasks, so campaign cells exercise the same submit path E20 measures;
    everywhere else it submits straight to the cloud.
    """
    count = max(4, int(spec.run_length_s // 3))
    offloader = scenario.offloader
    if offloader is None:
        records = task_stream(
            scenario.world, scenario.cloud, count=count, work_mi=2000.0
        )

        def vector() -> Dict[str, float]:
            stats = scenario.cloud.stats
            submitted = float(stats.submitted)
            return {
                "tasks/submitted": submitted,
                "tasks/completed": float(stats.completed),
                "tasks/failed": float(stats.failed),
                "tasks/completion_rate": (
                    stats.completed / submitted if submitted else 0.0
                ),
                "tasks/records": float(len(records)),
                "storage/degraded": float(stats.storage_degraded),
            }

    else:
        deadline_s = spec.run_length_s * 0.75
        for index in range(count):
            scenario.world.engine.schedule_at(
                1.0 + index * 2.0,
                lambda: offloader.submit(
                    Task(work_mi=2000.0, deadline_s=deadline_s, submitter="campaign"),
                    policy="speculate",
                ),
                label="campaign-tier-task",
            )

        def vector() -> Dict[str, float]:
            stats = offloader.stats
            submitted = float(stats.submitted)
            return {
                "tasks/submitted": submitted,
                "tasks/completed": float(stats.completed),
                "tasks/failed": float(stats.failed),
                "tasks/completion_rate": (
                    stats.completed / submitted if submitted else 0.0
                ),
                "tasks/records": submitted,
                "storage/degraded": float(scenario.cloud.stats.storage_degraded),
            }

    storage_workload(scenario.world, scenario.cloud)
    scenario.vector_sources.append(vector)


def _attach_serving(spec: RunSpec, scenario: Scenario) -> None:
    """Protected gateway under an open-loop tenant mix at ``load_factor``.

    On the tiered architecture the gateway routes through ``tiering=``
    (cross-tier speculation) instead of same-tier hedging — the two are
    mutually exclusive by construction.
    """
    world = scenario.world
    gateway = ServiceGateway(
        world,
        scenario.cloud,
        name="campaign",
        queue_capacity=32,
        admission=CompositeAdmission([
            DeadlineFeasibilityAdmission(),
            TenantFairShareAdmission(share=0.7),
        ]),
        shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
        breakers=CircuitBreakerBoard(world, "campaign"),
        hedging=None if scenario.offloader is not None else HedgePolicy(),
        tiering=scenario.offloader,
        backlog=BacklogEstimator(scenario.cloud),
    )
    horizon_s = max(1.0, spec.run_length_s - SERVING_SETTLE_S)

    def start_traffic() -> None:
        # Rate sized off the *actual* admitted capacity so the same
        # load factor means the same pressure on every architecture.
        capacity_tasks_s = max(
            0.5, gateway.aggregate_capacity_mips() / MEAN_WORK_MI
        )
        rate = spec.load_factor * capacity_tasks_s
        tenants = [
            TenantSpec(
                name="bulk",
                arrivals=PoissonArrivals(rate * 0.7),
                work_mi_range=(150.0, 250.0),
                deadline_s=8.0,
                priority=2,
            ),
            TenantSpec(
                name="interactive",
                arrivals=PoissonArrivals(rate * 0.3),
                work_mi_range=(100.0, 200.0),
                deadline_s=6.0,
                priority=1,
            ),
        ]
        WorkloadGenerator(world, gateway, tenants, horizon_s=horizon_s).start()

    world.engine.schedule_at(
        SERVING_SETTLE_S, start_traffic, label="campaign-serving-start"
    )

    def vector() -> Dict[str, float]:
        stats = gateway.stats
        terminal = stats.completed + stats.failed + stats.shed
        latencies = sorted(stats.latencies_s)
        return {
            "serve/offered": float(stats.offered),
            "serve/admitted": float(stats.admitted),
            "serve/rejected": float(stats.rejected),
            "serve/shed": float(stats.shed),
            "serve/completed": float(stats.completed),
            "serve/failed": float(stats.failed),
            "serve/goodput_per_s": stats.slo_hits / horizon_s,
            "serve/deadline_hit_rate": (
                stats.slo_hits / terminal if terminal else 0.0
            ),
            "serve/p50_latency_s": percentile(latencies, 0.50) if latencies else 0.0,
            "serve/p99_latency_s": percentile(latencies, 0.99) if latencies else 0.0,
            "serve/hedges_launched": float(stats.hedges_launched),
        }

    scenario.gateway = gateway
    scenario.invariants.append(ServingConservation(gateway))
    scenario.vector_sources.append(vector)


def _attach_dag(spec: RunSpec, scenario: Scenario) -> None:
    """Dependable DAG stream: redundancy, checkpointing, backlog-aware."""
    world = scenario.world
    scheduler = DagScheduler(
        world,
        scenario.cloud,
        name="campaign",
        reliability=ReliabilityEstimator(scenario.cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
        checkpointing=True,
        backlog=BacklogEstimator(scenario.cloud),
    )
    deadline_s = max(20.0, spec.run_length_s * 0.75)
    templates = [
        pipeline_template([(300.0, 600.0)] * 3, deadline_s=deadline_s),
        map_reduce_template(3, (200.0, 450.0), (300.0, 500.0), deadline_s=deadline_s),
    ]
    rng = world.rng.fork("campaign/dag")
    gap_s = max(2.0, spec.run_length_s / max(1, spec.graph_count) * 0.5)
    for index in range(spec.graph_count):
        template = templates[index % len(templates)]
        world.engine.schedule_at(
            1.0 + index * gap_s,
            lambda t=template: scheduler.submit(
                t.instantiate(rng, submitter="campaign")
            ),
            label="campaign-graph-submit",
        )

    def vector() -> Dict[str, float]:
        stats = scheduler.stats
        judged = stats.deadline_hits + stats.deadline_misses
        return {
            "dag/graphs_submitted": float(stats.graphs_submitted),
            "dag/graphs_completed": float(stats.graphs_completed),
            "dag/graphs_failed": float(stats.graphs_failed),
            "dag/deadline_hit_rate": (
                stats.deadline_hits / judged if judged else 0.0
            ),
            "dag/stages_completed": float(stats.stages_completed),
            "dag/stages_reexecuted": float(stats.stages_reexecuted),
            "dag/replicas_cancelled": float(stats.replicas_cancelled),
            "dag/replicas_load_shed": float(stats.replicas_load_shed),
            "dag/checkpoint_writes": float(stats.checkpoint_writes),
        }

    scenario.dag_scheduler = scheduler
    scenario.invariants.append(DagConservation(scheduler))
    scenario.vector_sources.append(vector)


_WORKLOAD_BUILDERS: Dict[str, Callable[[RunSpec, Scenario], None]] = {
    "tasks": _attach_tasks,
    "serving": _attach_serving,
    "dag": _attach_dag,
}


def build_scenario(spec: RunSpec) -> Scenario:
    """Compose the architecture and workload builders for one cell."""
    scenario = _ARCHITECTURE_BUILDERS[spec.architecture](spec)
    _WORKLOAD_BUILDERS[spec.workload](spec, scenario)
    return scenario


__all__: Sequence[str] = (
    "FAULT_PROFILE_TABLE",
    "MEAN_WORK_MI",
    "SERVING_SETTLE_S",
    "backhaul_fault_plan",
    "build_scenario",
    "fault_plans",
)
