"""Experiment E17 — dependable DAG execution under member churn.

The paper's dependability chapter (§V.A) asks v-clouds to keep
delivering results "even under attacks or failures of sub-components".
E11 established that lease-based recovery keeps *individual* tasks
alive; this experiment raises the stakes to multi-stage task graphs
with deadlines, where a single lost stage can strand a whole workflow.
Three DAG execution configurations run on the same cloud, under the
same seeded crash schedules (the E11 fault profile — same member
count, crash counts, plan seed and recovery backoff; the crash window
is stretched across the longer DAG horizon):

* **sequential (naive)** — stages run one at a time in topological
  order, one replica each, no checkpointing: the simplest possible DAG
  runner.  Its long critical path leaves almost no deadline slack, so
  any crash-induced re-execution or loss of a fast worker is fatal.
* **parallel** — the :class:`~repro.dag.scheduler.DagScheduler`
  frontier-parallel, but still one replica per stage and no
  checkpointing.
* **dependable** — parallel plus reliability-aware redundancy
  (replicas added while the predicted stage completion probability is
  below target, first-result-wins, losers cancelled) and stage outputs
  checkpointed into the replicated quorum store so churn re-executes
  only the lost frontier.

The substrate is deliberately checkpoint-free at the *task* level
(:class:`~repro.core.handover.DropPolicy`: a crashed worker's progress
is lost, the cloud re-queues from zero after lease detection) — the
regime where DAG-level redundancy and output checkpointing must carry
the dependability story on their own.

* **E17a** — crash-intensity sweep: graph deadline-hit-rate,
  completion rate and recovery effort per configuration.  Acceptance:
  dependable achieves at least twice the naive sequential
  deadline-hit-rate under heavy (>= 1/3) churn.
* **E17b** — the dependable configuration on a mobile (dynamic)
  architecture, where churn comes from vehicles drifting apart rather
  than injected crashes.
* **E17c** — dependability of the mechanism itself: byte-identical
  seeded replays, and zero conservation-invariant violations
  (:class:`~repro.chaos.invariants.DagConservation` +
  :class:`~repro.chaos.invariants.TaskConservation`) while the chaos
  schedule is live.
* **E17d** — DAG jobs offered through the serving gateway
  (:meth:`~repro.serve.gateway.ServiceGateway.submit_graph`) next to a
  scalar request stream, under member crashes: every graph the gateway
  offers is counted completed or failed there, and the scalar stream
  is served alongside.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.chaos.invariants import (
    DagConservation,
    InvariantSuite,
    ServingConservation,
    TaskConservation,
)
from repro.core import (
    BackoffPolicy,
    DynamicVCloud,
    ResourceOffer,
    VehicularCloud,
)
from repro.core.handover import DropPolicy
from repro.dag import (
    DagScheduler,
    GraphState,
    RedundancyPlanner,
    ReliabilityEstimator,
    StageSpec,
    TaskGraph,
    chain,
    map_reduce_template,
)
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.mobility import StationaryModel
from repro.serve import (
    DeadlineLapseShedder,
    PoissonArrivals,
    ServiceGateway,
    TenantSpec,
    WorkloadGenerator,
)
from repro.sim import ScenarioConfig, World

from helpers import highway_world

# The E11 fault profile: same member count, same crash counts per
# intensity, same plan seed, same recovery backoff.  Only the crash
# window differs — E11's (10, 45) is stretched to cover the longer
# horizon DAG workloads need, keeping crashes spread across the run.
MEMBERS = 12
INTENSITIES = (0.0, 1 / 6, 1 / 3, 1 / 2)
PLAN_SEED = 1111
CRASH_WINDOW = (10.0, 160.0)
RECOVERY_BACKOFF = BackoffPolicy(
    base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
)

GRAPHS = 6
SUBMIT_SPACING_S = 30.0
MAP_FANOUT = 3
MAP_WORK_MI = 3600.0
REDUCE_WORK_MI = 2400.0
PUBLISH_WORK_MI = 1600.0
# ~1.3x the parallel critical path; the sequential baseline's chained
# stages land just inside it on a healthy cloud and outside it as soon
# as churn forces a re-execution or evicts a fast worker.
DEADLINE_S = 100.0
HORIZON_S = 450.0

CONFIGS = ("dependable", "parallel", "sequential")


def _bench_graph(index: int) -> TaskGraph:
    """A map-reduce-publish graph: 3 mappers -> reduce -> publish."""
    stages = [StageSpec(f"map{m}", MAP_WORK_MI) for m in range(MAP_FANOUT)]
    stages.append(
        StageSpec(
            "reduce",
            REDUCE_WORK_MI,
            deps=tuple(f"map{m}" for m in range(MAP_FANOUT)),
        )
    )
    stages.append(StageSpec("publish", PUBLISH_WORK_MI, deps=("reduce",)))
    return TaskGraph(stages, deadline_s=DEADLINE_S, submitter=f"bench-{index}")


# ---------------------------------------------------------------------------
# E17a — crash intensity vs DAG execution configuration
# ---------------------------------------------------------------------------


def _run_dag_scenario(intensity: float, config: str, seed: int = 1701):
    """A controlled stationary cloud running DAGs under seeded crashes.

    Every configuration gets the identical substrate — heterogeneous
    workers (so replica runtimes diverge and first-result-wins has
    losers to cancel), leases, retry backoff, progress-dropping
    handover and replicated storage — and the identical crash
    schedule; only the scheduler's execution strategy differs.
    """
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(
        world,
        "dag-sweep-vc",
        handover_policy=DropPolicy(),
        retry_backoff=RECOVERY_BACKOFF,
    )
    for index, vehicle in enumerate(vehicles):
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, 120.0 + 3.0 * index, 10**9, 1e6),
        )
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(capacity_bytes=10**8)

    if config == "dependable":
        scheduler = DagScheduler(
            world,
            cloud,
            name="dependable",
            reliability=ReliabilityEstimator(cloud),
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=2),
            checkpointing=True,
        )
    elif config == "parallel":
        scheduler = DagScheduler(world, cloud, name="parallel")
    else:
        scheduler = DagScheduler(world, cloud, name="sequential", sequential=True)

    for index in range(GRAPHS):
        graph = _bench_graph(index)
        world.engine.schedule_at(
            index * SUBMIT_SPACING_S,
            lambda g=graph: scheduler.submit(g),
            label="graph-submit",
        )

    targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
    plan = FaultPlan(PLAN_SEED).random_crashes(
        round(intensity * MEMBERS), CRASH_WINDOW, targets=targets
    )
    FaultInjector(world, plan, cloud=cloud).arm()

    suite = InvariantSuite(
        [TaskConservation(cloud), DagConservation(scheduler)], metrics=world.metrics
    )
    suite.attach(world, check_interval_s=1.0)
    world.run_for(HORIZON_S)

    stats = scheduler.stats
    latencies = sorted(stats.graph_latencies_s)
    return {
        "deadline_hit_rate": stats.deadline_hit_rate,
        "completion_rate": stats.completion_rate,
        "graphs_completed": stats.graphs_completed,
        "graphs_failed": stats.graphs_failed,
        "failure_reasons": dict(stats.failure_reasons),
        "graph_restarts": stats.graph_restarts,
        "stages_reexecuted": stats.stages_reexecuted,
        "redundant_dispatches": stats.redundant_dispatches,
        "replicas_cancelled": stats.replicas_cancelled,
        "checkpoint_writes": stats.checkpoint_writes,
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else float("inf"),
        "latencies_s": tuple(latencies),
        "stuck": sum(1 for r in scheduler.records if r.state is GraphState.RUNNING),
        "violations": len(suite.violations),
        "invariant_checks": suite.checks_run,
        "crashes": cloud.stats.worker_crashes,
        "accounting": scheduler.accounting(),
        "counters": sorted(world.metrics.counters.items()),
    }


@pytest.fixture(scope="module")
def dag_sweep():
    sweep = {}
    for intensity in INTENSITIES:
        sweep[intensity] = {
            config: _run_dag_scenario(intensity, config) for config in CONFIGS
        }
    return sweep


def test_bench_dag_sweep_table(dag_sweep, record_table, record_run_json, benchmark):
    rows = []
    for intensity in INTENSITIES:
        for config in CONFIGS:
            row = dag_sweep[intensity][config]
            record_run_json(
                "E17_dag_dependability",
                f"sweep/{intensity:.0%}/{config}",
                {
                    "deadline_hit_rate": row["deadline_hit_rate"],
                    "completion_rate": row["completion_rate"],
                    "mean_latency_s": row["mean_latency_s"],
                    "stages_reexecuted": row["stages_reexecuted"],
                    "redundant_dispatches": row["redundant_dispatches"],
                    "replicas_cancelled": row["replicas_cancelled"],
                    "violations": row["violations"],
                },
                config={"intensity": intensity, "config": config},
            )
            rows.append(
                [
                    f"{intensity:.0%}",
                    config,
                    row["deadline_hit_rate"],
                    row["completion_rate"],
                    row["mean_latency_s"],
                    row["stages_reexecuted"],
                    row["redundant_dispatches"],
                    row["replicas_cancelled"],
                ]
            )
    table = render_table(
        [
            "crash intensity",
            "config",
            "deadline hits",
            "completion",
            "mean latency (s)",
            "stages re-run",
            "redundant dispatches",
            "replicas cancelled",
        ],
        rows,
        title="E17a — DAG deadline hits vs crash intensity (graph deadline "
        f"{DEADLINE_S:.0f}s)",
    )
    record_table("E17_dag_dependability", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_dependable_never_worse(dag_sweep, benchmark):
    for intensity in INTENSITIES:
        sweep = dag_sweep[intensity]
        for baseline in ("parallel", "sequential"):
            assert (
                sweep["dependable"]["deadline_hit_rate"]
                >= sweep[baseline]["deadline_hit_rate"]
            ), f"intensity {intensity} vs {baseline}"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_dependable_doubles_deadline_hits_under_heavy_churn(dag_sweep, benchmark):
    """Acceptance: >= 2x the naive deadline-hit-rate at >= 1/3 churn."""
    doubled = False
    for intensity in (i for i in INTENSITIES if i >= 1 / 3):
        sweep = dag_sweep[intensity]
        dependable = sweep["dependable"]["deadline_hit_rate"]
        naive = sweep["sequential"]["deadline_hit_rate"]
        assert dependable > 0.0, f"intensity {intensity}"
        if dependable >= 2.0 * max(naive, 1e-9):
            doubled = True
    assert doubled, "dependable never reached 2x the naive deadline-hit-rate"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_naive_collapses_under_churn_but_not_when_healthy(dag_sweep, benchmark):
    """The baseline is viable on a healthy cloud — churn is what kills it."""
    assert dag_sweep[0.0]["sequential"]["deadline_hit_rate"] == 1.0
    assert dag_sweep[1 / 3]["sequential"]["deadline_hit_rate"] <= 0.5
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_every_graph_reaches_typed_terminal_state(dag_sweep, benchmark):
    """No graph may be silently stuck; every failure carries a typed reason."""
    for intensity in INTENSITIES:
        for config in CONFIGS:
            row = dag_sweep[intensity][config]
            assert row["stuck"] == 0, (intensity, config)
            assert sum(row["failure_reasons"].values()) == row["graphs_failed"], (
                intensity,
                config,
            )
            assert row["accounting"]["replicas_live"] == 0, (intensity, config)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_redundancy_and_checkpointing_actually_engage(dag_sweep, benchmark):
    """The headline numbers must come from the mechanisms under test."""
    heavy = dag_sweep[1 / 2]["dependable"]
    assert heavy["crashes"] > 0
    assert heavy["redundant_dispatches"] > 0
    assert heavy["replicas_cancelled"] > 0
    assert heavy["checkpoint_writes"] > 0
    for baseline in ("parallel", "sequential"):
        assert dag_sweep[1 / 2][baseline]["redundant_dispatches"] == 0
        assert dag_sweep[1 / 2][baseline]["checkpoint_writes"] == 0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E17b — dependable DAGs on a mobile architecture
# ---------------------------------------------------------------------------

MOBILE_GRAPHS = 6
MOBILE_STAGE_WORKS = (500.0, 600.0)
MOBILE_DEADLINE_S = 60.0


def _run_mobile_dag(seed: int):
    """The dependable configuration on a dynamic (moving) v-cloud."""
    reset_global_ids()
    world, model, _highway = highway_world(seed, vehicle_count=30, length_m=3000)
    arch = DynamicVCloud(world, model)
    arch.start()
    cloud = arch.cloud
    cloud.retry_backoff = RECOVERY_BACKOFF
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(capacity_bytes=10**8)
    scheduler = DagScheduler(
        world,
        cloud,
        name="mobile",
        reliability=ReliabilityEstimator(cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
        checkpointing=True,
    )
    suite = InvariantSuite(
        [TaskConservation(cloud), DagConservation(scheduler)], metrics=world.metrics
    )
    suite.attach(world, check_interval_s=1.0)
    for index in range(MOBILE_GRAPHS):
        graph = chain(
            MOBILE_STAGE_WORKS, deadline_s=MOBILE_DEADLINE_S, submitter=f"mobile-{index}"
        )
        world.engine.schedule_at(
            index * 4.0,
            lambda g=graph: scheduler.submit(g),
            label="graph-submit",
        )
    world.run_for(150.0)
    stats = scheduler.stats
    return {
        "deadline_hit_rate": stats.deadline_hit_rate,
        "completion_rate": stats.completion_rate,
        "graphs_completed": stats.graphs_completed,
        "graphs_failed": stats.graphs_failed,
        "stages_reexecuted": stats.stages_reexecuted,
        "redundant_dispatches": stats.redundant_dispatches,
        "membership_leaves": cloud.membership.leaves,
        "stuck": sum(1 for r in scheduler.records if r.state is GraphState.RUNNING),
        "violations": len(suite.violations),
    }


@pytest.fixture(scope="module")
def mobile_result():
    return _run_mobile_dag(1702)


def test_bench_mobile_dag_table(mobile_result, record_table, record_run_json, benchmark):
    record_run_json(
        "E17_dag_dependability",
        "mobile/dynamic",
        {
            "deadline_hit_rate": mobile_result["deadline_hit_rate"],
            "completion_rate": mobile_result["completion_rate"],
            "stages_reexecuted": mobile_result["stages_reexecuted"],
            "redundant_dispatches": mobile_result["redundant_dispatches"],
            "membership_leaves": mobile_result["membership_leaves"],
            "violations": mobile_result["violations"],
        },
        seed=1702,
        config={"architecture": "dynamic", "churn": "natural mobility"},
    )
    table = render_table(
        [
            "architecture",
            "churn source",
            "deadline hits",
            "completion",
            "stages re-run",
            "redundant dispatches",
            "membership leaves",
        ],
        [
            [
                "dynamic",
                "natural mobility",
                mobile_result["deadline_hit_rate"],
                mobile_result["completion_rate"],
                mobile_result["stages_reexecuted"],
                mobile_result["redundant_dispatches"],
                mobile_result["membership_leaves"],
            ]
        ],
        title="E17b — dependable DAGs on a mobile architecture",
    )
    record_table("E17_dag_dependability", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_mobile_dags_survive_natural_churn(mobile_result, benchmark):
    assert mobile_result["completion_rate"] > 0.0
    assert mobile_result["stuck"] == 0
    assert mobile_result["violations"] == 0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E17c — dependability of the mechanism itself
# ---------------------------------------------------------------------------


def test_dag_runs_are_byte_identical(benchmark):
    """Same seed twice => identical accounting, reasons, latencies, metrics."""
    first = _run_dag_scenario(1 / 3, "dependable", seed=1703)
    second = _run_dag_scenario(1 / 3, "dependable", seed=1703)
    assert first == second
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_no_invariant_violations_under_chaos(dag_sweep, benchmark):
    """Conservation holds at every periodic check, in every configuration."""
    for intensity in INTENSITIES:
        for config in CONFIGS:
            row = dag_sweep[intensity][config]
            assert row["invariant_checks"] > 0, (intensity, config)
            assert row["violations"] == 0, (intensity, config)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E17d — DAG jobs through the serving gateway
# ---------------------------------------------------------------------------

GATEWAY_SEED = 1704
GATEWAY_HORIZON_S = 240.0
GATEWAY_DRAIN_S = 160.0
GATEWAY_CRASHES = 4
GATEWAY_CRASH_WINDOW = (20.0, 200.0)


def _run_gateway_dags(seed: int = GATEWAY_SEED):
    """One gateway serving a scalar tenant and a DAG tenant under crashes.

    The E17a substrate (heterogeneous workers, leases, retry backoff,
    progress-dropping handover) behind a paced gateway with ``dag=``
    attached.  The graph tenant's jobs enter through ``submit_graph``
    and race reliability-planned replicas; their stage outputs stay on
    the worker that produced them, so a crash can cost re-executed
    stages.  The scalar tenant's requests queue at the gateway, four
    dispatches at a time, and compete for the same workers.  Some
    graphs miss their deadline and some queued requests lapse.
    """
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(
        world,
        "dag-gateway-vc",
        handover_policy=DropPolicy(),
        retry_backoff=RECOVERY_BACKOFF,
    )
    for index, vehicle in enumerate(vehicles):
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, 120.0 + 3.0 * index, 10**9, 1e6),
        )
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    scheduler = DagScheduler(
        world,
        cloud,
        name="gateway-dag",
        reliability=ReliabilityEstimator(cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=2),
    )
    gateway = ServiceGateway(
        world,
        cloud,
        name="e17d",
        queue_capacity=16,
        shedders=[DeadlineLapseShedder()],
        max_dispatch_concurrency=4,
        dag=scheduler,
    )
    tenants = [
        TenantSpec(
            name="scalar",
            arrivals=PoissonArrivals(0.8),
            work_mi_range=(300.0, 900.0),
            deadline_s=20.0,
        ),
        TenantSpec(
            name="graphs",
            arrivals=PoissonArrivals(1 / 20.0),
            graph=map_reduce_template(
                MAP_FANOUT, (2400.0, 3600.0), (1600.0, 2400.0), deadline_s=70.0
            ),
        ),
    ]
    WorkloadGenerator(world, gateway, tenants, horizon_s=GATEWAY_HORIZON_S).start()
    targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
    plan = FaultPlan(PLAN_SEED).random_crashes(
        GATEWAY_CRASHES, GATEWAY_CRASH_WINDOW, targets=targets
    )
    FaultInjector(world, plan, cloud=cloud).arm()
    suite = InvariantSuite(
        [TaskConservation(cloud), DagConservation(scheduler), ServingConservation(gateway)],
        metrics=world.metrics,
    )
    suite.attach(world, check_interval_s=1.0)
    world.run_for(GATEWAY_HORIZON_S + GATEWAY_DRAIN_S)

    stats = gateway.stats
    return {
        "graphs_offered": stats.graphs_offered,
        "graphs_completed": stats.graphs_completed,
        "graphs_failed": stats.graphs_failed,
        "graphs_submitted": scheduler.stats.graphs_submitted,
        "graph_failure_reasons": dict(scheduler.stats.failure_reasons),
        "stages_reexecuted": scheduler.stats.stages_reexecuted,
        "replicas_cancelled": scheduler.stats.replicas_cancelled,
        "scalar_completed": stats.completed,
        "scalar_shed": stats.shed,
        "scalar_failed": stats.failed,
        "crashes": cloud.stats.worker_crashes,
        "violations": len(suite.violations),
        "invariant_checks": suite.checks_run,
        "counters": sorted(world.metrics.counters.items()),
    }


@pytest.fixture(scope="module")
def gateway_dags():
    return _run_gateway_dags()


def test_bench_gateway_dag_table(gateway_dags, record_table, record_run_json, benchmark):
    row = gateway_dags
    record_run_json(
        "E17_dag_dependability",
        "gateway/dag+scalar",
        {
            "graphs_offered": row["graphs_offered"],
            "graphs_completed": row["graphs_completed"],
            "graphs_failed": row["graphs_failed"],
            "stages_reexecuted": row["stages_reexecuted"],
            "replicas_cancelled": row["replicas_cancelled"],
            "scalar_completed": row["scalar_completed"],
            "scalar_shed": row["scalar_shed"],
        },
        seed=GATEWAY_SEED,
        config={"crashes": GATEWAY_CRASHES, "tenants": "scalar+graphs"},
    )
    table = render_table(
        [
            "graphs offered",
            "graphs completed",
            "graphs failed",
            "stages re-run",
            "replicas cancelled",
            "scalar completed",
            "scalar shed",
        ],
        [
            [
                row["graphs_offered"],
                row["graphs_completed"],
                row["graphs_failed"],
                row["stages_reexecuted"],
                row["replicas_cancelled"],
                row["scalar_completed"],
                row["scalar_shed"],
            ]
        ],
        title=f"E17d — DAG jobs through the serving gateway ({GATEWAY_CRASHES} crashes)",
    )
    record_table("E17_dag_dependability", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_gateway_counts_every_offered_graph(gateway_dags, benchmark):
    """Each graph the gateway offers ends completed or failed there."""
    row = gateway_dags
    assert row["crashes"] > 0
    assert row["graphs_offered"] == row["graphs_submitted"]
    assert row["graphs_completed"] > 0 and row["graphs_failed"] > 0
    assert row["graphs_completed"] + row["graphs_failed"] == row["graphs_offered"]
    assert row["graphs_failed"] == sum(row["graph_failure_reasons"].values())
    assert row["scalar_completed"] > 0
    # Crashes re-run stages, replicas lose races and queued requests lapse.
    assert row["stages_reexecuted"] > 0 and row["replicas_cancelled"] > 0
    assert row["scalar_shed"] > 0
    assert row["invariant_checks"] > 0 and row["violations"] == 0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
