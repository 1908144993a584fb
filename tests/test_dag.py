"""Tests for dependable DAG execution (`repro.dag`)."""

from __future__ import annotations

import itertools

import pytest

from repro.chaos import DagConservation, InvariantSuite, TaskConservation
from repro.core.race import Race
from repro.core import (
    BackoffPolicy,
    BacklogEstimator,
    CheckpointHandoverPolicy,
    ResourceOffer,
    VehicularCloud,
)
from repro.dag import (
    DagScheduler,
    GraphState,
    GraphTemplate,
    RedundancyPlanner,
    ReliabilityEstimator,
    StageSpec,
    StageStatus,
    StageTemplate,
    TaskGraph,
    chain,
    map_reduce_template,
    pipeline_template,
    success_probability,
)
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Vec2
from repro.mobility import SensorKind, StationaryModel

from repro.sim import ScenarioConfig, SeededRng, World


def diamond(deadline_s=None) -> TaskGraph:
    """source -> (left, right) -> sink."""
    return TaskGraph(
        stages=(
            StageSpec(name="source", work_mi=200.0),
            StageSpec(name="left", work_mi=300.0, deps=("source",)),
            StageSpec(name="right", work_mi=400.0, deps=("source",)),
            StageSpec(name="sink", work_mi=200.0, deps=("left", "right")),
        ),
        deadline_s=deadline_s,
    )


def build_cloud(world, members=5, mips=100.0, heterogeneous=False,
                leases=True, storage=True, name="dag-test-vc"):
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0) for i in range(members)]
    )
    vehicles = model.populate(members)
    cloud = VehicularCloud(
        world,
        name,
        handover_policy=CheckpointHandoverPolicy(),
        retry_backoff=BackoffPolicy(
            base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
        ),
    )
    for index, vehicle in enumerate(vehicles):
        rate = mips + (10.0 * index if heterogeneous else 0.0)
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, rate, 10**9, 1e6)
        )
    if leases:
        cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    if storage:
        cloud.enable_replicated_storage(capacity_bytes=10**8)
    return vehicles, cloud


def dependable_scheduler(world, cloud, **kwargs):
    kwargs.setdefault("reliability", ReliabilityEstimator(cloud))
    kwargs.setdefault("redundancy", RedundancyPlanner(target_success=0.95))
    kwargs.setdefault("checkpointing", True)
    return DagScheduler(world, cloud, **kwargs)


class TestTaskGraph:
    def test_validation_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(stages=(
                StageSpec(name="a", work_mi=1.0),
                StageSpec(name="a", work_mi=2.0),
            ))

    def test_validation_rejects_unknown_dep(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(stages=(StageSpec(name="a", work_mi=1.0, deps=("ghost",)),))

    def test_validation_rejects_self_dep(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(stages=(StageSpec(name="a", work_mi=1.0, deps=("a",)),))

    def test_validation_rejects_cycle(self):
        with pytest.raises(ConfigurationError, match="cycle"):
            TaskGraph(stages=(
                StageSpec(name="a", work_mi=1.0, deps=("b",)),
                StageSpec(name="b", work_mi=1.0, deps=("a",)),
            ))

    def test_validation_rejects_empty_and_bad_deadline(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(stages=())
        with pytest.raises(ConfigurationError):
            chain([100.0], deadline_s=0.0)

    def test_topological_order_respects_deps(self):
        graph = diamond()
        order = graph.topological_order()
        assert order[0] == "source"
        assert order[-1] == "sink"
        assert set(order[1:3]) == {"left", "right"}

    def test_structure_queries(self):
        graph = diamond()
        assert graph.roots() == ["source"]
        assert graph.terminals() == ["sink"]
        assert graph.successors("source") == ["left", "right"]
        assert graph.predecessors("sink") == ("left", "right")
        assert graph.total_work_mi == pytest.approx(1100.0)
        # Critical path: source -> right -> sink.
        assert graph.critical_path_mi() == pytest.approx(800.0)

    def test_chain_helper(self):
        graph = chain([100.0, 200.0, 300.0], deadline_s=60.0)
        assert graph.stage_names() == ["s0", "s1", "s2"]
        assert graph.predecessors("s2") == ("s1",)
        assert graph.deadline_s == 60.0

    def test_graph_ids_reset_between_tests(self):
        # The autouse conftest fixture rewinds the counter, so the first
        # graph of any test is graph-1.
        assert chain([1.0]).graph_id == "graph-1"


class TestRedundancyPlanner:
    def test_success_probability_matches_brute_force(self):
        ps = [0.9, 0.6, 0.3]
        for k in (1, 2, 3):
            exact = 0.0
            for outcome in itertools.product([0, 1], repeat=len(ps)):
                weight = 1.0
                for bit, p in zip(outcome, ps):
                    weight *= p if bit else (1.0 - p)
                if sum(outcome) >= k:
                    exact += weight
            assert success_probability(ps, k) == pytest.approx(exact)

    def test_success_probability_edges(self):
        assert success_probability([0.5], 0) == 1.0
        assert success_probability([0.5], 2) == 0.0
        with pytest.raises(ConfigurationError):
            success_probability([1.5], 1)

    def test_planner_grows_until_target(self):
        planner = RedundancyPlanner(target_success=0.95, max_replicas=4)
        plan = planner.plan([0.7, 0.7, 0.7, 0.7])
        # 1 - 0.3^n >= 0.95 needs n = 3.
        assert plan.replicas == 3
        assert plan.predicted_success >= 0.95
        assert plan.redundant

    def test_planner_single_replica_when_reliable(self):
        plan = RedundancyPlanner(target_success=0.95).plan([0.99, 0.98])
        assert plan.replicas == 1
        assert not plan.redundant

    def test_planner_caps_and_best_effort(self):
        plan = RedundancyPlanner(target_success=0.999, max_replicas=2).plan(
            [0.5, 0.5, 0.5]
        )
        assert plan.replicas == 2  # capped, returned anyway
        assert plan.predicted_success < 0.999

    def test_planner_prefers_strongest_candidates(self):
        plan = RedundancyPlanner(target_success=0.9).plan([0.2, 0.95, 0.5])
        assert plan.survival_ps[0] == pytest.approx(0.95)

    def test_planner_empty_candidates(self):
        plan = RedundancyPlanner().plan([])
        assert plan.replicas == 0
        assert plan.predicted_success == 0.0

    def test_planner_validation(self):
        with pytest.raises(ConfigurationError):
            RedundancyPlanner(target_success=1.0)
        with pytest.raises(ConfigurationError):
            RedundancyPlanner(k=0)
        with pytest.raises(ConfigurationError):
            RedundancyPlanner(k=3, max_replicas=2)


class TestReliabilityEstimator:
    def test_prior_hazard_before_any_churn(self, world):
        _v, cloud = build_cloud(world, members=4, leases=False, storage=False)
        estimator = ReliabilityEstimator(cloud, prior_events=1.0, prior_exposure_s=500.0)
        assert estimator.observed_losses() == 0
        assert estimator.churn_hazard_per_s(0.0) == pytest.approx(1.0 / 500.0)

    def test_churn_raises_hazard_and_lowers_survival(self, world):
        vehicles, cloud = build_cloud(world, members=6, leases=False, storage=False)
        estimator = ReliabilityEstimator(cloud)
        before = estimator.survival_probability("w", runtime_s=10.0, now=100.0)
        for vehicle in vehicles[:3]:
            cloud.member_leave(vehicle.vehicle_id)
        after = estimator.survival_probability("w", runtime_s=10.0, now=100.0)
        assert after < before

    def test_longer_runtime_lowers_survival(self, world):
        _v, cloud = build_cloud(world, members=4, leases=False, storage=False)
        estimator = ReliabilityEstimator(cloud)
        short = estimator.survival_probability("w", runtime_s=1.0, now=10.0)
        long = estimator.survival_probability("w", runtime_s=100.0, now=10.0)
        assert long < short

    def test_dwell_shortfall_discounts(self, world):
        _v, cloud = build_cloud(world, members=4, leases=False, storage=False)
        estimator = ReliabilityEstimator(cloud, dwell_safety=1.0)
        ample = estimator.survival_probability(
            "w", runtime_s=10.0, now=0.0, dwell_s=100.0
        )
        tight = estimator.survival_probability(
            "w", runtime_s=10.0, now=0.0, dwell_s=5.0
        )
        assert tight == pytest.approx(ample * 0.5)
        gone = estimator.survival_probability(
            "w", runtime_s=10.0, now=0.0, dwell_s=0.0
        )
        assert gone == 0.0

    def test_validation(self, world):
        _v, cloud = build_cloud(world, members=2, leases=False, storage=False)
        with pytest.raises(ConfigurationError):
            ReliabilityEstimator(cloud, dwell_safety=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityEstimator(cloud).survival_probability("w", -1.0, 0.0)


class TestTemplates:
    def test_pipeline_topology(self):
        template = pipeline_template([(100.0, 200.0)] * 3, deadline_s=30.0)
        graph = template.instantiate(SeededRng(7, "t"))
        assert graph.stage_names() == ["s0", "s1", "s2"]
        assert graph.deadline_s == 30.0
        for spec in graph.stages:
            assert 100.0 <= spec.work_mi <= 200.0

    def test_map_reduce_topology(self):
        template = map_reduce_template(3, (50.0, 60.0), (100.0, 100.0))
        graph = template.instantiate(SeededRng(7, "t"))
        assert graph.roots() == ["map0", "map1", "map2"]
        assert graph.terminals() == ["reduce"]
        assert graph.stage("reduce").work_mi == 100.0

    def test_instantiate_is_seed_deterministic(self):
        template = pipeline_template([(100.0, 500.0)] * 4)
        a = template.instantiate(SeededRng(11, "x"))
        b = template.instantiate(SeededRng(11, "x"))
        assert [s.work_mi for s in a.stages] == [s.work_mi for s in b.stages]

    def test_template_validation(self):
        with pytest.raises(ConfigurationError):
            StageTemplate(name="a", work_mi_range=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            GraphTemplate(stages=())
        with pytest.raises(ConfigurationError):
            GraphTemplate(stages=(
                StageTemplate(name="a", work_mi_range=(1.0, 1.0), deps=("ghost",)),
            ))
        with pytest.raises(ConfigurationError):
            map_reduce_template(0, (1.0, 1.0), (1.0, 1.0))


class TestDagSchedulerHappyPath:
    def test_chain_completes_in_order(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([500.0, 500.0, 500.0], deadline_s=120.0))
        world.run_for(120.0)
        assert record.state is GraphState.COMPLETED
        assert record.met_deadline() is True
        assert all(
            run.status is StageStatus.COMPLETED for run in record.stages.values()
        )
        # Dependencies were honoured: completion times are ordered.
        times = [record.stages[n].completed_at for n in ("s0", "s1", "s2")]
        assert times[0] < times[1] < times[2]
        assert scheduler.stats.graphs_completed == 1
        assert scheduler.stats.deadline_hits == 1
        assert scheduler.stats.checkpoint_writes == 3

    def test_diamond_runs_branches_concurrently(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(diamond(deadline_s=120.0))
        world.run_for(120.0)
        assert record.state is GraphState.COMPLETED
        left = record.stages["left"]
        right = record.stages["right"]
        # Both branches started after source and before the sink, and the
        # sink waited for the slower branch.
        sink_done = record.stages["sink"].completed_at
        assert left.completed_at < sink_done and right.completed_at < sink_done

    def test_checkpointing_requires_storage(self, world):
        _v, cloud = build_cloud(world, storage=False)
        scheduler = DagScheduler(world, cloud, checkpointing=True)
        with pytest.raises(ConfigurationError):
            scheduler.submit(chain([100.0]))

    def test_accounting_balances_at_rest(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        scheduler.submit(chain([300.0, 300.0], deadline_s=60.0))
        scheduler.submit(diamond(deadline_s=60.0))
        world.run_for(60.0)
        acc = scheduler.accounting()
        assert acc["graphs_submitted"] == 2
        assert acc["records_running"] == 0
        assert acc["replicas_live"] == 0
        assert acc["replicas_submitted"] == (
            acc["replicas_completed"] + acc["replicas_failed"]
        )

    def test_on_graph_finished_listener(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        outcomes = []
        scheduler.submit(
            chain([200.0], deadline_s=60.0),
            on_finish=lambda r, reason: outcomes.append(reason),
        )
        world.run_for(60.0)
        assert outcomes == ["completed"]


class TestRedundantExecution:
    def test_low_target_dispatches_replicas_and_cancels_losers(self, world):
        _v, cloud = build_cloud(world, members=6, heterogeneous=True)
        scheduler = DagScheduler(
            world,
            cloud,
            reliability=ReliabilityEstimator(
                cloud, prior_events=50.0, prior_exposure_s=100.0
            ),  # pessimistic prior forces replication
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
            checkpointing=True,
        )
        record = scheduler.submit(chain([1000.0], deadline_s=120.0))
        world.run_for(120.0)
        assert record.state is GraphState.COMPLETED
        stats = scheduler.stats
        assert stats.redundant_dispatches >= 1
        assert stats.replicas_submitted > stats.stages_completed
        assert stats.replicas_cancelled >= 1
        assert cloud.stats.failure_reasons.get("replica_cancelled", 0) >= 1

    def test_replicas_land_on_distinct_workers(self, world):
        _v, cloud = build_cloud(world, members=6, heterogeneous=True)
        scheduler = DagScheduler(
            world,
            cloud,
            reliability=ReliabilityEstimator(
                cloud, prior_events=50.0, prior_exposure_s=100.0
            ),
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
            checkpointing=True,
        )
        record = scheduler.submit(chain([1000.0], deadline_s=120.0))
        world.run_for(2.0)
        stage = record.stages["s0"]
        workers = [r.worker_id for r in stage.race.live if r.worker_id]
        assert len(workers) >= 2
        assert len(set(workers)) == len(workers)


class TestChurnRecovery:
    def test_crash_during_stage_recovers(self, world):
        _v, cloud = build_cloud(world, members=5)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([2000.0, 2000.0], deadline_s=200.0))
        world.run_for(5.0)
        stage = record.stages["s0"]
        (worker,) = {r.worker_id for r in stage.race.live if r.worker_id}
        plan = FaultPlan(3).crash(6.0, target=worker)
        FaultInjector(world, plan, cloud=cloud).arm()
        world.run_for(200.0)
        assert record.state is GraphState.COMPLETED
        # Recovery came through the cloud's handover path, not a graph
        # restart — checkpointed DAGs never start over.
        assert record.restarts == 0

    def test_lost_uncheckpointed_output_reexecutes_frontier(self, world):
        _v, cloud = build_cloud(world, members=5)
        scheduler = DagScheduler(world, cloud, checkpointing=False)
        record = scheduler.submit(chain([500.0, 4000.0], deadline_s=400.0))
        world.run_for(20.0)
        s0 = record.stages["s0"]
        assert s0.status is StageStatus.COMPLETED
        assert s0.output_home is not None
        assert not s0.output_checkpointed
        # The worker holding s0's un-checkpointed output departs while s1
        # still needs it: s0 must re-execute (the lost frontier).  The
        # re-dispatch is synchronous, so the stage is RUNNING again.
        cloud.member_leave(s0.output_home)
        assert s0.status is StageStatus.RUNNING
        assert s0.completed_at is None
        assert scheduler.stats.outputs_lost == 1
        world.run_for(400.0)
        assert record.state is GraphState.COMPLETED
        assert record.stages_reexecuted >= 1

    def test_checkpointed_output_survives_departure(self, world):
        _v, cloud = build_cloud(world, members=5)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([500.0, 4000.0], deadline_s=400.0))
        world.run_for(20.0)
        s0 = record.stages["s0"]
        assert s0.status is StageStatus.COMPLETED
        assert s0.output_checkpointed
        survivors = scheduler.records[0].stages["s1"].race.live
        # Departing *any* member never resets a checkpointed stage.
        for member in list(cloud.membership.member_ids()):
            if all(r.worker_id != member for r in survivors):
                cloud.member_leave(member)
                break
        assert s0.status is StageStatus.COMPLETED
        assert scheduler.stats.outputs_lost == 0
        world.run_for(400.0)
        assert record.state is GraphState.COMPLETED


class TestGraphFailure:
    def test_impossible_deadline_fails_typed(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([50_000.0], deadline_s=5.0))
        world.run_for(30.0)
        assert record.state is GraphState.FAILED
        assert record.failure_reason == "deadline"
        assert scheduler.stats.failure_reasons == {"deadline": 1}
        assert scheduler.stats.deadline_misses == 1
        assert scheduler.accounting()["replicas_live"] == 0
        assert world.metrics.counter("dag/dag/graph_failures/deadline") == 1

    def test_cancel_running_graph(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([5000.0, 5000.0]))
        world.run_for(2.0)
        assert scheduler.cancel(record, "tenant_gone") is True
        assert record.state is GraphState.FAILED
        assert record.failure_reason == "tenant_gone"
        assert scheduler.cancel(record) is False  # already terminal
        assert scheduler.accounting()["replicas_live"] == 0
        assert cloud.stats.failure_reasons.get("replica_cancelled", 0) >= 1

    def test_naive_sequential_restarts_whole_graph(self, world):
        _v, cloud = build_cloud(world, members=5, storage=False)
        scheduler = DagScheduler(
            world, cloud, checkpointing=False, sequential=True
        )
        record = scheduler.submit(chain([500.0, 4000.0], deadline_s=500.0))
        world.run_for(20.0)
        s0 = record.stages["s0"]
        assert s0.status is StageStatus.COMPLETED
        # Sequential mode: only one stage in flight at a time.
        running = [
            n for n, run in record.stages.items()
            if run.status is StageStatus.RUNNING
        ]
        assert running == ["s1"]
        cloud.member_leave(s0.output_home)
        assert scheduler.stats.outputs_lost == 1
        world.run_for(500.0)
        assert record.state is GraphState.COMPLETED

    def test_restart_cancels_siblings_without_cascading(self, world):
        """A whole-graph restart cancels the sibling stages' replicas;
        those cancellations must not count as further stage failures
        (each would restart the graph again from inside the restart)."""
        model = StationaryModel(world, positions=[Vec2(i * 40.0, 0) for i in range(5)])
        cloud = VehicularCloud(world, "restart-vc", max_assignment_retries=2)
        for vehicle in model.populate(5):
            cloud.admit(
                vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
            )
        scheduler = DagScheduler(world, cloud, checkpointing=False, max_stage_attempts=3)
        record = scheduler.submit(TaskGraph(stages=(
            StageSpec(name="a", work_mi=5000.0),
            StageSpec(name="b", work_mi=5000.0),
            # No member offers lidar: this stage fails once retries run out.
            StageSpec(
                name="lidar", work_mi=100.0,
                required_sensors=frozenset({SensorKind.LIDAR}),
            ),
        )))
        world.run_until(3.0)
        assert record.restarts == 1
        assert record.state is GraphState.RUNNING
        assert {run.attempts for run in record.stages.values()} == {2}


class TestDagConservationInvariant:
    def test_holds_through_churn_run(self, world):
        _v, cloud = build_cloud(world, members=8, heterogeneous=True)
        scheduler = dependable_scheduler(world, cloud)
        suite = InvariantSuite(
            [TaskConservation(cloud), DagConservation(scheduler)],
            metrics=world.metrics,
        )
        suite.attach(world, check_interval_s=0.5)
        for index in range(4):
            world.engine.schedule_at(
                index * 3.0,
                lambda: scheduler.submit(diamond(deadline_s=150.0)),
                label="graph",
            )
        targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
        plan = FaultPlan(5).random_crashes(2, (5.0, 30.0), targets=targets)
        FaultInjector(world, plan, cloud=cloud).arm()
        world.run_for(200.0)
        assert suite.checks_run > 0
        assert suite.violations == []
        assert scheduler.accounting()["records_running"] == 0

    def test_capacity_aware_plans_hold_through_churn_run(self):
        """Staggered pipeline and map-reduce graphs on heterogeneous
        workers while a third of the members crash: every graph reaches
        a typed terminal state, the graph and replica streams balance,
        task and DAG conservation hold at every check, and with the
        shared backlog estimator the planner ledgers a predicted
        deadline hit."""
        world = World(ScenarioConfig(seed=1717))
        _v, cloud = build_cloud(
            world, members=10, mips=70.0, heterogeneous=True, name="dag-smoke-vc"
        )
        scheduler = DagScheduler(
            world,
            cloud,
            name="smoke",
            reliability=ReliabilityEstimator(cloud),
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
            checkpointing=True,
            backlog=BacklogEstimator(cloud),
        )
        templates = [
            pipeline_template([(800.0, 1200.0)] * 3, deadline_s=120.0),
            map_reduce_template(3, (500.0, 900.0), (600.0, 800.0), deadline_s=120.0),
        ]
        rng = world.rng.fork("dag/smoke")
        for index in range(6):
            template = templates[index % len(templates)]
            world.engine.schedule_at(
                index * 5.0,
                lambda t=template: scheduler.submit(t.instantiate(rng, submitter="smoke")),
                label="graph-submit",
            )
        targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
        plan = FaultPlan(1717).random_crashes(3, (10.0, 60.0), targets=targets)
        FaultInjector(world, plan, cloud=cloud).arm()
        suite = InvariantSuite(
            [TaskConservation(cloud), DagConservation(scheduler)], metrics=world.metrics
        )
        suite.attach(world, check_interval_s=0.5)
        world.run_until(240.0)

        acc = scheduler.accounting()
        stats = scheduler.stats
        assert acc["graphs_submitted"] == 6
        assert not [r for r in scheduler.records if r.state is GraphState.RUNNING]
        assert sum(stats.failure_reasons.values()) == stats.graphs_failed
        assert acc["replicas_live"] == 0
        assert suite.violations == []
        assert cloud.stats.worker_crashes > 0, "the fault plan never fired"
        # Plans made during a candidate drought fall back to the static
        # rule; the rest ledger the capacity-aware prediction.
        assert any(
            run.last_plan is not None and run.last_plan.predicted_deadline_hit is not None
            for record in scheduler.records
            for run in record.stages.values()
        )

    def test_detects_tampered_counters(self, world):
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        scheduler.submit(chain([200.0], deadline_s=60.0))
        world.run_for(60.0)
        invariant = DagConservation(scheduler)
        assert invariant.check(world.now) == []
        scheduler.stats.graphs_completed += 1  # simulate a double count
        violations = invariant.check(world.now)
        assert violations
        assert any("completed" in v.message for v in violations)

    def _replicated_stage(self, world, on_finished=None):
        """One stage raced by replicas on heterogeneous workers."""
        _v, cloud = build_cloud(world, members=6, heterogeneous=True)
        scheduler = DagScheduler(
            world,
            cloud,
            reliability=ReliabilityEstimator(
                cloud, prior_events=50.0, prior_exposure_s=100.0
            ),
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
            checkpointing=True,
        )
        scheduler.submit(chain([1000.0], deadline_s=120.0), on_finish=on_finished)
        return scheduler

    def test_flags_a_corrupted_replica_ledger(self, world):
        scheduler = self._replicated_stage(world)
        world.run_for(120.0)
        invariant = DagConservation(scheduler)
        assert scheduler.stats.replicas_cancelled >= 1
        assert invariant.check(world.now) == []
        scheduler.stats.races.late += 1  # one replica counted twice
        assert any("attempts launched" in v.message for v in invariant.check(world.now))

    def test_flags_a_loser_never_asked_to_cancel(self, world, monkeypatch):
        monkeypatch.setattr(Race, "_cancel_live", lambda race: None)
        seen = []
        scheduler = self._replicated_stage(
            world,
            on_finished=lambda r, reason: seen.extend(
                DagConservation(scheduler).check(world.now)
            ),
        )
        world.run_for(120.0)
        assert any("never asked to cancel" in v.message for v in seen)


class TestServeIntegration:
    def _gateway(self, world, cloud, scheduler):
        from repro.serve import ServiceGateway

        return ServiceGateway(world, cloud, name="dag-gw", dag=scheduler)

    def test_gateway_submits_graphs(self, world):
        from repro.serve import PoissonArrivals, TenantSpec, WorkloadGenerator

        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        gateway = self._gateway(world, cloud, scheduler)
        template = pipeline_template([(200.0, 400.0)] * 2, deadline_s=90.0)
        tenants = [
            TenantSpec(
                name="analytics",
                arrivals=PoissonArrivals(0.2),
                graph=template,
            )
        ]
        WorkloadGenerator(world, gateway, tenants, horizon_s=30.0).start()
        world.run_for(150.0)
        stats = gateway.stats
        assert stats.graphs_offered > 0
        assert stats.graphs_offered == scheduler.stats.graphs_submitted
        assert stats.graphs_completed + stats.graphs_failed == stats.graphs_offered
        assert stats.graphs_completed > 0

    def test_graph_failed_inside_dag_submit_is_counted(self, world):
        from repro.serve import ServiceGateway

        # No members and no retry budget: the only replica fails inside
        # cloud.submit, so the graph fails stage_exhausted inside submit.
        cloud = VehicularCloud(world, "dag-empty", max_assignment_retries=0)
        gateway = ServiceGateway(
            world, cloud, dag=DagScheduler(world, cloud, max_stage_attempts=1)
        )
        record = gateway.submit_graph(chain([100.0]), tenant="analytics")
        assert record.failure_reason == "stage_exhausted"
        world.run_for(5.0)
        stats = gateway.stats
        assert stats.graphs_failed == 1
        assert stats.graphs_completed + stats.graphs_failed == stats.graphs_offered
        assert world.metrics.counter("serve/gateway/graphs_failed/stage_exhausted") == 1.0

    def test_gateway_without_dag_rejects_graphs(self, world):
        from repro.serve import ServiceGateway

        _v, cloud = build_cloud(world)
        gateway = ServiceGateway(world, cloud)
        with pytest.raises(ConfigurationError):
            gateway.submit_graph(chain([100.0]))

    def test_gateway_rejects_mismatched_cloud(self, world):
        from repro.serve import ServiceGateway

        _v, cloud_a = build_cloud(world)
        other_world_vehicles, cloud_b = build_cloud(world, members=3)
        scheduler = dependable_scheduler(world, cloud_b)
        with pytest.raises(ConfigurationError):
            ServiceGateway(world, cloud_a, dag=scheduler)

    def test_mixed_tenants_scalar_and_graph(self, world):
        from repro.serve import PoissonArrivals, TenantSpec, WorkloadGenerator

        _v, cloud = build_cloud(world, members=6)
        scheduler = dependable_scheduler(world, cloud)
        gateway = self._gateway(world, cloud, scheduler)
        tenants = [
            TenantSpec(
                name="scalar", arrivals=PoissonArrivals(0.5),
                work_mi_range=(100.0, 200.0), deadline_s=30.0,
            ),
            TenantSpec(
                name="dag", arrivals=PoissonArrivals(0.2),
                graph=pipeline_template([(200.0, 300.0)] * 2, deadline_s=90.0),
            ),
        ]
        generator = WorkloadGenerator(world, gateway, tenants, horizon_s=30.0)
        generator.start()
        world.run_for(150.0)
        assert gateway.stats.completed > 0  # scalar stream served
        assert gateway.stats.graphs_offered > 0  # DAG stream served
        assert generator.loads["dag"].offered == gateway.stats.graphs_offered


class TestTracing:
    def test_dag_lifecycle_spans(self):
        world = World(ScenarioConfig(seed=42))
        world.enable_observability()
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        record = scheduler.submit(chain([300.0, 300.0], deadline_s=90.0))
        world.run_for(90.0)
        assert record.state is GraphState.COMPLETED
        spans = world.tracer.spans()
        roots = [s for s in spans if s.name == "dag.lifecycle"]
        assert len(roots) == 1
        root = roots[0]
        assert root.status == "ok"
        assert root.attrs["graph_id"] == record.graph.graph_id
        stages = [s for s in spans if s.name == "dag.stage"]
        assert len(stages) == 2
        assert all(s.parent_id == root.span_id for s in stages)
        assert all(s.status == "ok" for s in stages)
        # Replica task lifecycles nest under their stage span.
        stage_ids = {s.span_id for s in stages}
        tasks = [s for s in spans if s.name == "task.lifecycle"]
        assert tasks
        assert all(s.parent_id in stage_ids for s in tasks)

    def test_failed_graph_span_carries_reason(self):
        world = World(ScenarioConfig(seed=42))
        world.enable_observability()
        _v, cloud = build_cloud(world)
        scheduler = dependable_scheduler(world, cloud)
        scheduler.submit(chain([50_000.0], deadline_s=5.0))
        world.run_for(30.0)
        root = next(s for s in world.tracer.spans() if s.name == "dag.lifecycle")
        assert root.status == "failed"
        assert root.attrs["reason"] == "deadline"


class TestDeterminism:
    def _run_once(self, seed: int):
        from repro.ids import reset_global_ids

        reset_global_ids()
        world = World(ScenarioConfig(seed=seed))
        _v, cloud = build_cloud(world, members=6, heterogeneous=True)
        scheduler = DagScheduler(
            world,
            cloud,
            reliability=ReliabilityEstimator(cloud),
            redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
            checkpointing=True,
        )
        rng = world.rng.fork("dag/test")
        template = pipeline_template([(400.0, 900.0)] * 3, deadline_s=120.0)
        for index in range(3):
            world.engine.schedule_at(
                index * 4.0,
                lambda: scheduler.submit(template.instantiate(rng)),
                label="graph",
            )
        targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
        plan = FaultPlan(9).random_crashes(2, (5.0, 30.0), targets=targets)
        FaultInjector(world, plan, cloud=cloud).arm()
        world.run_for(200.0)
        return (
            scheduler.accounting(),
            dict(scheduler.stats.failure_reasons),
            scheduler.stats.graph_latencies_s,
            sorted(world.metrics.counters.items()),
        )

    def test_seeded_replay_is_byte_identical(self):
        assert self._run_once(31) == self._run_once(31)

    def test_different_seed_differs(self):
        # Sanity: the comparison above is not vacuously true.
        a = self._run_once(31)
        b = self._run_once(32)
        assert a != b
