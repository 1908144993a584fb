"""Tests for the chaos harness (`repro.chaos`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosProfile,
    ChaosRunner,
    ChaosTargets,
    InvariantSuite,
    QuorumSafety,
    StrandedTasks,
    TaskConservation,
    Violation,
    campaign_size,
    ddmin,
    generate_plan,
    infrastructure_scenario,
    stationary_scenario,
)
from repro.chaos.invariants import ChannelConservation, SingleHead
from repro.core import ResourceOffer, Task, VehicularCloud
from repro.core.tasks import TaskRecord, TaskState
from repro.dag import DagScheduler
from repro.dag.graph import GraphState, StageSpec, TaskGraph
from repro.dag.scheduler import GraphRecord
from repro.errors import ChaosError, ConfigurationError
from repro.faults.plan import NETWORK_FAULTS, PROCESS_FAULTS
from repro.geometry import Vec2
from repro.mobility import StationaryModel
from repro.sim import ScenarioConfig, World

ALL_TARGETS = ChaosTargets(members=12, has_channel=True, infrastructure=2)


def small_cloud(seed=3, members=4):
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(world, positions=[Vec2(i * 40.0, 0) for i in range(members)])
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "chaos-test-vc")
    for vehicle in vehicles:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6))
    return world, vehicles, cloud


class TestGenerator:
    def test_same_seed_byte_identical_plan(self):
        a = generate_plan(42, 60.0, ALL_TARGETS).describe()
        b = generate_plan(42, 60.0, ALL_TARGETS).describe()
        c = generate_plan(43, 60.0, ALL_TARGETS).describe()
        assert a == b
        assert a != c

    def test_missing_targets_drop_families(self):
        no_channel = ChaosTargets(members=6, has_channel=False, infrastructure=0)
        plan = generate_plan(7, 120.0, no_channel)
        kinds = {spec.kind for spec in plan.schedule()}
        assert kinds  # something was generated
        assert kinds <= set(PROCESS_FAULTS)
        no_members = ChaosTargets(members=0, has_channel=True, infrastructure=0)
        kinds = {spec.kind for spec in generate_plan(7, 120.0, no_members).schedule()}
        assert kinds <= set(NETWORK_FAULTS)

    def test_empty_grammar_raises(self):
        nothing = ChaosTargets(members=0, has_channel=False, infrastructure=0)
        with pytest.raises(ConfigurationError):
            generate_plan(1, 60.0, nothing)
        process_only = ChaosProfile().only("crash", "stall")
        no_members = ChaosTargets(members=0, has_channel=True, infrastructure=1)
        with pytest.raises(ConfigurationError):
            generate_plan(1, 60.0, no_members, process_only)

    def test_too_short_run_raises(self):
        with pytest.raises(ConfigurationError):
            generate_plan(1, 4.0, ALL_TARGETS)  # shorter than warmup

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosProfile(weights=(("meteor", 1.0),))
        with pytest.raises(ConfigurationError):
            ChaosProfile(weights=(("crash", -1.0),))
        with pytest.raises(ConfigurationError):
            ChaosProfile(cooldown_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ChaosProfile(mean_interval_s=0.0)

    def test_times_stay_on_grid_inside_window(self):
        profile = ChaosProfile()
        plan = generate_plan(9, 100.0, ALL_TARGETS, profile)
        horizon = 100.0 * (1.0 - profile.cooldown_fraction)
        for spec in plan.schedule():
            assert spec.at == round(spec.at, 1)  # 0.1 s grid
            assert profile.warmup_s <= spec.at <= horizon

    def test_campaign_size_scales_and_clamps(self):
        profile = ChaosProfile()
        small = campaign_size(profile, 60.0, members=3)
        large = campaign_size(profile, 60.0, members=40)
        assert small < large
        assert campaign_size(profile, 10_000.0, members=12) == profile.max_faults
        assert campaign_size(profile, 6.0, members=12) >= profile.min_faults


class TestInvariants:
    def test_task_conservation_clean_then_tampered(self):
        world, _vehicles, cloud = small_cloud()
        inv = TaskConservation(cloud)
        from repro.core import Task

        cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert inv.check(world.now) == []
        cloud.stats.completed += 1  # corrupt the ledger
        assert inv.check(world.now)

    def test_task_conservation_recounts_a_state_flipped_behind_the_counters(self):
        world, _vehicles, cloud = small_cloud()
        for _ in range(3):
            cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        inv = TaskConservation(cloud)
        assert inv.check(world.now) == []
        completed = next(r for r in cloud.records if r.state is TaskState.COMPLETED)
        completed.fail()  # the record changes; stats does not
        messages = [violation.message for violation in inv.check(world.now)]
        assert "failed counter 0 != failed records 1" in messages
        assert any(m.startswith("completed counter 3 != completed records 2") for m in messages)

    def test_single_head_detects_headless_and_foreign_head(self):
        world, _vehicles, cloud = small_cloud()
        inv = SingleHead(cloud)
        assert inv.check(world.now) == []
        cloud.head_id = None
        assert inv.check(world.now)
        cloud.head_id = "not-a-member"
        assert inv.check(world.now)
        external = SingleHead(cloud, external_heads=("not-a-member",))
        assert external.check(world.now) == []

    def test_quorum_safety_reports_deltas_once(self):
        class FakeChecker:
            stale_reads = 0
            lost_updates = 0

        checker = FakeChecker()
        inv = QuorumSafety(checker)
        assert inv.check(1.0) == []
        checker.stale_reads = 2
        first = inv.check(2.0)
        assert len(first) == 1 and "2 stale read(s)" in first[0].message
        assert inv.check(3.0) == []  # no new anomalies, no new violations
        checker.lost_updates = 1
        assert len(inv.check(4.0)) == 1

    def test_channel_conservation_detects_tampering(self):
        world, _vehicles, _cloud = small_cloud()
        inv = ChannelConservation(world)
        assert inv.check(world.now) == []
        world.metrics.increment("channel/frames_dispatched", 3)
        assert inv.check(world.now)

    def test_stranded_tasks_reports_each_task_once(self):
        world, vehicles, cloud = small_cloud()
        from repro.core import Task

        cloud.submit(Task(work_mi=10_000))
        world.run_for(2.0)
        cloud.mark_worker_crashed(vehicles[0].vehicle_id)
        for vehicle in vehicles[1:]:
            cloud.mark_worker_crashed(vehicle.vehicle_id)
        inv = StrandedTasks(cloud, grace_s=5.0)
        world.run_for(10.0)
        first = inv.check(world.now)
        assert len(first) == 1
        assert inv.check(world.now + 1.0) == []  # deduplicated

    def test_suite_accumulates_and_counts(self):
        world, _vehicles, cloud = small_cloud()
        suite = InvariantSuite([TaskConservation(cloud)], metrics=world.metrics)
        assert suite.check_now(0.0) == []
        cloud.stats.submitted += 5
        fresh = suite.check_now(1.0)
        assert fresh and suite.first_violation is fresh[0]
        assert suite.checks_run == 2
        assert world.metrics.counter("chaos/violations") == len(fresh)
        assert world.metrics.counter("chaos/violations/task-conservation") == len(fresh)

    @settings(max_examples=60, deadline=None)
    @given(
        task_states=st.lists(st.sampled_from(list(TaskState)), max_size=30),
        graph_states=st.lists(st.sampled_from(list(GraphState)), max_size=30),
    )
    def test_record_recounts_equal_a_generator_count(self, task_states, graph_states):
        world, _vehicles, cloud = small_cloud()
        scheduler = DagScheduler(world, cloud)
        graph = TaskGraph(stages=(StageSpec("s0", 100.0),))
        cloud.records = [TaskRecord(Task(work_mi=10.0), 0.0, state=s) for s in task_states]
        scheduler.records = [GraphRecord(graph, 0.0, state=s) for s in graph_states]

        def count(records, state):
            return sum(1 for r in records if r.state is state)

        acc = cloud.accounting()
        completed = count(cloud.records, TaskState.COMPLETED)
        failed = count(cloud.records, TaskState.FAILED)
        assert (acc["records_completed"], acc["records_failed"]) == (completed, failed)
        assert acc["records_in_flight"] == len(task_states) - completed - failed
        acc = scheduler.accounting()
        completed = count(scheduler.records, GraphState.COMPLETED)
        failed = count(scheduler.records, GraphState.FAILED)
        assert (acc["records_completed"], acc["records_failed"]) == (completed, failed)
        assert acc["records_running"] == len(graph_states) - completed - failed

    def test_violation_describe(self):
        v = Violation(invariant="x", time=1.25, message="boom")
        assert "t=1.250" in v.describe() and "[x]" in v.describe()


class TestDdmin:
    def test_single_culprit(self):
        minimal, runs = ddmin(range(8), lambda s: 5 in s)
        assert minimal == [5]
        assert runs >= 1

    def test_conjunctive_pair(self):
        minimal, _runs = ddmin(range(10), lambda s: 2 in s and 7 in s)
        assert minimal == [2, 7]

    def test_all_needed(self):
        indices = [0, 1, 2]
        minimal, _runs = ddmin(indices, lambda s: set(s) == set(indices))
        assert minimal == indices

    def test_full_set_must_fail(self):
        with pytest.raises(ValueError):
            ddmin(range(4), lambda s: False)

    def test_memoization_bounds_run_count(self):
        calls = []

        def test_fn(subset):
            calls.append(subset)
            return 3 in subset

        _minimal, runs = ddmin(range(16), test_fn)
        assert runs == len(calls) == len(set(calls))


class TestRunner:
    def test_run_seed_is_deterministic(self):
        runner = ChaosRunner(
            lambda s: stationary_scenario(s, members=6), run_length_s=30.0
        )
        a = runner.run_seed(5)
        b = runner.run_seed(5)
        assert a.plan.describe() == b.plan.describe()
        assert (a.submitted, a.completed, a.failed) == (b.submitted, b.completed, b.failed)
        assert [v.describe() for v in a.violations] == [v.describe() for v in b.violations]

    def test_run_seed_arms_only_the_given_schedule_subset(self):
        runner = ChaosRunner(
            lambda s: stationary_scenario(s, members=6), run_length_s=30.0
        )
        full = runner.run_seed(5)
        subset = runner.run_seed(5, only_indices=[0])
        assert full.armed == full.schedule_size > 1
        assert (subset.schedule_size, subset.armed) == (full.schedule_size, 1)
        assert subset.injected + subset.skipped <= 1

    def test_infrastructure_replay_rewinds_rsu_ids(self):
        """An RSU-anchored scenario replays in the same process: the RSU
        id (and the cloud id and metric names built from it) restarts at
        ``rsu-1`` for every run, so ddmin replays are deterministic."""
        runner = ChaosRunner(infrastructure_scenario)
        a = runner.run_seed(101)
        b = runner.run_seed(101)
        assert a.scenario.world.metrics.snapshot() == b.scenario.world.metrics.snapshot()

    def test_campaign_aggregates(self):
        runner = ChaosRunner(
            lambda s: stationary_scenario(s, members=6), run_length_s=30.0
        )
        campaign = runner.run_campaign([1, 2, 3])
        assert campaign.runs == 3
        assert campaign.clean_runs + len(campaign.failing_seeds) == 3
        assert "stationary" in campaign.describe()

    def test_capture_requires_a_failing_seed(self):
        runner = ChaosRunner(
            lambda s: stationary_scenario(s, members=6), run_length_s=30.0
        )
        clean = next(r.seed for r in runner.run_campaign([1, 2, 3]).results if r.ok)
        with pytest.raises(ChaosError):
            runner.capture_reproducer(clean)

    def test_weakened_cloud_minimizes_and_replays(self):
        runner = ChaosRunner(
            lambda s: stationary_scenario(s, hardened=False), run_length_s=45.0
        )
        campaign = runner.run_campaign(range(7001, 7006))
        assert campaign.failing_seeds, "weakened cloud should violate invariants"
        seed = campaign.failing_seeds[0]
        bundle = runner.capture_reproducer(seed)
        assert 1 <= len(bundle.minimized_specs) <= 3
        assert bundle.minimize_runs >= 1
        replay = runner.run_seed(seed, only_indices=list(bundle.minimized_indices))
        assert any(v.invariant == bundle.invariant for v in replay.violations)
        text = bundle.describe()
        assert f"seed               : {seed}" in text
        assert "replay" in text
        payload = bundle.to_dict()
        assert payload["seed"] == seed
        assert payload["minimized_indices"] == list(bundle.minimized_indices)

    def test_runner_validation(self):
        with pytest.raises(ChaosError):
            ChaosRunner(stationary_scenario, run_length_s=0.0)
        with pytest.raises(ChaosError):
            ChaosRunner(stationary_scenario, check_interval_s=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_runner_rejects_non_finite_lengths(self, bad):
        with pytest.raises(ChaosError):
            ChaosRunner(stationary_scenario, run_length_s=bad)
        with pytest.raises(ChaosError):
            ChaosRunner(stationary_scenario, check_interval_s=bad)


class TestServingConservation:
    def _gateway(self, seed=11):
        from repro.serve import PoissonArrivals, ServiceGateway, TenantSpec, WorkloadGenerator

        world, _vehicles, cloud = small_cloud(seed=seed, members=6)
        gateway = ServiceGateway(world, cloud, name="inv-gw", queue_capacity=8)
        tenants = [
            TenantSpec(
                name="t", arrivals=PoissonArrivals(5.0),
                work_mi_range=(200.0, 200.0), deadline_s=6.0,
            )
        ]
        WorkloadGenerator(world, gateway, tenants, horizon_s=20.0).start()
        return world, gateway

    def test_clean_under_load_then_tampered(self):
        from repro.chaos import ServingConservation

        world, gateway = self._gateway()
        inv = ServingConservation(gateway)
        world.run_for(10.0)
        assert gateway.stats.offered > 0
        assert inv.check(world.now) == []
        gateway.stats.completed += 1  # corrupt the ledger: a phantom completion
        violations = inv.check(world.now)
        assert violations and "admitted" in violations[0].message
        gateway.stats.completed -= 1
        gateway.stats.offered += 1  # now the door counters disagree
        violations = inv.check(world.now)
        assert violations and "offered" in violations[0].message

    def test_detects_silent_drop(self):
        """A request removed from the queue without a typed outcome is
        exactly the leak the invariant exists to catch."""
        from repro.chaos import ServingConservation

        world, gateway = self._gateway(seed=12)
        inv = ServingConservation(gateway)
        world.run_for(3.0)
        assert inv.check(world.now) == []
        victim = next(iter(gateway.queue.items()), None)
        if victim is None:
            return  # queue drained at this instant; nothing to drop
        gateway.queue.remove(victim)  # bypasses the typed shed path
        assert inv.check(world.now)


class TestOverloadScenario:
    """The campaign's protected-gateway cell at 2x load, under chaos."""

    @staticmethod
    def overloaded_serving_cell(seed):
        from repro.campaign import RunSpec, build_scenario

        return build_scenario(
            RunSpec(
                campaign="chaos-overload",
                architecture="stationary",
                workload="serving",
                fault_profile="none",
                mobility="stationary",
                seed=seed,
                load_factor=2.0,
            )
        )

    def test_campaign_under_overload_stays_conserved(self):
        runner = ChaosRunner(self.overloaded_serving_cell, run_length_s=30.0)
        result = runner.run_seed(21)
        assert result.ok, [v.describe() for v in result.violations]

    def test_scenario_actually_overloads(self):
        runner = ChaosRunner(self.overloaded_serving_cell, run_length_s=40.0)
        metrics = runner.run_seed(31).scenario.world.metrics
        shed = sum(metrics.counters_under("serve/campaign/shed").values())
        rejected = sum(metrics.counters_under("serve/campaign/rejected").values())
        assert shed + rejected > 0, "2x load produced no shedding or rejection"
