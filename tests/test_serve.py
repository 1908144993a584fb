"""Tests for the overload-resilient serving stack (`repro.serve`)."""

from __future__ import annotations

import pytest

from repro.core import (
    CheckpointHandoverPolicy,
    ResourceOffer,
    Task,
    VehicularCloud,
)
from repro.chaos import ServingConservation
from repro.core.race import Race
from repro.core.tasks import TaskState
from repro.errors import ConfigurationError
from repro.faults import BackoffPolicy
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.mobility import StationaryModel
from repro.serve import (
    AdmitAll,
    BoundedPriorityQueue,
    BreakerState,
    BurstyArrivals,
    CircuitBreaker,
    CircuitBreakerBoard,
    CompositeAdmission,
    DeadlineFeasibilityAdmission,
    DeadlineLapseShedder,
    DiurnalArrivals,
    HedgePolicy,
    LatencyQuantileTracker,
    PoissonArrivals,
    QueueDelayAdmission,
    QueueDelayShedder,
    ServiceGateway,
    ServiceRequest,
    TenantFairShareAdmission,
    TenantSpec,
    WorkloadGenerator,
)
from repro.sim import ScenarioConfig, SeededRng, World


def build_cloud(seed=7, members=5, mips=100.0):
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    cloud = VehicularCloud(
        world, "serve-vc", handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6)
        )
    return world, vehicles, cloud


def request(work_mi=200.0, tenant="t", priority=1, deadline_s=10.0):
    return ServiceRequest.build(
        work_mi=work_mi, tenant=tenant, priority=priority, deadline_s=deadline_s
    )


class TestArrivalProcesses:
    def test_poisson_mean_gap_matches_rate(self):
        rng = SeededRng(5, "poisson")
        process = PoissonArrivals(rate_per_s=4.0)
        gaps = [process.next_gap_s(rng, 0.0) for _ in range(4000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.25, rel=0.1)

    def test_bursty_rate_exceeds_quiet_rate(self):
        rng = SeededRng(5, "bursty")
        process = BurstyArrivals(
            base_rate_per_s=1.0, burst_rate_per_s=20.0,
            mean_quiet_s=5.0, mean_burst_s=5.0,
        )
        now, gaps_by_phase = 0.0, {True: [], False: []}
        for _ in range(5000):
            gap = process.next_gap_s(rng, now)
            gaps_by_phase[process._in_burst].append(gap)
            now += gap
        assert gaps_by_phase[True] and gaps_by_phase[False]
        mean_burst = sum(gaps_by_phase[True]) / len(gaps_by_phase[True])
        mean_quiet = sum(gaps_by_phase[False]) / len(gaps_by_phase[False])
        assert mean_burst < mean_quiet / 5.0

    def test_diurnal_rate_oscillates(self):
        process = DiurnalArrivals(mean_rate_per_s=2.0, amplitude=0.5, period_s=100.0)
        assert process.rate_at(25.0) == pytest.approx(3.0)  # peak
        assert process.rate_at(75.0) == pytest.approx(1.0)  # trough
        assert process.rate_at(0.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigurationError):
            BurstyArrivals(1.0, 2.0, mean_quiet_s=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1.0, amplitude=1.0)


class TestWorkloadGenerator:
    def _run(self, seed):
        reset_global_ids()
        world, _v, cloud = build_cloud(seed=seed)
        gateway = ServiceGateway(world, cloud, name="gw", queue_capacity=None)
        tenants = [
            TenantSpec(name="a", arrivals=PoissonArrivals(2.0),
                       work_mi_range=(100.0, 300.0), deadline_s=10.0),
            TenantSpec(name="b", arrivals=PoissonArrivals(1.0),
                       work_mi_range=(50.0, 50.0), deadline_s=5.0, clients=3),
        ]
        generator = WorkloadGenerator(world, gateway, tenants, horizon_s=20.0)
        generator.start()
        world.run_until(30.0)
        return generator, gateway, world

    def test_open_loop_offers_independent_of_completions(self):
        generator, gateway, _world = self._run(3)
        assert generator.total_offered() == gateway.stats.offered
        assert generator.loads["a"].offered > 20
        # 3 clients at 1/s beat 1 client at 2/s.
        assert generator.loads["b"].offered > generator.loads["a"].offered

    def test_same_seed_same_arrivals(self):
        first, _gw1, world1 = self._run(3)
        second, _gw2, world2 = self._run(3)
        assert first.loads["a"].offered == second.loads["a"].offered
        assert first.loads["a"].offered_work_mi == pytest.approx(
            second.loads["a"].offered_work_mi
        )
        assert world1.metrics.snapshot() == world2.metrics.snapshot()

    def test_start_is_idempotent(self):
        reset_global_ids()
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway(world, cloud, name="gw")
        generator = WorkloadGenerator(
            world, gateway,
            [TenantSpec(name="a", arrivals=PoissonArrivals(1.0))],
            horizon_s=5.0,
        )
        generator.start()
        generator.start()
        world.run_until(10.0)
        solo = generator.total_offered()
        assert 0 < solo < 15  # a doubled chain would offer ~2x

    def test_validation(self):
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway(world, cloud, name="gw")
        spec = TenantSpec(name="a", arrivals=PoissonArrivals(1.0))
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(world, gateway, [], horizon_s=5.0)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(world, gateway, [spec, spec], horizon_s=5.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="x", arrivals=PoissonArrivals(1.0), clients=0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="x", arrivals=PoissonArrivals(1.0), work_mi_range=(5.0, 1.0))


class TestBoundedPriorityQueue:
    def test_priority_then_fifo_order(self):
        queue = BoundedPriorityQueue()
        first = request(priority=1)
        urgent = request(priority=0)
        second = request(priority=1)
        for r in (first, urgent, second):
            assert queue.push(r)
        assert queue.pop() is urgent
        assert queue.pop() is first
        assert queue.pop() is second
        assert queue.pop() is None

    def test_capacity_refuses_push(self):
        queue = BoundedPriorityQueue(capacity=2)
        assert queue.push(request())
        assert queue.push(request())
        assert queue.full
        assert not queue.push(request())
        assert len(queue) == 2

    def test_evict_tail_takes_worst_newest(self):
        queue = BoundedPriorityQueue()
        keep = request(priority=0)
        older = request(priority=2)
        newest = request(priority=2)
        for r in (keep, older, newest):
            queue.push(r)
        assert queue.evict_tail() is newest
        assert queue.evict_tail() is older
        assert queue.evict_tail() is keep
        assert queue.evict_tail() is None

    def test_accounting_tracks_work_and_tenants(self):
        queue = BoundedPriorityQueue()
        a = request(work_mi=100.0, tenant="a")
        b = request(work_mi=300.0, tenant="b")
        queue.push(a)
        queue.push(b)
        assert queue.queued_work_mi == pytest.approx(400.0)
        assert queue.tenant_depth("a") == 1
        assert queue.remove(a)
        assert not queue.remove(a)
        assert queue.queued_work_mi == pytest.approx(300.0)
        assert queue.tenant_depth("a") == 0

    def test_compaction_preserves_live_entries(self):
        queue = BoundedPriorityQueue()
        keepers = [request(priority=0) for _ in range(5)]
        for keeper in keepers:
            queue.push(keeper)
        for _ in range(40):  # churn enough tombstones to force a rebuild
            victim = request(priority=9)
            queue.push(victim)
            assert queue.evict_tail() is victim
        assert len(queue) == 5
        assert [queue.pop() for _ in range(5)] == keepers


class TestAdmissionPolicies:
    def _gateway(self, **kwargs):
        world, _v, cloud = build_cloud()
        return world, ServiceGateway(world, cloud, name="gw", **kwargs)

    def test_deadline_infeasible_rejected_at_door(self):
        world, gateway = self._gateway(
            queue_capacity=64, admission=DeadlineFeasibilityAdmission()
        )
        # 4 workers x 100 MIPS; 10_000 MI needs 25 s against a 5 s deadline.
        assert not gateway.submit(request(work_mi=10_000.0, deadline_s=5.0))
        assert gateway.stats.rejection_reasons == {"deadline_infeasible": 1}
        assert gateway.submit(request(work_mi=100.0, deadline_s=5.0))

    def test_queue_delay_admission_bounds_backlog(self):
        world, gateway = self._gateway(
            queue_capacity=None, admission=QueueDelayAdmission(max_delay_s=2.0),
            max_dispatch_concurrency=0,  # freeze dispatch: queue only grows
        )
        admitted = 0
        while gateway.submit(request(work_mi=200.0)):
            admitted += 1
            assert admitted < 100, "queue-delay admission never rejected"
        assert gateway.stats.rejection_reasons == {"queue_delay": 1}
        assert gateway.estimated_queue_delay_s() <= 2.0 + 0.5  # one task of slack

    def test_tenant_fair_share_backpressure(self):
        world, gateway = self._gateway(
            queue_capacity=10,
            admission=TenantFairShareAdmission(share=0.5, min_slots=2),
            max_dispatch_concurrency=0,
        )
        hog_admitted = 0
        for _ in range(10):
            if gateway.submit(request(tenant="hog")):
                hog_admitted += 1
        assert hog_admitted == 5  # floor(0.5 * (10 + 0)) = 5
        assert gateway.stats.rejection_reasons["tenant_backpressure"] == 5
        # The quiet tenant is unaffected by the hog's backpressure.
        assert gateway.submit(request(tenant="quiet"))

    def test_composite_first_rejection_wins(self):
        world, gateway = self._gateway(
            queue_capacity=64,
            admission=CompositeAdmission([
                DeadlineFeasibilityAdmission(), AdmitAll(),
            ]),
        )
        assert not gateway.submit(request(work_mi=10_000.0, deadline_s=5.0))
        assert gateway.stats.rejection_reasons == {"deadline_infeasible": 1}


class TestShedding:
    def test_deadline_lapse_shedder_clears_dead_weight(self):
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=None,
            shedders=[DeadlineLapseShedder()], max_dispatch_concurrency=0,
        )
        gateway.submit(request(work_mi=100.0, deadline_s=1.0))
        gateway.submit(request(work_mi=100.0, deadline_s=500.0))
        world.run_until(5.0)  # first deadline lapses in the queue
        assert gateway.stats.shed_reasons == {"deadline_lapsed": 1}
        assert len(gateway.queue) == 1

    def test_queue_delay_shedder_trims_to_bound(self):
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=None,
            shedders=[QueueDelayShedder(max_delay_s=1.0)],
            max_dispatch_concurrency=0,
        )
        for _ in range(20):  # 4000 MI over 400 MIPS = 10 s of backlog
            gateway.submit(request(work_mi=200.0, deadline_s=None))
        world.run_until(1.0)  # one tick
        assert gateway.estimated_queue_delay_s() <= 1.0
        assert gateway.stats.shed_reasons["queue_delay"] >= 15
        acc = gateway.accounting()
        assert acc["admitted"] == acc["shed"] + acc["queued"]

    def test_full_queue_displaces_less_urgent_tail(self):
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=2, max_dispatch_concurrency=0
        )
        gateway.submit(request(priority=5))
        gateway.submit(request(priority=5))
        # A more urgent arrival displaces the newest low-priority victim.
        assert gateway.submit(request(priority=0))
        assert gateway.stats.shed_reasons == {"displaced": 1}
        # An equally-low arrival is rejected instead.
        assert not gateway.submit(request(priority=5))
        assert gateway.stats.rejection_reasons == {"queue_full": 1}


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        return CircuitBreaker(
            "w1", clock=lambda: self.now,
            backoff=BackoffPolicy(
                base_delay_s=2.0, multiplier=2.0, max_delay_s=30.0,
                jitter_fraction=0.0, max_retries=100,
            ),
            **kwargs,
        )

    def test_trips_on_failure_rate(self):
        breaker = self._breaker(window=4, failure_threshold=0.5, min_samples=4)
        for _ in range(2):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()  # 2/4 failures hits the 0.5 threshold
        assert breaker.state is BreakerState.OPEN
        assert breaker.last_trip_reason == "failure_rate"
        assert not breaker.allows()

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker(window=4, min_samples=2, failure_threshold=0.5)
        breaker.trip("lease_expiry")
        assert breaker.cooldown_remaining_s == pytest.approx(2.0)
        self.now = 2.5
        assert breaker.allows()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.note_dispatch()
        assert not breaker.allows()  # one probe at a time
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_escalates_cooldown(self):
        breaker = self._breaker()
        breaker.trip("lease_expiry")          # cooldown 2 s
        self.now = 3.0
        assert breaker.allows()
        breaker.note_dispatch()
        breaker.record_failure()              # probe failed: re-open
        assert breaker.state is BreakerState.OPEN
        assert breaker.cooldown_remaining_s == pytest.approx(4.0)  # escalated
        assert breaker.trips == 2

    def test_close_resets_escalation(self):
        breaker = self._breaker()
        breaker.trip("x")
        self.now = 10.0
        assert breaker.allows()
        breaker.note_dispatch()
        breaker.record_success()              # closed; streak reset
        breaker.trip("y")
        assert breaker.cooldown_remaining_s == pytest.approx(2.0)

    def test_board_lazily_creates_and_counts(self):
        world, _v, _cloud = build_cloud()
        board = CircuitBreakerBoard(world, "gw")
        assert board.allows("anyone")  # unknown workers pass
        board.trip("w1", "lease_expiry")
        assert not board.allows("w1")
        assert board.open_workers() == ["w1"]
        assert board.total_trips() == 1
        assert world.metrics.counter("serve/gw/breaker_trips") == 1.0


class TestHedging:
    def test_tracker_warms_up_then_quantiles(self):
        tracker = LatencyQuantileTracker(window=16, min_samples=4)
        assert tracker.quantile(0.9) is None
        for value in (1.0, 2.0, 3.0, 4.0):
            tracker.observe(value)
        assert tracker.quantile(0.5) == pytest.approx(2.5)

    def test_policy_gating(self):
        policy = HedgePolicy(max_inflight_hedges=1, require_idle_queue=True)
        assert policy.may_hedge(0, 0, remaining_deadline_s=10.0, expected_runtime_s=2.0)
        assert not policy.may_hedge(1, 0, 10.0, 2.0)   # hedge budget spent
        assert not policy.may_hedge(0, 3, 10.0, 2.0)   # queue backed up
        assert not policy.may_hedge(0, 0, 1.0, 2.0)    # deadline infeasible
        assert policy.may_hedge(0, 0, None, 2.0)       # no deadline: allowed

    def test_trigger_prefers_observed_quantile(self):
        policy = HedgePolicy(quantile=0.5, fallback_factor=3.0)
        tracker = LatencyQuantileTracker(min_samples=2)
        assert policy.trigger_delay_s(tracker, 2.0) == pytest.approx(6.0)
        tracker.observe(1.0)
        tracker.observe(3.0)
        assert policy.trigger_delay_s(tracker, 2.0) == pytest.approx(2.0)

    def test_hedge_rescues_stalled_primary(self):
        """Primary stalls mid-run; the hedge lands on a different worker,
        wins, and the loser is retired as ``hedge_cancelled``."""
        world, vehicles, cloud = build_cloud(members=3)
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=8,
            hedging=HedgePolicy(quantile=0.9, fallback_factor=1.5),
        )
        gateway.submit(request(work_mi=400.0, deadline_s=60.0))  # ~4 s compute
        world.run_until(0.5)
        primary = next(iter(gateway._inflight.values())).race.handles[0]
        assert primary.worker_id is not None
        cloud.stall_worker(primary.worker_id, 30.0)
        world.run_until(30.0)
        stats = gateway.stats
        assert stats.hedges_launched == 1
        assert stats.hedges_won == 1
        assert stats.hedges_cancelled == 1
        assert stats.completed == 1
        assert cloud.stats.failure_reasons.get("hedge_cancelled") == 1
        # The hedge ran on a different worker than the stalled primary.
        hedge_workers = {
            r.worker_id for r in cloud.records
            if r.task.task_id != primary.task.task_id
        }
        assert primary.worker_id not in hedge_workers
        acc = gateway.accounting()
        assert acc["admitted"] == acc["completed"]

    def _hedged_past_stalled_primary(self):
        world, _v, cloud = build_cloud(members=3)
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=8,
            hedging=HedgePolicy(quantile=0.9, fallback_factor=1.5),
        )
        gateway.submit(request(work_mi=400.0, deadline_s=60.0))
        world.run_until(0.5)
        primary = next(iter(gateway._inflight.values())).race.handles[0]
        cloud.stall_worker(primary.worker_id, 30.0)
        world.run_until(20.0)
        assert gateway.stats.hedges_won == 1
        return world, gateway

    def test_serving_conservation_flags_a_corrupted_race_ledger(self):
        world, gateway = self._hedged_past_stalled_primary()
        invariant = ServingConservation(gateway)
        assert invariant.check(world.now) == []
        gateway.stats.races.failed += 1  # one attempt counted twice
        assert any("attempts launched" in v.message for v in invariant.check(world.now))

    def test_serving_conservation_flags_a_loser_never_asked_to_cancel(self, monkeypatch):
        monkeypatch.setattr(Race, "_cancel_live", lambda race: None)
        world, gateway = self._hedged_past_stalled_primary()  # primary still stalled
        violations = ServingConservation(gateway).check(world.now)
        assert any("never asked to cancel" in v.message for v in violations)

    def test_fast_primary_cancels_hedge_check(self):
        world, _v, cloud = build_cloud(members=3)
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=8,
            hedging=HedgePolicy(fallback_factor=3.0),
        )
        gateway.submit(request(work_mi=100.0, deadline_s=30.0))
        world.run_until(20.0)
        assert gateway.stats.completed == 1
        assert gateway.stats.hedges_launched == 0


class TestGatewayWiring:
    def test_finish_listener_fires_for_success_and_failure(self):
        world, _v, cloud = build_cloud()
        seen = []

        def note(record, reason):
            seen.append(reason)

        cloud.submit(Task(work_mi=100.0), on_finish=note)
        world.run_until(5.0)
        assert seen == ["completed"]
        # Saturate every worker with long tasks, then a short-deadline
        # arrival starves in the retry loop and fails typed "deadline".
        for _ in range(10):
            cloud.submit(Task(work_mi=5000.0), on_finish=note)
        cloud.submit(Task(work_mi=100.0, deadline_s=0.5), on_finish=note)
        world.run_until(30.0)
        assert "deadline" in seen
        assert cloud.stats.failure_reasons.get("deadline") == 1
        assert world.metrics.counter("serve-vc/task_failures/deadline") == 1.0

    def test_cancel_queued_and_running_tasks(self):
        world, _v, cloud = build_cloud()
        running = cloud.submit(Task(work_mi=500.0))
        world.run_until(0.5)
        assert running.state in (TaskState.ASSIGNED, TaskState.RUNNING)
        assert cloud.cancel(running, "hedge_cancelled")
        assert running.state is TaskState.FAILED
        assert not cloud.cancel(running)  # already terminal
        assert cloud.stats.failure_reasons == {"hedge_cancelled": 1}
        world.run_until(20.0)
        assert cloud.accounting()["executions"] == 0

    def test_gates_exclude_workers_once_per_pass(self):
        world, _v, cloud = build_cloud()
        view = cloud.worker_view().ids
        lookups = []

        def dwell_lookup(worker):
            lookups.append(worker)
            return 1e9

        cloud.dwell_lookup = dwell_lookup
        # Among equal workers the greedy rank prefers the greatest id.
        excluded = max(view)
        passes = []

        def gate(task, worker_ids):
            passes.append(tuple(worker_ids))
            return {excluded}

        cloud.gates.append(gate)
        placed = cloud.submit(Task(work_mi=10))
        assert placed.worker_id is not None and placed.worker_id != excluded
        # One gate call per pass, with the pass's whole view, and the
        # excluded worker's dwell is still looked up.
        assert passes == [view]
        assert lookups == list(view)
        # A pass with no free worker still runs the gate, once.
        held = [
            cloud.pool.reserve(worker, cloud.pool.free_mips(worker))
            for worker in view
            if cloud.pool.free_mips(worker) > 0
        ]
        starved = cloud.submit(Task(work_mi=10))
        assert starved.worker_id is None
        assert passes == [view, view]
        for reservation in held:
            cloud.pool.release(reservation)
        # Excluding every worker leaves the task retrying.
        cloud.gates.append(lambda _task, worker_ids: set(worker_ids))
        world.run_for(3.5)
        assert starved.state is TaskState.PENDING
        assert cloud._retries[starved.task.task_id] == 4
        assert passes == [view] * 5

    def test_lease_eviction_trips_breaker(self):
        world, vehicles, cloud = build_cloud()
        board = CircuitBreakerBoard(world, "gw")
        ServiceGateway(
            world, cloud, name="gw", queue_capacity=8, breakers=board
        )
        cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        victim = vehicles[-1].vehicle_id
        cloud.mark_worker_crashed(victim)
        world.run_until(5.0)
        assert board.total_trips() == 1
        breaker = board.breaker_for(victim)
        assert breaker.trips == 1
        assert breaker.last_trip_reason == "lease_expiry"

    def test_accounting_balances_through_a_noisy_run(self):
        world, _v, cloud = build_cloud(seed=17, members=6)
        gateway = ServiceGateway(
            world, cloud, name="gw", queue_capacity=16,
            admission=DeadlineFeasibilityAdmission(),
            shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=3.0)],
            breakers=CircuitBreakerBoard(world, "gw"),
            hedging=HedgePolicy(),
        )
        cloud.enable_worker_leases(lease_duration_s=3.0, sweep_interval_s=1.0)
        tenants = [
            TenantSpec(name="a", arrivals=PoissonArrivals(4.0),
                       work_mi_range=(100.0, 300.0), deadline_s=8.0),
        ]
        WorkloadGenerator(world, gateway, tenants, horizon_s=30.0).start()
        world.engine.schedule_at(
            10.0, lambda: cloud.mark_worker_crashed(cloud.pool.member_ids()[-1]),
            label="test-crash",
        )
        world.run_until(60.0)
        acc = gateway.accounting()
        assert acc["offered"] == acc["admitted"] + acc["rejected"]
        assert acc["admitted"] == (
            acc["completed"] + acc["failed"] + acc["shed"]
            + acc["queued"] + acc["inflight"]
        )
        assert acc["queued"] == 0 and acc["inflight"] == 0
        stats = gateway.stats
        assert sum(stats.shed_reasons.values()) == stats.shed
        assert sum(stats.rejection_reasons.values()) == stats.rejected

    def test_unprotected_gateway_admits_everything(self):
        world, _v, cloud = build_cloud()
        gateway = ServiceGateway.unprotected(world, cloud)
        for _ in range(30):
            assert gateway.submit(request(work_mi=200.0, deadline_s=2.0))
        world.run_until(60.0)
        stats = gateway.stats
        assert stats.rejected == 0 and stats.shed == 0
        assert stats.completed == 30  # everything runs, however late
        assert stats.slo_misses > 0  # ...and lateness shows up as misses

    def test_seeded_run_metrics_byte_identical(self):
        def run():
            reset_global_ids()
            world, _v, cloud = build_cloud(seed=23, members=6)
            gateway = ServiceGateway(
                world, cloud, name="gw", queue_capacity=16,
                admission=DeadlineFeasibilityAdmission(),
                shedders=[QueueDelayShedder(max_delay_s=3.0)],
                breakers=CircuitBreakerBoard(world, "gw"),
                hedging=HedgePolicy(),
            )
            tenants = [
                TenantSpec(name="a", arrivals=PoissonArrivals(5.0),
                           work_mi_range=(100.0, 300.0), deadline_s=8.0),
            ]
            WorkloadGenerator(world, gateway, tenants, horizon_s=25.0).start()
            world.run_until(40.0)
            return world.metrics.snapshot()

        assert run() == run()
