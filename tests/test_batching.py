"""Tests for small-task batching in the serving gateway."""

from __future__ import annotations

import pytest

from repro.chaos import InvariantSuite, ServingConservation
from repro.core import CheckpointHandoverPolicy, ResourceOffer, VehicularCloud
from repro.errors import ConfigurationError
from repro.geometry import Vec2
from repro.mobility import StationaryModel
from repro.serve import (
    BatchingPolicy,
    CircuitBreakerBoard,
    CompositeAdmission,
    DeadlineFeasibilityAdmission,
    DeadlineLapseShedder,
    HedgePolicy,
    PoissonArrivals,
    QueueDelayShedder,
    ServiceGateway,
    ServiceRequest,
    TenantFairShareAdmission,
    TenantSpec,
    WorkloadGenerator,
)
from repro.sim import ScenarioConfig, World


def build_cloud(world, members=5, mips=100.0, name="batch-vc"):
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    cloud = VehicularCloud(
        world, name, handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6)
        )
    return vehicles, cloud


def small(tenant="t", work_mi=40.0, priority=1, deadline_s=60.0):
    return ServiceRequest.build(
        work_mi=work_mi, tenant=tenant, priority=priority, deadline_s=deadline_s
    )


def gateway_with_batching(world, cloud, **kwargs):
    kwargs.setdefault("batching", BatchingPolicy(
        max_batch_size=4, max_member_work_mi=50.0, max_batch_work_mi=200.0
    ))
    kwargs.setdefault("queue_capacity", 64)
    kwargs.setdefault("max_dispatch_concurrency", 1)
    return ServiceGateway(world, cloud, **kwargs)


def assert_conserved(gateway):
    acc = gateway.accounting()
    assert acc["offered"] == acc["admitted"] + acc["rejected"]
    assert acc["admitted"] == (
        acc["completed"] + acc["failed"] + acc["shed"]
        + acc["queued"] + acc["inflight"]
    )


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingPolicy(max_batch_size=1)
        with pytest.raises(ConfigurationError):
            BatchingPolicy(max_member_work_mi=0.0)
        with pytest.raises(ConfigurationError):
            BatchingPolicy(max_member_work_mi=100.0, max_batch_work_mi=50.0)

    def test_eligibility_is_size_bound(self):
        policy = BatchingPolicy(max_member_work_mi=50.0)
        assert policy.eligible(small(work_mi=50.0))
        assert not policy.eligible(small(work_mi=51.0))

    def test_compatibility_requires_tenant_and_priority(self):
        policy = BatchingPolicy()
        anchor = small(tenant="a", priority=1)
        assert policy.compatible(anchor, small(tenant="a", priority=1))
        assert not policy.compatible(anchor, small(tenant="b", priority=1))
        assert not policy.compatible(anchor, small(tenant="a", priority=2))
        assert not policy.compatible(anchor, small(tenant="a", work_mi=500.0))


class TestBatchDispatch:
    def _congest(self, world, gateway):
        """Fill the single dispatch slot so later arrivals queue."""
        blocker = ServiceRequest.build(work_mi=400.0, tenant="big", deadline_s=60.0)
        assert gateway.submit(blocker)
        return blocker

    def test_queued_smalls_coalesce_into_one_dispatch(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        self._congest(world, gateway)
        for _ in range(3):
            assert gateway.submit(small())
        # While the blocker runs the smalls are queued requests.
        acc = gateway.accounting()
        assert acc["queued"] == 3 and acc["inflight"] == 1
        assert_conserved(gateway)
        world.run_until(30.0)
        assert gateway.stats.batches_dispatched == 1
        assert gateway.stats.batched_requests == 3
        assert gateway.stats.completed == 4
        assert gateway.stats.slo_hits == 4
        assert_conserved(gateway)

    def test_inflight_counts_members_not_dispatches(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        self._congest(world, gateway)
        for _ in range(3):
            gateway.submit(small())
        world.run_until(4.5)  # blocker done (4s), batch now in flight
        acc = gateway.accounting()
        assert acc["inflight"] == 3 and acc["queued"] == 0
        assert len(gateway._inflight) == 1
        assert_conserved(gateway)
        world.run_until(30.0)
        assert gateway.stats.completed == 4

    def test_different_tenants_do_not_batch(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        self._congest(world, gateway)
        gateway.submit(small(tenant="a"))
        gateway.submit(small(tenant="b"))
        gateway.submit(small(tenant="c"))
        world.run_until(30.0)
        assert gateway.stats.batches_dispatched == 0
        assert gateway.stats.completed == 4
        assert_conserved(gateway)

    def test_batch_respects_size_and_work_caps(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(
            world, cloud,
            batching=BatchingPolicy(
                max_batch_size=2, max_member_work_mi=50.0, max_batch_work_mi=60.0
            ),
        )
        self._congest(world, gateway)
        for _ in range(3):
            gateway.submit(small(work_mi=40.0))
        world.run_until(30.0)
        # 40 + 40 breaches the 60 MI batch budget, and the size cap is 2,
        # so every small dispatches alone.
        assert gateway.stats.batches_dispatched == 0
        assert gateway.stats.completed == 4

    def test_large_requests_never_batch(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        self._congest(world, gateway)
        gateway.submit(small(work_mi=300.0))  # too big to anchor
        gateway.submit(small())
        gateway.submit(small())
        world.run_until(30.0)
        # The big one dispatched alone; the two smalls behind it batched.
        assert gateway.stats.batches_dispatched == 1
        assert gateway.stats.batched_requests == 2
        assert gateway.stats.completed == 4

    def test_batch_deadline_is_tightest_member_budget(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        members = [
            small(deadline_s=50.0),
            small(deadline_s=20.0),
            small(deadline_s=40.0),
        ]
        task = gateway._batch_task(members)
        assert task.deadline_s == pytest.approx(20.0)
        assert task.work_mi == pytest.approx(120.0)

    def test_batch_failure_accounts_every_member(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud)
        self._congest(world, gateway)
        for _ in range(3):
            gateway.submit(small())
        world.run_until(4.5)  # batch in flight
        dispatch = next(iter(gateway._inflight.values()))
        assert len(dispatch.members) == 3
        cloud.cancel(dispatch.race.handles[0], "test_fault")
        assert gateway.stats.failed == 3
        assert_conserved(gateway)

    def test_batches_skip_hedging(self, world):
        _v, cloud = build_cloud(world)
        gateway = gateway_with_batching(world, cloud, hedging=HedgePolicy())
        self._congest(world, gateway)
        for _ in range(3):
            gateway.submit(small())
        world.run_until(4.5)
        dispatch = next(iter(gateway._inflight.values()))
        assert len(dispatch.members) == 3
        assert dispatch.hedge_check is None
        world.run_until(30.0)
        assert gateway.stats.completed == 4
        assert_conserved(gateway)

    def test_unbatched_gateway_unchanged(self, world):
        _v, cloud = build_cloud(world)
        gateway = ServiceGateway(
            world, cloud, queue_capacity=64, max_dispatch_concurrency=1
        )
        self._congest(world, gateway)
        for _ in range(3):
            gateway.submit(small())
        world.run_until(30.0)
        assert gateway.stats.batches_dispatched == 0
        assert gateway.stats.completed == 4
        assert_conserved(gateway)


class TestBatchingUnderOverload:
    def test_overloaded_gateway_sheds_batches_and_stays_conserved(self):
        """Open-loop traffic at about 2x the fleet's capacity behind the
        protected, hedging gateway: the shedder fires, queued telemetry
        smalls coalesce into batches, every shed and rejected request
        carries a typed reason, ServingConservation holds at every
        periodic check, and the drain window empties the gateway."""
        world = World(ScenarioConfig(seed=1916))
        _v, cloud = build_cloud(world, members=8, name="smoke-vc")
        gateway = ServiceGateway(
            world,
            cloud,
            name="smoke",
            queue_capacity=32,
            admission=CompositeAdmission([
                DeadlineFeasibilityAdmission(),
                TenantFairShareAdmission(share=0.7),
            ]),
            shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
            breakers=CircuitBreakerBoard(world, "smoke"),
            hedging=HedgePolicy(),
            batching=BatchingPolicy(
                max_batch_size=4, max_member_work_mi=50.0, max_batch_work_mi=160.0
            ),
        )
        # 7 workers x 100 MIPS vs ~200 MI tasks is 3.5 tasks/s; bulk and
        # interactive offer 7/s, plus batchable telemetry smalls.
        tenants = [
            TenantSpec(
                name="bulk", arrivals=PoissonArrivals(4.9),
                work_mi_range=(150.0, 250.0), deadline_s=8.0, priority=2,
            ),
            TenantSpec(
                name="interactive", arrivals=PoissonArrivals(2.1),
                work_mi_range=(100.0, 200.0), deadline_s=6.0, priority=1,
            ),
            TenantSpec(
                name="telemetry", arrivals=PoissonArrivals(10.0),
                work_mi_range=(20.0, 40.0), deadline_s=6.0, priority=1,
            ),
        ]
        WorkloadGenerator(world, gateway, tenants, horizon_s=60.0).start()
        suite = InvariantSuite([ServingConservation(gateway)], metrics=world.metrics)
        suite.attach(world, check_interval_s=0.5)
        world.run_until(60.0 + 30.0)

        stats = gateway.stats
        assert stats.shed > 0, "load shedder never fired under 2x overload"
        assert stats.batches_dispatched > 0, "no batch coalesced under overload"
        assert sum(stats.shed_reasons.values()) == stats.shed
        assert sum(stats.rejection_reasons.values()) == stats.rejected
        assert suite.checks_run > 0
        assert suite.violations == []
        acc = gateway.accounting()
        assert acc["offered"] == acc["admitted"] + acc["rejected"]
        assert acc["queued"] == 0 and acc["inflight"] == 0
