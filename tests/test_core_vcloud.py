"""Integration tests for the VehicularCloud orchestrator and architectures."""

from __future__ import annotations

import pytest

from repro.core import (
    DropPolicy,
    DynamicVCloud,
    InfrastructureVCloud,
    RsuCoordination,
    StationaryVCloud,
    Task,
    TaskState,
    V2VCoordination,
    VehicularCloud,
)
from repro.errors import ResourceError
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.infra import Rsu, deploy_rsus_on_highway
from repro.mobility import (
    Highway,
    HighwayModel,
    ParkingLotModel,
    StationaryModel,
)
from repro.net import WirelessChannel
from repro.security import TrustedAuthority
from repro.security.protocols import PseudonymAuthProtocol
from repro.sim import ScenarioConfig, World


def static_cloud(world, members=4, mips=1000.0):
    """A cloud of stationary vehicles (no churn) for focused task tests."""
    model = StationaryModel(world, positions=[Vec2(i * 50.0, 0) for i in range(members)])
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "test-vc")
    from repro.core import ResourceOffer

    for vehicle in vehicles:
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6),
        )
    return model, vehicles, cloud


class TestTaskExecution:
    def test_task_completes(self, world):
        _model, _vehicles, cloud = static_cloud(world)
        record = cloud.submit(Task(work_mi=1000))
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED
        assert record.completion_latency_s == pytest.approx(1.0, abs=0.5)
        assert cloud.stats.completion_rate == 1.0

    def test_deadline_accounting(self, world):
        _m, _v, cloud = static_cloud(world)
        met = cloud.submit(Task(work_mi=100, deadline_s=10.0))
        missed = cloud.submit(Task(work_mi=100_000, deadline_s=1.0))
        world.run_for(200.0)
        assert met.met_deadline() is True
        assert missed.met_deadline() is False
        assert cloud.stats.deadline_hits == 1
        assert cloud.stats.deadline_misses == 1

    def test_head_does_not_self_assign(self, world):
        _m, vehicles, cloud = static_cloud(world, members=3)
        records = [cloud.submit(Task(work_mi=100)) for _ in range(6)]
        world.run_for(30.0)
        for record in records:
            assert cloud.head_id not in record.workers_history

    def test_single_member_cloud_self_assigns(self, world):
        _m, vehicles, cloud = static_cloud(world, members=1)
        record = cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED

    def test_no_members_retries_then_fails(self, world):
        cloud = VehicularCloud(world, "empty-vc", max_assignment_retries=3)
        record = cloud.submit(Task(work_mi=100))
        world.run_for(30.0)
        assert record.state is TaskState.FAILED
        assert cloud.stats.failed == 1

    def test_parallel_tasks_spread_across_workers(self, world):
        _m, vehicles, cloud = static_cloud(world, members=5)
        records = [cloud.submit(Task(work_mi=2000)) for _ in range(4)]
        world.run_for(0.5)
        workers = {r.worker_id for r in records if r.worker_id}
        assert len(workers) == 4  # one busy worker per task

    def test_metrics_track_submissions(self, world):
        _m, _v, cloud = static_cloud(world)
        for _ in range(5):
            cloud.submit(Task(work_mi=10))
        world.run_for(10.0)
        assert cloud.stats.submitted == 5
        assert cloud.stats.completed == 5

    def test_reservation_race_retries(self, world, monkeypatch):
        _m, _v, cloud = static_cloud(world)
        reserve = cloud.pool.reserve
        lost = []

        def race_once(*args, **kwargs):
            if not lost:
                lost.append(True)
                raise ResourceError("taken by a concurrent assignment")
            return reserve(*args, **kwargs)

        monkeypatch.setattr(cloud.pool, "reserve", race_once)
        record = cloud.submit(Task(work_mi=100))
        assert record.state is TaskState.PENDING
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED

    def test_reserve_defect_propagates(self, world, monkeypatch):
        """Only ResourceError is a reservation race; a defect must surface."""
        _m, _v, cloud = static_cloud(world)

        def broken_reserve(*_args, **_kwargs):
            raise TypeError("allocator defect")

        monkeypatch.setattr(cloud.pool, "reserve", broken_reserve)
        with pytest.raises(TypeError, match="allocator defect"):
            cloud.submit(Task(work_mi=100))


class TestChurnAndHandover:
    def test_departure_triggers_handover(self, world):
        _m, vehicles, cloud = static_cloud(world, members=3, mips=100.0)
        record = cloud.submit(Task(work_mi=1000))  # 10s of work
        world.run_for(3.0)
        assert record.state is TaskState.RUNNING
        worker = record.worker_id
        cloud.member_leave(worker)
        world.run_for(30.0)
        assert record.state is TaskState.COMPLETED
        assert record.handovers == 1
        assert worker not in (record.worker_id,)
        assert cloud.stats.handovers == 1

    def test_handover_preserves_progress(self, world):
        _m, vehicles, cloud = static_cloud(world, members=3, mips=100.0)
        record = cloud.submit(Task(work_mi=1000))
        world.run_for(6.0)  # over half done
        first_worker = record.worker_id
        cloud.member_leave(first_worker)
        world.run_for(1.0)
        assert record.progress > 0.4

    def test_drop_policy_wastes_work(self, world):
        model = StationaryModel(world, positions=[Vec2(i * 50.0, 0) for i in range(3)])
        vehicles = model.populate(3)
        cloud = VehicularCloud(world, "drop-vc", handover_policy=DropPolicy())
        from repro.core import ResourceOffer

        for vehicle in vehicles:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6))
        record = cloud.submit(Task(work_mi=1000))
        world.run_for(6.0)
        cloud.member_leave(record.worker_id)
        world.run_for(1.0)
        assert record.progress == 0.0
        assert cloud.stats.wasted_work_mi > 0
        assert cloud.stats.drops == 1

    def test_handover_at_the_finish_instant_completes(self):
        """A worker that leaves at the instant its task finishes checkpoints
        just under all of it, so the handover's run starts and finishes at
        one instant; its start must still come before its completion."""

        def build():
            reset_global_ids()
            world = World(ScenarioConfig(seed=1234))
            return world, static_cloud(world, members=3, mips=100.0)[2]

        world, cloud = build()
        record = cloud.submit(Task(work_mi=100))
        execution = cloud._executions[record.task.task_id]
        finish_at = execution.started_at + execution.runtime_s
        worker = record.worker_id

        world, cloud = build()
        world.engine.schedule_at(finish_at, lambda: cloud.member_leave(worker), label="leave")
        record = cloud.submit(Task(work_mi=100))
        assert record.worker_id == worker
        world.run_for(30.0)
        assert record.handovers == 1
        assert record.state is TaskState.COMPLETED
        assert cloud.stats.completed == 1

    def test_head_departure_promotes_new_head(self, world):
        _m, vehicles, cloud = static_cloud(world)
        old_head = cloud.head_id
        cloud.member_leave(old_head)
        assert cloud.head_id is not None
        assert cloud.head_id != old_head


class TestAdmission:
    def test_rejected_offer_leaves_the_cloud_untouched(self, world):
        model, _vehicles, cloud = static_cloud(world, members=2)
        cloud.enable_worker_leases(lease_duration_s=5.0)
        (newcomer,) = model.populate(1)
        members = cloud.membership.member_ids()
        leases = cloud.leases.held()
        version = cloud.pool.version
        with pytest.raises(ResourceError):
            cloud.admit(newcomer, lend_fraction=0.0)
        assert cloud.membership.member_ids() == members
        assert cloud.leases.held() == leases
        assert newcomer.vehicle_id not in cloud.pool
        assert cloud.pool.version == version


class TestAuthenticatedAdmission:
    def test_enrolled_vehicles_admitted(self, world):
        authority = TrustedAuthority()
        protocol = PseudonymAuthProtocol(authority)
        model = StationaryModel(world, positions=[Vec2(0, 0), Vec2(50, 0)])
        vehicles = model.populate(2)
        for vehicle in vehicles:
            protocol.enroll(vehicle.vehicle_id)
        cloud = VehicularCloud(world, "auth-vc", auth_protocol=protocol)
        assert cloud.admit(vehicles[0])  # first member becomes head, no handshake
        assert cloud.admit(vehicles[1])
        assert cloud.member_count() == 2

    def test_unenrolled_vehicle_rejected(self, world):
        authority = TrustedAuthority()
        protocol = PseudonymAuthProtocol(authority)
        model = StationaryModel(world, positions=[Vec2(0, 0), Vec2(50, 0)])
        vehicles = model.populate(2)
        protocol.enroll(vehicles[0].vehicle_id)
        cloud = VehicularCloud(world, "auth-vc", auth_protocol=protocol)
        cloud.admit(vehicles[0])
        assert not cloud.admit(vehicles[1])  # never enrolled
        assert cloud.stats.auth_failures == 1
        assert cloud.member_count() == 1


class TestCoordinationAdapters:
    def test_rsu_coordination_counts_infra_messages(self, world):
        channel = WirelessChannel(world)
        rsu = Rsu(world, channel, Vec2(0, 0))
        model = StationaryModel(world, positions=[Vec2(10, 0), Vec2(20, 0)])
        vehicles = model.populate(2)
        cloud = VehicularCloud(
            world, "rsu-vc", coordination=RsuCoordination(rsu), head_id=rsu.node_id
        )
        for vehicle in vehicles:
            cloud.admit(vehicle)
        record = cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED
        assert cloud.stats.infra_messages == 4

    def test_v2v_coordination_is_infra_free(self, world):
        _m, _v, cloud = static_cloud(world)
        cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert cloud.stats.infra_messages == 0

    def test_rsu_latency_includes_backhaul(self, world):
        channel = WirelessChannel(world)
        rsu = Rsu(world, channel, Vec2(0, 0))
        rsu_adapter = RsuCoordination(rsu)
        v2v = V2VCoordination()
        assert rsu_adapter.coordination_latency_s(1000) > v2v.coordination_latency_s(1000)

    def test_damaged_rsu_blocks_coordination(self, world):
        channel = WirelessChannel(world)
        rsu = Rsu(world, channel, Vec2(0, 0))
        adapter = RsuCoordination(rsu)
        assert adapter.available()
        rsu.damage()
        assert not adapter.available()


class TestArchitectures:
    def test_stationary_cloud_runs_tasks(self):
        world = World(ScenarioConfig(seed=21))
        lot = ParkingLotModel(world, departure_rate_per_hour=0.0)
        lot.populate(10)
        lot.start()
        arch = StationaryVCloud(world, lot)
        arch.start()
        records = [arch.cloud.submit(Task(work_mi=500)) for _ in range(5)]
        world.run_for(60.0)
        assert all(r.state is TaskState.COMPLETED for r in records)

    def test_stationary_battery_limit_reduces_offers(self):
        world = World(ScenarioConfig(seed=22))
        lot = ParkingLotModel(world, departure_rate_per_hour=0.0)
        vehicles = lot.populate(4)
        arch = StationaryVCloud(world, lot, battery_lend_fraction=0.25)
        arch.start()
        for vehicle in vehicles:
            offered = arch.cloud.pool.offer_of(vehicle.vehicle_id).compute_mips
            assert offered == pytest.approx(vehicle.equipment.compute_mips * 0.25)

    def test_stationary_cloud_handles_departures(self):
        world = World(ScenarioConfig(seed=23))
        lot = ParkingLotModel(world, departure_rate_per_hour=1800.0, arrivals_enabled=False)
        lot.populate(20)
        lot.start()
        arch = StationaryVCloud(world, lot)
        arch.start()
        world.run_for(60.0)
        assert arch.cloud.member_count() == len(lot.vehicles)

    def test_infrastructure_cloud_membership_tracks_coverage(self):
        world = World(ScenarioConfig(seed=24))
        highway = Highway(length_m=4000)
        model = HighwayModel(world, highway)
        model.populate(30)
        model.start()
        channel = WirelessChannel(world)
        rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=2000)
        arch = InfrastructureVCloud(world, rsus[0], model)
        arch.start()
        world.run_for(10.0)
        rsu = rsus[0]
        for member_id in arch.cloud.membership.member_ids():
            vehicle = next(v for v in model.vehicles if v.vehicle_id == member_id)
            assert rsu.covers(vehicle.position)

    def test_infrastructure_cloud_dies_with_rsu(self):
        world = World(ScenarioConfig(seed=25))
        highway = Highway(length_m=3000)
        model = HighwayModel(world, highway)
        model.populate(20)
        model.start()
        channel = WirelessChannel(world)
        rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500)
        arch = InfrastructureVCloud(world, rsus[0], model)
        arch.start()
        world.run_for(5.0)
        assert arch.cloud.member_count() > 0
        rsus[0].damage()
        world.run_for(5.0)
        assert arch.cloud.member_count() == 0
        record = arch.cloud.submit(Task(work_mi=100, deadline_s=5.0))
        world.run_for(20.0)
        assert record.state is TaskState.FAILED

    def test_dynamic_cloud_completes_tasks_under_motion(self):
        world = World(ScenarioConfig(seed=26, vehicle_count=40))
        model = HighwayModel(world, Highway(length_m=4000))
        model.populate(40)
        model.start()
        arch = DynamicVCloud(world, model)
        arch.start()
        records = [arch.cloud.submit(Task(work_mi=1000, deadline_s=60)) for _ in range(10)]
        world.run_for(90.0)
        completed = sum(1 for r in records if r.state is TaskState.COMPLETED)
        assert completed >= 8

    def test_dynamic_cloud_survives_without_infrastructure(self):
        """The paper's core claim: dynamic v-clouds need no RSUs at all."""
        world = World(ScenarioConfig(seed=27))
        model = HighwayModel(world, Highway(length_m=3000))
        model.populate(30)
        model.start()
        arch = DynamicVCloud(world, model)
        arch.start()
        record = arch.cloud.submit(Task(work_mi=500))
        world.run_for(30.0)
        assert record.state is TaskState.COMPLETED
        assert arch.cloud.stats.infra_messages == 0

    def test_dynamic_cloud_holds_elections(self):
        world = World(ScenarioConfig(seed=28))
        model = HighwayModel(world, Highway(length_m=2000))
        model.populate(20)
        model.start()
        arch = DynamicVCloud(world, model, reelection_interval_s=5.0)
        arch.start()
        world.run_for(60.0)
        assert arch.elections_held >= 1
        assert arch.cloud.head_id is not None

    def test_dynamic_cloud_membership_is_local(self):
        world = World(ScenarioConfig(seed=29))
        model = HighwayModel(world, Highway(length_m=10_000))
        model.populate(40)
        model.start()
        arch = DynamicVCloud(world, model, coordination_range_m=300.0)
        arch.start()
        world.run_for(5.0)
        head = arch._head_vehicle()
        for member_id in arch.cloud.membership.member_ids():
            vehicle = arch._find_vehicle(member_id)
            if vehicle is not None and head is not None:
                assert vehicle.position.distance_to(head.position) <= 600.0


class TestGeometryCoordination:
    def test_farther_worker_pays_more_latency(self, world):
        from repro.core import GeometryCoordination
        from repro.net import VehicleNode, WirelessChannel

        channel = WirelessChannel(world)
        model = StationaryModel(
            world, positions=[Vec2(0, 0), Vec2(50, 0), Vec2(280, 0)]
        )
        vehicles = model.populate(3)
        for vehicle in vehicles:
            VehicleNode(world, channel, vehicle)
        adapter = GeometryCoordination(channel)
        head_id = vehicles[0].vehicle_id
        near = adapter.latency_for(head_id, vehicles[1].vehicle_id, 10_000)
        far = adapter.latency_for(head_id, vehicles[2].vehicle_id, 10_000)
        assert far > near

    def test_unknown_endpoints_fall_back(self, world):
        from repro.core import GeometryCoordination
        from repro.net import WirelessChannel

        adapter = GeometryCoordination(WirelessChannel(world))
        fallback = adapter.latency_for("ghost-a", "ghost-b", 5_000)
        assert fallback == pytest.approx(adapter.coordination_latency_s(5_000))

    def test_cloud_runs_with_geometry_pricing(self, world):
        from repro.core import GeometryCoordination
        from repro.net import VehicleNode, WirelessChannel

        channel = WirelessChannel(world)
        model = StationaryModel(
            world, positions=[Vec2(i * 60.0, 0) for i in range(4)]
        )
        vehicles = model.populate(4)
        for vehicle in vehicles:
            VehicleNode(world, channel, vehicle)
        cloud = VehicularCloud(
            world, "geo-vc", coordination=GeometryCoordination(channel)
        )
        from repro.core import ResourceOffer

        for vehicle in vehicles:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 1000, 10**9, 1e6))
        record = cloud.submit(Task(work_mi=500))
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED


class TestCancelEdgeCases:
    """`cancel(record, reason)` stays conserved on every edge path."""

    @staticmethod
    def _assert_conserved(cloud):
        acc = cloud.accounting()
        assert acc["submitted"] == acc["records"]
        assert acc["completed"] == acc["records_completed"]
        assert acc["failed"] == acc["records_failed"]
        assert acc["submitted"] == (
            acc["completed"] + acc["failed"] + acc["records_in_flight"]
        )

    def test_cancel_after_handover(self, world):
        """A handed-over (requeued) task can still be cancelled typed."""
        _m, _v, cloud = static_cloud(world, members=3, mips=100.0)
        record = cloud.submit(Task(work_mi=1000))  # 10 s of work
        world.run_for(3.0)
        assert record.state is TaskState.RUNNING
        cloud.member_leave(record.worker_id)
        assert record.state is TaskState.HANDED_OVER
        assert record.progress > 0.0
        assert cloud.cancel(record, "caller_gone") is True
        assert record.state is TaskState.FAILED
        assert cloud.stats.failure_reasons == {"caller_gone": 1}
        self._assert_conserved(cloud)
        world.run_for(30.0)  # any stale retry events must be no-ops
        assert record.state is TaskState.FAILED
        assert cloud.stats.failure_reasons == {"caller_gone": 1}
        self._assert_conserved(cloud)

    def test_double_cancel_counts_once(self, world):
        _m, _v, cloud = static_cloud(world, members=3, mips=100.0)
        record = cloud.submit(Task(work_mi=1000))
        world.run_for(1.0)
        assert cloud.cancel(record, "first") is True
        assert cloud.cancel(record, "second") is False
        assert cloud.stats.failure_reasons == {"first": 1}
        assert cloud.stats.failed == 1
        self._assert_conserved(cloud)

    def test_cancel_completed_record_is_refused(self, world):
        _m, _v, cloud = static_cloud(world, members=3, mips=100.0)
        record = cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert record.state is TaskState.COMPLETED
        assert cloud.cancel(record, "too_late") is False
        assert record.state is TaskState.COMPLETED
        assert cloud.stats.failure_reasons == {}
        assert cloud.stats.completed == 1
        self._assert_conserved(cloud)

    def test_cancel_running_releases_worker(self, world):
        """Cancelling an executing task frees the reservation for new work."""
        _m, _v, cloud = static_cloud(world, members=2, mips=100.0)
        record = cloud.submit(Task(work_mi=5000))  # 50 s on the lone worker
        world.run_for(1.0)
        worker = record.worker_id
        assert cloud.cancel(record, "superseded") is True
        self._assert_conserved(cloud)
        follow_up = cloud.submit(Task(work_mi=100))
        world.run_for(10.0)
        assert follow_up.state is TaskState.COMPLETED
        assert follow_up.worker_id == worker
        self._assert_conserved(cloud)
