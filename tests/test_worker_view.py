"""Stateful oracle test of a cloud's cached worker view.

``VehicularCloud.worker_view`` caches the eligible workers (the head left
out while another member exists) and their summed nameplate compute.
The gateway, the backlog estimator, the local tier and the candidate
scan all read it.  Any interleaving of admissions, departures (the head
included), federation-style writes straight to the membership and the
pool, direct ``head_id`` writes, reservations and task submissions must
leave every reader answering exactly what the uncached formulas below
answer: the member list without the head when there is more than one
member, summed in pool order, compared with ``==``.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import (
    BacklogEstimator,
    ResourceOffer,
    Task,
    VehicularCloud,
    WorkerCandidate,
    candidates_from_pool,
)
from repro.geometry import Vec2
from repro.mobility import SensorKind, StationaryModel
from repro.serve import CircuitBreakerBoard, ServiceGateway
from repro.sim import ScenarioConfig, World
from repro.tier import VCloudTier

VEHICLES = 8
#: A head id that is never a pool member, like an RSU coordinator's.
OUTSIDER_HEAD = "rsu-1"
WORKS = (1.0, 777.7, 123_456.789)
MIPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.1, max_value=5000.0, allow_nan=False, allow_infinity=False),
)
SENSORS = st.frozensets(
    st.sampled_from([SensorKind.CAMERA, SensorKind.LIDAR, SensorKind.GPS])
)


# -- the uncached formulas, as written before the view existed ---------------


def uncached_worker_ids(cloud):
    members = cloud.pool.member_ids()
    if cloud.head_id is not None and len(members) > 1:
        return [m for m in members if m != cloud.head_id]
    return members


def uncached_capacity(cloud):
    pool = cloud.pool
    return sum(pool.offer_of(worker).compute_mips for worker in uncached_worker_ids(cloud))


def uncached_gateway_runtime(cloud, work_mi):
    workers = uncached_worker_ids(cloud)
    if not workers:
        return float("inf")
    per_worker = uncached_capacity(cloud) / len(workers)
    if per_worker <= 0:
        return float("inf")
    return work_mi / per_worker


def uncached_tier_runtime(cloud, work_mi):
    workers = uncached_worker_ids(cloud)
    capacity = uncached_capacity(cloud)
    if not workers or capacity <= 0:
        return float("inf")
    return work_mi / (capacity / len(workers))


def uncached_candidates(cloud, task, dwell_lookup):
    """One candidate per member, then drop the head and the unassignable."""
    pool = cloud.pool
    candidates = []
    for vehicle_id in pool.member_ids():
        offer = pool.offer_of(vehicle_id)
        has_sensors = task.required_sensors.issubset(offer.sensors)
        candidates.append(
            WorkerCandidate(
                vehicle_id=vehicle_id,
                free_mips=pool.free_mips(vehicle_id),
                estimated_dwell_s=dwell_lookup(vehicle_id),
                has_required_sensors=has_sensors,
            )
        )
    if cloud.head_id is not None and len(candidates) > 1:
        candidates = [c for c in candidates if c.vehicle_id != cloud.head_id]
    return [c for c in candidates if c.free_mips > 0 and c.has_required_sensors]


class WorkerViewMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.world = World(ScenarioConfig(seed=11))
        model = StationaryModel(
            self.world, positions=[Vec2(i * 30.0, 0.0) for i in range(VEHICLES)]
        )
        self.vehicles = model.populate(VEHICLES)
        self.dwell = {v.vehicle_id: 40.0 * (i + 1) for i, v in enumerate(self.vehicles)}
        self.cloud = VehicularCloud(self.world, "view-vc", dwell_lookup=self.dwell.__getitem__)
        self.estimator = BacklogEstimator(self.cloud)
        self.gateway = ServiceGateway(
            self.world,
            self.cloud,
            breakers=CircuitBreakerBoard(self.world, "view"),
            backlog=self.estimator,
        )
        self.tier = VCloudTier(self.world, "local", "local", self.cloud)
        self.reservations = []

    def outsiders(self):
        return [v for v in self.vehicles if v.vehicle_id not in self.cloud.membership]

    def members(self):
        return self.cloud.pool.member_ids()

    # -- membership writes ---------------------------------------------------

    @precondition(lambda self: self.outsiders())
    @rule(data=st.data(), mips=MIPS, sensors=SENSORS)
    def admit(self, data, mips, sensors):
        vehicle = data.draw(st.sampled_from(self.outsiders()))
        offer = ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6, sensors)
        assert self.cloud.admit(vehicle, offer=offer)

    @precondition(lambda self: len(self.cloud.pool) > 0)
    @rule(data=st.data())
    def member_leave(self, data):
        member = data.draw(st.sampled_from(self.members()))
        self.cloud.member_leave(member)
        self.reservations = [r for r in self.reservations if r.vehicle_id != member]

    @precondition(lambda self: self.outsiders())
    @rule(data=st.data(), mips=MIPS, sensors=SENSORS)
    def federation_join(self, data, mips, sensors):
        """Federation's merge and split write the membership and pool directly."""
        vehicle = data.draw(st.sampled_from(self.outsiders()))
        self.cloud.membership.join(vehicle.vehicle_id, self.world.now, vehicle.position)
        self.cloud.pool.add_offer(ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6, sensors))

    @precondition(lambda self: len(self.cloud.pool) > 0)
    @rule(data=st.data(), mips=MIPS)
    def replace_offer(self, data, mips):
        member = data.draw(st.sampled_from(self.members()))
        self.cloud.pool.add_offer(ResourceOffer(member, mips, 10**9, 1e6))
        self.reservations = [r for r in self.reservations if r.vehicle_id != member]

    @rule(data=st.data())
    def write_head(self, data):
        """Elections, federation and tests assign ``head_id`` directly."""
        self.cloud.head_id = data.draw(
            st.sampled_from(self.members() + [OUTSIDER_HEAD, None])
        )

    # -- reservations and load -----------------------------------------------

    @precondition(lambda self: len(self.cloud.pool) > 0)
    @rule(data=st.data(), fraction=st.floats(min_value=0.0, max_value=1.0))
    def reserve(self, data, fraction):
        member = data.draw(st.sampled_from(self.members()))
        view = self.cloud.worker_view()
        free = self.cloud.pool.free_mips(member)
        if free > 0:
            self.reservations.append(self.cloud.pool.reserve(member, free * fraction))
        # Reservations leave nameplate capacity alone: no recompute.
        assert self.cloud.worker_view() is view

    @precondition(lambda self: self.reservations)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(min_value=0, max_value=len(self.reservations) - 1))
        view = self.cloud.worker_view()
        self.cloud.pool.release(self.reservations.pop(index))
        assert self.cloud.worker_view() is view

    @rule(work=st.floats(min_value=1.0, max_value=50_000.0), sensors=SENSORS)
    def submit(self, work, sensors):
        self.cloud.submit(Task(work_mi=work, required_sensors=sensors))

    @rule(seconds=st.floats(min_value=0.1, max_value=5.0))
    def advance(self, seconds):
        self.world.run_for(seconds)

    # -- the oracle ----------------------------------------------------------

    @invariant()
    def readers_match_uncached_formulas(self):
        cloud = self.cloud
        workers = uncached_worker_ids(cloud)
        capacity = uncached_capacity(cloud)
        assert self.gateway.worker_ids() == workers
        assert self.gateway.dispatch_slots() == max(1, len(workers))
        assert self.gateway.aggregate_capacity_mips() == capacity
        assert self.estimator.worker_ids() == workers
        assert self.estimator.aggregate_capacity_mips() == capacity
        assert self.estimator.signal(self.world.now, 100.0).workers == len(workers)
        assert self.tier.reachable() == (len(workers) > 0)
        for work in WORKS:
            assert self.gateway.estimated_runtime_s(work) == uncached_gateway_runtime(
                cloud, work
            )
            assert self.tier.estimated_runtime_s(work) == uncached_tier_runtime(cloud, work)

    @invariant()
    def candidates_match_uncached_list(self):
        cloud = self.cloud
        for sensors in (frozenset(), frozenset({SensorKind.CAMERA})):
            task = Task(work_mi=500.0, required_sensors=sensors)
            cached_calls, uncached_calls = [], []

            def cached_lookup(vehicle_id):
                cached_calls.append(vehicle_id)
                return self.dwell[vehicle_id]

            def uncached_lookup(vehicle_id):
                uncached_calls.append(vehicle_id)
                return self.dwell[vehicle_id]

            got = candidates_from_pool(
                cloud.pool, task, cached_lookup, cloud.worker_view().ids
            )
            want = uncached_candidates(cloud, task, uncached_lookup)
            assert got == want
            # The uncached lookups in the same order, less the dropped head's.
            assert cached_calls == uncached_worker_ids(cloud)
            assert len(uncached_calls) == len(cloud.pool)


WorkerViewMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestWorkerViewStateMachine = WorkerViewMachine.TestCase


class TestWorkerView:
    def build(self, world, members=4):
        model = StationaryModel(world, positions=[Vec2(i * 30.0, 0.0) for i in range(members)])
        vehicles = model.populate(members)
        cloud = VehicularCloud(world, "vc")
        for index, vehicle in enumerate(vehicles):
            cloud.admit(
                vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0 * (index + 1), 10**9, 1e6)
            )
        return vehicles, cloud

    def test_reads_share_one_view_until_membership_changes(self, world):
        vehicles, cloud = self.build(world)
        view = cloud.worker_view()
        assert view.ids == tuple(v.vehicle_id for v in vehicles[1:])
        assert view.capacity_mips == 200.0 + 300.0 + 400.0
        assert cloud.worker_view() is view
        reservation = cloud.pool.reserve(vehicles[1].vehicle_id, 50.0)
        cloud.pool.release(reservation)
        assert cloud.worker_view() is view
        cloud.member_leave(vehicles[2].vehicle_id)
        assert cloud.worker_view().ids == (vehicles[1].vehicle_id, vehicles[3].vehicle_id)
