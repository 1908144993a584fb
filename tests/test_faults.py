"""Tests for the fault-injection subsystem (`repro.faults`)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FrameDuplicator,
    JitterSpike,
    LossBurst,
    Partition,
)
from repro.faults.plan import FaultSpec
from repro.core import (
    CheckpointHandoverPolicy,
    DropPolicy,
    ResourceOffer,
    Task,
    TaskState,
    VehicularCloud,
)
from repro.geometry import Vec2
from repro.infra import Rsu
from repro.mobility import StationaryModel, Vehicle
from repro.net import Message, MessageKind, VehicleNode, WirelessChannel
from repro.sim import ChannelConfig, ScenarioConfig, World


def lossless_world(seed: int = 7) -> World:
    channel_config = ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0)
    return World(ScenarioConfig(seed=seed, channel=channel_config))


def make_cloud(world, members=4, mips=1000.0, handover_policy=None):
    model = StationaryModel(world, positions=[Vec2(i * 40.0, 0) for i in range(members)])
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "fault-vc", handover_policy=handover_policy)
    for vehicle in vehicles:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6))
    return vehicles, cloud


def make_pair(world, channel):
    a = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)), radio_range_m=300.0)
    b = VehicleNode(world, channel, Vehicle(position=Vec2(50, 0)), radio_range_m=300.0)
    return a, b


def data(src, dst, when, size=100):
    return Message(
        kind=MessageKind.DATA,
        src=src,
        dst=dst,
        payload={},
        size_bytes=size,
        created_at=when,
    )


class TestFaultPlan:
    def test_builders_chain_and_sort(self):
        plan = (
            FaultPlan(seed=1)
            .crash(30.0, target="veh-3")
            .stall(10.0, duration_s=5.0)
            .loss_burst(20.0, duration_s=4.0, drop_probability=0.5)
        )
        kinds = [spec.kind for spec in plan.schedule()]
        assert kinds == ["stall", "loss_burst", "crash"]
        assert len(plan) == 3

    def test_same_seed_byte_identical_schedule(self):
        def build(seed):
            return (
                FaultPlan(seed)
                .random_crashes(5, window=(10.0, 120.0))
                .partition(40.0, duration_s=8.0, fraction=0.5)
                .disaster(60.0, fraction=0.4, repair_start_s=30.0, repair_interval_s=5.0)
                .describe()
            )

        assert build(42) == build(42)
        assert build(42) != build(43)

    def test_random_crashes_draw_targets_up_front(self):
        targets = [f"veh-{i}" for i in range(6)]
        plan = FaultPlan(5).random_crashes(3, window=(0.0, 50.0), targets=targets)
        victims = [spec.param("target") for spec in plan.schedule()]
        assert len(set(victims)) == 3
        assert all(victim in targets for victim in victims)

    def test_families(self):
        plan = (
            FaultPlan(1)
            .crash(1.0)
            .jitter_spike(2.0, duration_s=1.0, max_extra_delay_s=0.5)
            .rsu_flap(3.0, cycles=2, down_s=1.0, up_s=1.0)
        )
        families = [spec.family for spec in plan.schedule()]
        assert families == ["process", "network", "infrastructure"]

    def test_validation(self):
        plan = FaultPlan(1)
        with pytest.raises(ConfigurationError):
            plan.stall(1.0, duration_s=0.0)
        with pytest.raises(ConfigurationError):
            plan.loss_burst(1.0, duration_s=1.0, drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            plan.duplication(1.0, duration_s=1.0, probability=0.5, copies=0)
        with pytest.raises(ConfigurationError):
            plan.random_crashes(3, window=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            plan.random_crashes(3, window=(0.0, 10.0), targets=["only-one"])
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor", at=1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", at=-1.0)


class TestNetworkFaults:
    def test_loss_burst_drops_inside_window_only(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        burst = LossBurst(world, start=5.0, duration_s=5.0, drop_probability=1.0)
        channel.add_interceptor(burst)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(world.now))

        a.send(b.node_id, data(a.node_id, b.node_id, world.now))  # before window
        world.engine.schedule_at(
            6.0, lambda: a.send(b.node_id, data(a.node_id, b.node_id, 6.0))
        )
        world.engine.schedule_at(
            12.0, lambda: a.send(b.node_id, data(a.node_id, b.node_id, 12.0))
        )
        world.run_for(15.0)
        assert len(received) == 2
        assert burst.triggered == 1
        assert world.metrics.counter("faults/frames_dropped") == 1

    def test_loss_burst_scoped_to_node_ids(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        c = VehicleNode(world, channel, Vehicle(position=Vec2(100, 0)), radio_range_m=300.0)
        burst = LossBurst(
            world, start=0.0, duration_s=10.0, drop_probability=1.0, node_ids=[c.node_id]
        )
        channel.add_interceptor(burst)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(frm))
        c.on(MessageKind.DATA, lambda msg, frm: received.append(frm))
        a.send(b.node_id, data(a.node_id, b.node_id, 0.0))  # unaffected pair
        a.send(c.node_id, data(a.node_id, c.node_id, 0.0))  # involved node
        world.run_for(5.0)
        assert received == [a.node_id]

    def test_partition_cuts_both_directions(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        cut = Partition(world, 0.0, 10.0, group_a=[a.node_id], group_b=[b.node_id])
        channel.add_interceptor(cut)
        received = []
        a.on(MessageKind.DATA, lambda msg, frm: received.append("a"))
        b.on(MessageKind.DATA, lambda msg, frm: received.append("b"))
        a.send(b.node_id, data(a.node_id, b.node_id, 0.0))
        b.send(a.node_id, data(b.node_id, a.node_id, 0.0))
        world.run_for(5.0)
        assert received == []
        assert cut.triggered == 2

    def test_partition_heals_after_window(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        cut = Partition(world, 0.0, 2.0, group_a=[a.node_id], group_b=[b.node_id])
        channel.add_interceptor(cut)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(world.now))
        world.engine.schedule_at(
            3.0, lambda: a.send(b.node_id, data(a.node_id, b.node_id, 3.0))
        )
        world.run_for(5.0)
        assert len(received) == 1

    def test_jitter_spike_delays_delivery(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        arrivals = []
        b.on(MessageKind.DATA, lambda msg, frm: arrivals.append(world.now))
        a.send(b.node_id, data(a.node_id, b.node_id, 0.0))
        world.run_for(5.0)
        baseline = arrivals.pop()

        spike = JitterSpike(world, world.now, 10.0, max_extra_delay_s=2.0)
        channel.add_interceptor(spike)
        start = world.now
        a.send(b.node_id, data(a.node_id, b.node_id, start))
        world.run_for(10.0)
        assert spike.triggered == 1
        assert arrivals[0] - start > baseline

    def test_duplicator_delivers_copies(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        dup = FrameDuplicator(world, 0.0, 10.0, probability=1.0, copies=2)
        channel.add_interceptor(dup)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(msg))
        a.send(b.node_id, data(a.node_id, b.node_id, 0.0))
        world.run_for(5.0)
        assert len(received) == 3
        assert world.metrics.counter("channel/frames_duplicated") == 2


class TestProcessFaults:
    def test_crash_without_leases_hangs_task(self):
        world = lossless_world()
        vehicles, cloud = make_cloud(world)
        record = cloud.submit(Task(work_mi=5000))
        world.run_for(1.0)
        assert record.state in (TaskState.ASSIGNED, TaskState.RUNNING)
        frozen = cloud.mark_worker_crashed(record.worker_id)
        assert frozen == 1
        world.run_for(60.0)
        # Nobody noticed the silent crash: the task never completes.
        assert record.state is not TaskState.COMPLETED
        assert cloud.stats.worker_crashes == 1

    def test_crash_with_leases_flows_into_handover(self):
        world = lossless_world()
        vehicles, cloud = make_cloud(world, handover_policy=CheckpointHandoverPolicy())
        cloud.enable_worker_leases(lease_duration_s=3.0, sweep_interval_s=1.0)
        record = cloud.submit(Task(work_mi=8000))
        world.run_for(1.5)
        victim = record.worker_id
        cloud.mark_worker_crashed(victim)
        world.run_for(60.0)
        assert record.state is TaskState.COMPLETED
        assert victim not in cloud.membership
        assert cloud.stats.lease_evictions == 1
        assert cloud.stats.handovers == 1
        assert record.worker_id != victim

    def test_stall_postpones_completion(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world)
        fast = cloud.submit(Task(work_mi=1000))
        world.run_for(0.1)
        cloud.stall_worker(fast.worker_id, duration_s=5.0)
        world.run_for(3.0)
        assert fast.state is not TaskState.COMPLETED
        world.run_for(10.0)
        assert fast.state is TaskState.COMPLETED
        assert cloud.stats.worker_stalls == 1

    def test_reboot_loses_state_and_requeues(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world)
        record = cloud.submit(Task(work_mi=4000))
        world.run_for(1.0)
        victim = record.worker_id
        lost = cloud.reboot_worker(victim, downtime_s=2.0)
        assert lost == 1
        assert record.progress == 0.0
        world.run_for(60.0)
        assert record.state is TaskState.COMPLETED
        # A reboot is not a departure: the worker is still a member.
        assert victim in cloud.membership
        assert cloud.stats.worker_reboots == 1
        assert cloud.stats.drops == 1


class TestHandoverChurn:
    """Handover policies under repeated worker churn."""

    def _churn(self, world, cloud, record, rounds):
        for _ in range(rounds):
            world.run_for(0.6)
            worker = record.worker_id
            if worker is None or record.state in (
                TaskState.COMPLETED,
                TaskState.FAILED,
            ):
                break
            cloud.member_leave(worker)

    def test_checkpoint_policy_survives_repeated_churn(self):
        world = lossless_world()
        vehicles, cloud = make_cloud(
            world, members=6, handover_policy=CheckpointHandoverPolicy()
        )
        record = cloud.submit(Task(work_mi=3000))
        progress_seen = []
        self._churn(world, cloud, record, rounds=3)
        progress_seen.append(record.progress)
        world.run_for(120.0)
        assert record.state is TaskState.COMPLETED
        assert cloud.stats.handovers >= 1
        assert len(set(record.workers_history)) >= 2

    def test_drop_policy_restarts_from_zero(self):
        world = lossless_world()
        vehicles, cloud = make_cloud(world, members=6, handover_policy=DropPolicy())
        record = cloud.submit(Task(work_mi=3000))
        world.run_for(1.5)
        assert record.progress == 0.0 or record.state is TaskState.RUNNING
        cloud.member_leave(record.worker_id)
        # Requeue-into-allocator: after the drop the task re-enters the
        # pool from zero progress and completes on another member.
        assert record.state in (TaskState.DROPPED, TaskState.PENDING, TaskState.ASSIGNED)
        world.run_for(120.0)
        assert record.state is TaskState.COMPLETED
        assert cloud.stats.drops >= 1
        assert cloud.stats.wasted_work_mi > 0.0

    def test_wasted_work_higher_under_drop(self):
        def run(policy):
            world = lossless_world(seed=11)
            _vehicles, cloud = make_cloud(world, members=6, handover_policy=policy)
            records = [cloud.submit(Task(work_mi=4000)) for _ in range(3)]
            for _ in range(4):
                world.run_for(1.0)
                for record in records:
                    if record.worker_id is not None and record.state in (
                        TaskState.ASSIGNED,
                        TaskState.RUNNING,
                    ):
                        cloud.member_leave(record.worker_id)
                        break
            world.run_for(200.0)
            return cloud.stats

        drop = run(DropPolicy())
        checkpoint = run(CheckpointHandoverPolicy())
        assert drop.wasted_work_mi >= checkpoint.wasted_work_mi


class TestFaultInjector:
    def test_arm_requires_matching_targets(self):
        world = lossless_world()
        plan = FaultPlan(1).crash(1.0)
        injector = FaultInjector(world, plan)
        with pytest.raises(ConfigurationError):
            injector.arm()

        network_plan = FaultPlan(1).loss_burst(1.0, duration_s=1.0, drop_probability=0.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(world, network_plan).arm()

        infra_plan = FaultPlan(1).disaster(1.0, fraction=0.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(world, infra_plan).arm()

    def test_arm_twice_rejected(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world)
        injector = FaultInjector(world, FaultPlan(1).crash(1.0), cloud=cloud)
        injector.arm()
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_process_faults_fire_against_cloud(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world, members=5)
        cloud.enable_worker_leases(lease_duration_s=3.0, sweep_interval_s=1.0)
        plan = FaultPlan(3).crash(2.0).stall(4.0, duration_s=1.0).reboot(6.0, downtime_s=1.0)
        injector = FaultInjector(world, plan, cloud=cloud)
        assert injector.arm() == 3
        for _ in range(6):
            cloud.submit(Task(work_mi=2000))
        world.run_for(60.0)
        assert cloud.stats.worker_crashes == 1
        assert cloud.stats.worker_stalls == 1
        assert cloud.stats.worker_reboots == 1
        assert len(injector.ledger) == 3
        assert world.metrics.counter("faults/injected") == 3

    def test_ledger_deterministic_across_runs(self):
        from repro.ids import reset_global_ids

        def run():
            # Rewind the process-global id counters so both runs mint
            # identical ids and the ledgers compare byte-identical.
            reset_global_ids()
            world = lossless_world(seed=21)
            vehicles, cloud = make_cloud(world, members=6)
            plan = FaultPlan(9).random_crashes(3, window=(1.0, 20.0))
            injector = FaultInjector(world, plan, cloud=cloud)
            injector.arm()
            world.run_for(30.0)
            return list(injector.ledger)

        assert run() == run()

    def test_network_faults_attach_and_detach(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a, b = make_pair(world, channel)
        plan = FaultPlan(2).loss_burst(1.0, duration_s=2.0, drop_probability=1.0)
        injector = FaultInjector(world, plan, channel=channel)
        injector.arm()
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(world.now))
        world.engine.schedule_at(
            2.0, lambda: a.send(b.node_id, data(a.node_id, b.node_id, 2.0))
        )
        world.run_for(10.0)
        assert received == []
        # Interceptor removed once the window closed.
        assert channel._interceptors == []

    def test_seeded_partition_splits_attached_nodes(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        nodes = [
            VehicleNode(world, channel, Vehicle(position=Vec2(i * 30.0, 0)), radio_range_m=500.0)
            for i in range(6)
        ]
        plan = FaultPlan(4).partition(1.0, duration_s=5.0, fraction=0.5)
        injector = FaultInjector(world, plan, channel=channel)
        injector.arm()
        world.run_for(2.0)
        cut = channel._interceptors[0]
        assert len(cut.group_a) == 3
        assert len(cut.group_b) == 3
        assert cut.group_a | cut.group_b == {node.node_id for node in nodes}

    def test_infrastructure_faults(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        rsus = [Rsu(world, channel, Vec2(i * 500.0, 0)) for i in range(4)]
        plan = FaultPlan(6).rsu_flap(
            1.0, cycles=2, down_s=1.0, up_s=1.0, target=rsus[0].node_id
        ).disaster(10.0, fraction=1.0, repair_start_s=5.0, repair_interval_s=2.0)
        injector = FaultInjector(world, plan, infrastructure=rsus)
        injector.arm()
        world.run_for(1.5)
        assert rsus[0].damaged  # first flap cycle down
        world.run_for(1.0)
        assert not rsus[0].damaged  # back up
        world.run_for(8.0)  # disaster struck at t=10
        assert all(rsu.damaged for rsu in rsus)
        world.run_for(30.0)  # staggered repair finished
        assert all(not rsu.damaged for rsu in rsus)
        assert world.metrics.counter("disaster/nodes_repaired") == 4


class TestPlanOrderingContract:
    """Satellite: identical-timestamp specs apply in insertion order."""

    def test_same_timestamp_schedule_preserves_insertion_order(self):
        plan = (
            FaultPlan(1)
            .stall(5.0, duration_s=1.0)
            .crash(5.0)
            .reboot(5.0, downtime_s=1.0)
            .crash(2.0)
        )
        kinds = [spec.kind for spec in plan.schedule()]
        assert kinds == ["crash", "stall", "crash", "reboot"]

    def test_same_timestamp_faults_fire_in_insertion_order(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world, members=6)
        plan = (
            FaultPlan(2)
            .stall(3.0, duration_s=1.0, target="veh-1")
            .crash(3.0, target="veh-2")
            .reboot(3.0, downtime_s=1.0, target="veh-3")
        )
        injector = FaultInjector(world, plan, cloud=cloud)
        injector.arm()
        world.run_for(5.0)
        assert [kind for _t, kind, _v in injector.ledger] == ["stall", "crash", "reboot"]

    def test_from_specs_preserves_order_and_validates(self):
        source = FaultPlan(3).crash(4.0).stall(4.0, duration_s=2.0).crash(1.0)
        rebuilt = FaultPlan.from_specs(9, source.schedule())
        assert [s.kind for s in rebuilt.schedule()] == [
            s.kind for s in source.schedule()
        ]
        assert rebuilt.seed == 9
        with pytest.raises(ConfigurationError):
            FaultPlan.from_specs(1, ["not-a-spec"])


class TestRandomCrashesHardening:
    """Satellite: degenerate generator inputs are typed errors or explicit no-ops."""

    def test_zero_count_is_noop_and_preserves_rng_stream(self):
        with_noop = (
            FaultPlan(11)
            .random_crashes(0, window=(5.0, 5.0))
            .random_crashes(2, window=(1.0, 20.0))
        )
        without = FaultPlan(11).random_crashes(2, window=(1.0, 20.0))
        assert with_noop.describe() == without.describe()
        assert len(FaultPlan(1).random_crashes(0, window=(0.0, 10.0))) == 0

    def test_empty_window_with_positive_count_raises(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(1).random_crashes(2, window=(5.0, 5.0))

    def test_empty_target_pool_raises(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(1).random_crashes(1, window=(0.0, 10.0), targets=[])

    def test_negative_count_raises(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(1).random_crashes(-1, window=(0.0, 10.0))


class TestArmSubsetting:
    """`arm(only_indices=...)` keeps RNG fork keys by schedule position."""

    def _victims(self, only=None, targets=False):
        # Vehicle ids come from a process-global counter and feed the
        # fire-time victim sort; rewind for cross-run comparability.
        from repro.ids import reset_global_ids

        reset_global_ids()
        world = lossless_world(seed=33)
        vehicles, cloud = make_cloud(world, members=8)
        pool = [v.vehicle_id for v in vehicles] if targets else None
        plan = FaultPlan(17).random_crashes(4, window=(1.0, 20.0), targets=pool)
        injector = FaultInjector(world, plan, cloud=cloud)
        injector.arm(only)
        world.run_for(30.0)
        index = {v.vehicle_id: i for i, v in enumerate(vehicles)}
        return [(t, index[victim]) for t, _kind, victim in injector.ledger]

    def test_subset_run_is_deterministic(self):
        assert self._victims(only=[1, 3]) == self._victims(only=[1, 3])

    def test_subset_keeps_full_plan_fire_times(self):
        full = self._victims()
        subset = self._victims(only=[1, 3])
        assert [t for t, _ in subset] == [full[1][0], full[3][0]]

    def test_subset_of_pretargeted_specs_matches_full_plan(self):
        # With targets drawn up front the victim is baked into the spec,
        # so a subset must hit exactly the full plan's victims.
        full = self._victims(targets=True)
        subset = self._victims(only=[1, 3], targets=True)
        assert subset == [full[1], full[3]]

    def test_out_of_range_index_rejected(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world)
        injector = FaultInjector(world, FaultPlan(1).crash(1.0), cloud=cloud)
        with pytest.raises(ConfigurationError):
            injector.arm(only_indices=[5])

    def test_empty_subset_arms_nothing(self):
        world = lossless_world()
        _vehicles, cloud = make_cloud(world)
        injector = FaultInjector(world, FaultPlan(1).crash(1.0), cloud=cloud)
        assert injector.arm(only_indices=[]) == 0
        world.run_for(5.0)
        assert injector.ledger == []


class TestPartitionReachesStorage:
    """A network partition must also split the cloud's replicated store."""

    def _storage_cloud(self):
        world = lossless_world(seed=51)
        vehicles, cloud = make_cloud(world, members=6)
        from repro.core import QuorumConfig

        cloud.enable_replicated_storage(quorum=QuorumConfig.majority(3))
        cloud.store_put("part-file", size_bytes=1000, target_replicas=3)
        channel = WirelessChannel(world)
        nodes = [VehicleNode(world, channel, v) for v in vehicles]
        return world, cloud, channel, nodes

    def test_partition_window_mirrors_into_replication_manager(self):
        world, cloud, channel, _nodes = self._storage_cloud()
        plan = FaultPlan(5).partition(2.0, duration_s=4.0, fraction=0.5)
        FaultInjector(world, plan, cloud=cloud, channel=channel).arm()
        world.run_for(3.0)
        assert cloud.storage._partition is not None
        world.run_for(5.0)
        assert cloud.storage._partition is None

    def test_no_storage_no_mirroring(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        _a, _b = make_pair(world, channel)
        _vehicles, cloud = make_cloud(world)
        plan = FaultPlan(5).partition(1.0, duration_s=2.0, fraction=0.5)
        FaultInjector(world, plan, cloud=cloud, channel=channel).arm()
        world.run_for(5.0)  # must not raise despite storage being disabled
        assert cloud.storage is None
