"""Tests for recovery primitives: backoff, leases, and their wiring."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import BackoffPolicy, WorkerLeases
from repro.core import (
    ResourceOffer,
    Task,
    TaskState,
    VehicularCloud,
)
from repro.core.task_protocol import NetworkedTaskExchange
from repro.geometry import Vec2
from repro.mobility import StationaryModel, Vehicle
from repro.net import InterceptVerdict, VehicleNode, WirelessChannel
from repro.sim import ChannelConfig, ScenarioConfig, SeededRng, World


class _ExplodingRng:
    """Fails the test if any draw is attempted."""

    def __getattr__(self, name):
        raise AssertionError("rng must not be consulted")


class TestBackoffPolicy:
    def test_exponential_growth_with_cap(self):
        policy = BackoffPolicy(
            base_delay_s=0.5, multiplier=2.0, max_delay_s=4.0, jitter_fraction=0.0
        )
        delays = [policy.delay_for(attempt) for attempt in range(6)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]

    def test_fixed_policy_is_constant_and_draws_nothing(self):
        policy = BackoffPolicy.fixed(0.5, max_retries=5)
        rng = _ExplodingRng()
        assert [policy.delay_for(a, rng) for a in range(4)] == [0.5] * 4

    def test_jitter_bounds_and_determinism(self):
        policy = BackoffPolicy(
            base_delay_s=1.0, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.2
        )
        draws_a = [policy.delay_for(a, SeededRng(7, "b").fork(str(a))) for a in range(5)]
        draws_b = [policy.delay_for(a, SeededRng(7, "b").fork(str(a))) for a in range(5)]
        assert draws_a == draws_b
        for attempt, delay in enumerate(draws_a):
            nominal = min(8.0, 1.0 * 2.0**attempt)
            assert nominal * 0.8 <= delay <= nominal * 1.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_delay_s=0.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter_fraction=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay_for(-1)


class TestBackoffDeterminism:
    def test_delay_sequence_identical_for_one_seed(self):
        policy = BackoffPolicy(
            base_delay_s=0.25, multiplier=2.0, max_delay_s=6.0, jitter_fraction=0.3
        )
        runs = []
        for _ in range(3):
            rng = SeededRng(42, "backoff")
            runs.append([policy.delay_for(a, rng) for a in range(8)])
        assert runs[0] == runs[1] == runs[2]

    def test_different_seeds_diverge(self):
        policy = BackoffPolicy(jitter_fraction=0.3)
        seq_a = [policy.delay_for(a, SeededRng(1, "b")) for a in range(6)]
        seq_b = [policy.delay_for(a, SeededRng(2, "b")) for a in range(6)]
        assert seq_a != seq_b

    def test_cap_bounds_jittered_delays(self):
        policy = BackoffPolicy(
            base_delay_s=1.0, multiplier=3.0, max_delay_s=5.0, jitter_fraction=0.25
        )
        rng = SeededRng(9, "cap")
        for attempt in range(20, 40):
            delay = policy.delay_for(attempt, rng)
            # Jitter applies around the capped nominal, never beyond it.
            assert 5.0 * 0.75 <= delay <= 5.0 * 1.25

    def test_cap_without_jitter_is_exact(self):
        policy = BackoffPolicy(
            base_delay_s=1.0, multiplier=2.0, max_delay_s=3.0, jitter_fraction=0.0
        )
        assert [policy.delay_for(a) for a in range(2, 10)] == [3.0] * 8

    def test_jitter_bounds_hold_across_seeds_and_attempts(self):
        """Property sweep: every draw stays inside
        ``[base*(1-j), max*(1+j)]`` and each seed replays byte-identically."""
        jitter = 0.3
        policy = BackoffPolicy(
            base_delay_s=0.5, multiplier=2.0, max_delay_s=6.0,
            jitter_fraction=jitter, max_retries=50,
        )
        lo = 0.5 * (1.0 - jitter)
        hi = 6.0 * (1.0 + jitter)
        for seed in range(20):
            draws = [
                policy.delay_for(attempt, SeededRng(seed, "sweep"))
                for attempt in range(12)
            ]
            replay = [
                policy.delay_for(attempt, SeededRng(seed, "sweep"))
                for attempt in range(12)
            ]
            assert draws == replay
            for attempt, delay in enumerate(draws):
                assert lo <= delay <= hi
                # The per-attempt envelope is tighter than the global one.
                nominal = min(6.0, 0.5 * 2.0**attempt)
                assert nominal * (1 - jitter) <= delay <= nominal * (1 + jitter)


class TestWorkerLeases:
    def test_expiry_boundary_tick_is_not_expired(self):
        # A lease granted at t=0 with duration 5 expires *after* t=5.0:
        # the boundary tick itself still counts as leased (strict <).
        leases = WorkerLeases(lease_duration_s=5.0)
        leases.grant("w1", now=0.0)
        assert leases.expires_at("w1") == 5.0
        assert leases.expired(4.999) == []
        assert leases.expired(5.0) == []
        assert leases.expired(5.000001) == ["w1"]

    def test_renewal_moves_the_boundary(self):
        leases = WorkerLeases(lease_duration_s=5.0)
        leases.grant("w1", now=0.0)
        leases.renew("w1", now=3.0)
        assert leases.expired(8.0) == []
        assert leases.expired(8.5) == ["w1"]


    def test_grant_renew_expire(self):
        leases = WorkerLeases(lease_duration_s=5.0)
        leases.grant("w1", now=0.0)
        leases.grant("w2", now=0.0)
        assert len(leases) == 2 and "w1" in leases
        leases.renew("w1", now=4.0)
        assert leases.expired(6.0) == ["w2"]
        assert leases.expirations == 1
        assert leases.renewals == 1

    def test_expired_sorted_deterministically(self):
        leases = WorkerLeases(lease_duration_s=1.0)
        for wid in ["w3", "w1", "w2"]:
            leases.grant(wid, now=0.0)
        assert leases.expired(5.0) == ["w1", "w2", "w3"]

    def test_revoke(self):
        leases = WorkerLeases(lease_duration_s=1.0)
        leases.grant("w1", now=0.0)
        leases.revoke("w1")
        assert "w1" not in leases
        assert leases.expires_at("w1") is None
        assert leases.expired(10.0) == []

    def test_duration_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerLeases(lease_duration_s=0.0)


def make_cloud(world, members=4, **kwargs):
    model = StationaryModel(world, positions=[Vec2(i * 40.0, 0) for i in range(members)])
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "recovery-vc", **kwargs)
    for vehicle in vehicles:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 1000.0, 10**9, 1e6))
    return vehicles, cloud


class TestCloudBackoffWiring:
    def test_backoff_spaces_assignment_retries(self):
        world = World(ScenarioConfig(seed=3))
        policy = BackoffPolicy(
            base_delay_s=1.0, multiplier=2.0, max_delay_s=60.0, jitter_fraction=0.0
        )
        cloud = VehicularCloud(world, "empty-vc", retry_backoff=policy)
        record = cloud.submit(Task(work_mi=100))  # no members: retries forever
        world.run_for(6.9)  # retries at 1, 3 (=1+2), 7 (=3+4), ...
        assert cloud._retries[record.task.task_id] == 3
        world.run_for(0.2)
        assert cloud._retries[record.task.task_id] == 4

    def test_default_keeps_fixed_interval(self):
        world = World(ScenarioConfig(seed=3))
        cloud = VehicularCloud(world, "empty-vc")
        record = cloud.submit(Task(work_mi=100))
        world.run_for(5.5)
        assert cloud._retries[record.task.task_id] == 6  # one per RETRY_INTERVAL_S

    def test_task_recovers_when_worker_arrives(self):
        world = World(ScenarioConfig(seed=3))
        policy = BackoffPolicy(base_delay_s=0.5, jitter_fraction=0.1)
        cloud = VehicularCloud(world, "late-vc", retry_backoff=policy)
        record = cloud.submit(Task(work_mi=500))
        model = StationaryModel(world, positions=[Vec2(0, 0)])
        (vehicle,) = model.populate(1)

        def _arrive():
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 1000.0, 10**9, 1e6))

        world.engine.schedule_at(3.0, _arrive)
        world.run_for(60.0)
        assert record.state is TaskState.COMPLETED


class TestExchangeBackoffWiring:
    def _exchange(self, loss, backoff=None, seed=5):
        channel_config = ChannelConfig(base_loss_probability=loss, loss_per_100m=0.0)
        world = World(ScenarioConfig(seed=seed, channel=channel_config))
        channel = WirelessChannel(world)
        head = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)), radio_range_m=300.0)
        worker = VehicleNode(world, channel, Vehicle(position=Vec2(50, 0)), radio_range_m=300.0)
        exchange = NetworkedTaskExchange(world, head, backoff=backoff)
        exchange.register_worker(worker, mips=1000.0)
        return world, exchange, worker, channel

    def test_default_backoff_mirrors_legacy_params(self):
        world, exchange, worker, _channel = self._exchange(loss=0.0)
        assert exchange.backoff.multiplier == 1.0
        assert exchange.backoff.base_delay_s == exchange.retry_interval_s
        assert exchange.max_retries == exchange.backoff.max_retries

    def test_offload_completes_under_loss_with_backoff(self):
        policy = BackoffPolicy(
            base_delay_s=0.3,
            multiplier=2.0,
            max_delay_s=4.0,
            jitter_fraction=0.1,
            max_retries=10,
        )
        world, exchange, worker, _channel = self._exchange(loss=0.5, backoff=policy)
        result = exchange.offload(worker.node_id, Task(work_mi=500))
        world.run_for(120.0)
        assert result.done
        assert result.assign_transmissions >= 1

    def test_max_retries_comes_from_backoff(self):
        policy = BackoffPolicy(base_delay_s=0.1, max_retries=2, jitter_fraction=0.0)
        world, exchange, worker, channel = self._exchange(loss=0.0, backoff=policy)
        channel.add_interceptor(lambda frame: InterceptVerdict.drop())
        result = exchange.offload(worker.node_id, Task(work_mi=500))
        world.run_for(60.0)
        assert result.failed
        assert result.assign_transmissions == 3  # initial + 2 retries


class TestLeaseLiveness:
    def test_sweep_auto_renews_live_members(self):
        world = World(ScenarioConfig(seed=3))
        _vehicles, cloud = make_cloud(world)
        leases = cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        world.run_for(20.0)
        assert cloud.member_count() == 4
        assert cloud.stats.lease_evictions == 0
        assert leases.renewals > 0

    def test_crashed_member_evicted_within_lease_duration(self):
        world = World(ScenarioConfig(seed=3))
        vehicles, cloud = make_cloud(world)
        cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        victim = vehicles[-1].vehicle_id
        world.run_for(1.0)
        cloud.mark_worker_crashed(victim)
        world.run_for(3.0)  # > lease_duration + sweep
        assert victim not in cloud.membership
        assert cloud.stats.lease_evictions == 1
        assert cloud.member_count() == 3

    def test_heartbeat_keeps_explicitly_renewed_member(self):
        world = World(ScenarioConfig(seed=3))
        vehicles, cloud = make_cloud(world)
        cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        cloud.heartbeat(vehicles[0].vehicle_id)
        assert cloud.leases.renewals == 1

    def test_disable_stops_evictions(self):
        world = World(ScenarioConfig(seed=3))
        vehicles, cloud = make_cloud(world)
        cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        cloud.disable_worker_leases()
        cloud.mark_worker_crashed(vehicles[-1].vehicle_id)
        world.run_for(10.0)
        assert cloud.member_count() == 4
        assert cloud.leases is None

    def test_readmitted_member_is_no_longer_crashed(self):
        world = World(ScenarioConfig(seed=3))
        vehicles, cloud = make_cloud(world)
        cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        victim = vehicles[-1]
        cloud.mark_worker_crashed(victim.vehicle_id)
        world.run_for(3.0)
        assert victim.vehicle_id not in cloud.membership
        cloud.admit(victim, offer=ResourceOffer(victim.vehicle_id, 1000.0, 10**9, 1e6))
        world.run_for(5.0)
        # The reboot cleared the crash flag: the member stays leased.
        assert victim.vehicle_id in cloud.membership


class TestExhaustionLedgering:
    """Whole-run retry failures are ledgered, never silently dropped."""

    def test_assignment_retry_exhaustion_fails_task_into_stats(self):
        world = World(ScenarioConfig(seed=4))
        world.enable_observability(trace=False, events=True)
        cloud = VehicularCloud(
            world,
            "exhaust-vc",
            max_assignment_retries=5,
            retry_backoff=BackoffPolicy(
                base_delay_s=0.2, multiplier=1.0, max_delay_s=0.2, jitter_fraction=0.0
            ),
        )
        record = cloud.submit(Task(work_mi=100))  # no members, ever
        world.run_for(30.0)
        assert record.state is TaskState.FAILED
        assert cloud.stats.failed == 1
        # Conservation holds after exhaustion: nothing stays in flight.
        acc = cloud.accounting()
        assert acc["submitted"] == acc["completed"] + acc["failed"] + acc["records_in_flight"]
        assert acc["records_in_flight"] == 0
        reasons = [
            e.attrs.get("reason")
            for e in world.events.records()
            if e.name == "task_failed"
        ]
        assert "retries_exhausted" in reasons

    def test_anti_entropy_exhaustion_is_counted_and_listed(self):
        from repro.core import FileStore, QuorumConfig, ReplicationManager, StoredFile
        from repro.sim import Engine

        manager = ReplicationManager(
            SeededRng(5, "exhaust"), quorum=QuorumConfig(2, 2), hinted_handoff=False
        )
        for index in range(3):
            manager.add_store(FileStore(f"v{index}", 10_000))
        manager.store_file(StoredFile("f1", 100, 3))
        victim = manager.holders_of("f1")[0]
        manager.set_offline(victim)
        manager.write("f1", writer="w")
        engine = Engine()
        backoff = BackoffPolicy(
            base_delay_s=0.1, multiplier=1.0, max_delay_s=0.1,
            jitter_fraction=0.0, max_retries=2,
        )
        manager.start_anti_entropy(engine, period_s=100.0, backoff=backoff)
        manager.anti_entropy_round()
        manager.stop_anti_entropy()
        engine.drain(max_events=10_000)
        # The victim never came back: the retry chain must end in the
        # exhaustion ledger, with no retry left pending.
        assert manager.anti_entropy_retries_exhausted == 1
        assert manager.exhausted_transfers == [(victim, "f1")]
        assert manager._pending_retries == set()

    def test_whole_run_quorum_outage_lands_in_storage_degraded(self):
        from repro.core import QuorumConfig

        world = World(ScenarioConfig(seed=6))
        vehicles, cloud = make_cloud(world, members=3)
        cloud.enable_replicated_storage(quorum=QuorumConfig(3, 3))
        cloud.store_put("f1", size_bytes=100, target_replicas=3)
        for vehicle in vehicles[:2]:
            cloud.storage.set_offline(vehicle.vehicle_id)
        attempts = 6
        for _ in range(attempts):
            assert cloud.store_write("f1", writer=vehicles[2].vehicle_id) is None
            assert cloud.store_read("f1") is None
        assert cloud.stats.storage_degraded == 2 * attempts
        assert world.metrics.counter("vc/exhaust") == 0  # no stray counters
