"""Tests for resource pooling, tasks, schedulers, handover, election."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MembershipError, ResourceError, TaskError
from repro.geometry import Vec2
from repro.mobility import OnboardEquipment, SensorKind
from repro.core import (
    BrokerCandidate,
    BrokerElection,
    CheckpointHandoverPolicy,
    DropPolicy,
    DwellAwareAllocator,
    GreedyResourceAllocator,
    RandomAllocator,
    ResourceOffer,
    ResourcePool,
    Task,
    TaskRecord,
    TaskState,
    WorkerCandidate,
)


def offer(vehicle_id="v1", mips=1000.0, storage=10_000, sensors=frozenset()):
    return ResourceOffer(
        vehicle_id=vehicle_id,
        compute_mips=mips,
        storage_bytes=storage,
        bandwidth_bps=1e6,
        sensors=sensors,
    )


class TestResourcePool:
    def test_add_and_totals(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        pool.add_offer(offer("b", 2000))
        assert pool.total_mips() == 3000
        assert len(pool) == 2
        assert "a" in pool

    def test_offer_from_equipment_scales(self):
        equipment = OnboardEquipment(compute_mips=1000)
        derived = ResourceOffer.from_equipment("v", equipment, lend_fraction=0.5)
        assert derived.compute_mips == 500

    def test_invalid_lend_fraction(self):
        with pytest.raises(ResourceError):
            ResourceOffer.from_equipment("v", OnboardEquipment(), lend_fraction=0.0)

    def test_reserve_and_release(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        reservation = pool.reserve("a", 600)
        assert pool.free_mips("a") == 400
        pool.release(reservation)
        assert pool.free_mips("a") == 1000

    def test_over_reserve_raises(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        pool.reserve("a", 800)
        with pytest.raises(ResourceError):
            pool.reserve("a", 300)

    def test_reserve_unknown_member(self):
        with pytest.raises(ResourceError):
            ResourcePool().reserve("ghost", 1)

    def test_release_after_departure_is_noop(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        reservation = pool.reserve("a", 500)
        pool.remove_member("a")
        pool.release(reservation)  # must not raise
        assert "a" not in pool

    def test_storage_reservation(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000, storage=100))
        with pytest.raises(ResourceError):
            pool.reserve("a", 0, storage_bytes=200)

    @pytest.mark.parametrize("mips, storage", [(math.nan, 0), (0.0, math.nan)])
    def test_reserve_rejects_nan_amounts(self, mips, storage):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        with pytest.raises(ResourceError):
            pool.reserve("a", mips, storage_bytes=storage)
        assert pool.free_mips("a") == 1000
        assert pool.total_free_mips() == 1000
        assert pool.utilization() == 0.0

    @pytest.mark.parametrize(
        "mips, storage", [(math.nan, 0), (-1.0, 0), (1000.0, math.nan), (1000.0, -1)]
    )
    def test_offer_rejects_nan_or_negative_amounts(self, mips, storage):
        with pytest.raises(ResourceError):
            offer("a", mips, storage=storage)

    def test_zero_offer_is_legal(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 0.0, storage=0))
        assert pool.total_mips() == 0.0
        assert pool.utilization() == 0.0

    def test_member_states_follow_the_given_order(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        pool.add_offer(offer("b", 2000))
        pool.reserve("b", 500)
        states = pool.member_states(["b", "a"])
        assert [s.offer.vehicle_id for s in states] == ["b", "a"]
        assert [s.free_mips for s in states] == [1500, 1000]
        with pytest.raises(ResourceError, match="ghost"):
            pool.member_states(["a", "ghost"])

    def test_members_with_sensor(self):
        pool = ResourcePool()
        pool.add_offer(offer("lidar-car", sensors=frozenset({SensorKind.LIDAR})))
        pool.add_offer(offer("plain-car"))
        assert pool.members_with_sensor(SensorKind.LIDAR) == ["lidar-car"]

    def test_utilization(self):
        pool = ResourcePool()
        pool.add_offer(offer("a", 1000))
        assert pool.utilization() == 0.0
        pool.reserve("a", 500)
        assert pool.utilization() == pytest.approx(0.5)


class TestTask:
    def test_runtime(self):
        assert Task(work_mi=1000).runtime_on(500) == pytest.approx(2.0)

    def test_invalid_work(self):
        with pytest.raises(TaskError):
            Task(work_mi=0)

    def test_invalid_deadline(self):
        with pytest.raises(TaskError):
            Task(work_mi=1, deadline_s=0)

    @pytest.mark.parametrize("field", ["work_mi", "deadline_s", "input_bytes", "output_bytes"])
    def test_nan_field_is_rejected(self, field):
        with pytest.raises(TaskError):
            Task(**{"work_mi": 1.0, field: math.nan})

    def test_runtime_on_nan_mips_is_rejected(self):
        with pytest.raises(TaskError):
            Task(work_mi=1000).runtime_on(math.nan)

    def test_lifecycle_happy_path(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.assign("worker", now=1.0)
        record.start()
        record.complete(now=5.0)
        assert record.state is TaskState.COMPLETED
        assert record.completion_latency_s == 5.0
        assert record.progress == 1.0

    def test_deadline_check(self):
        record = TaskRecord(task=Task(work_mi=100, deadline_s=3.0), submitted_at=0.0)
        record.assign("w", 0.0)
        record.start()
        record.complete(now=5.0)
        assert record.met_deadline() is False

    def test_no_deadline_returns_none(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        assert record.met_deadline() is None

    def test_checkpoint_monotone(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.checkpoint(0.5)
        with pytest.raises(TaskError):
            record.checkpoint(0.3)

    def test_handover_preserves_progress(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.assign("w1", 0.0)
        record.start()
        record.checkpoint(0.6)
        record.hand_over()
        assert record.state is TaskState.HANDED_OVER
        assert record.remaining_work_mi == pytest.approx(40.0)
        record.assign("w2", 5.0)
        assert record.reassignments == 1
        assert record.workers_history == ["w1", "w2"]

    def test_checkpoint_survives_repeated_handover(self):
        """Progress checkpointed before each handover carries across workers."""
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.assign("w1", 0.0)
        record.start()
        record.checkpoint(0.3)
        record.hand_over()
        assert record.progress == pytest.approx(0.3)
        record.assign("w2", 2.0)
        record.start()
        record.checkpoint(0.8)
        record.hand_over()
        assert record.progress == pytest.approx(0.8)
        assert record.remaining_work_mi == pytest.approx(20.0)
        # A later checkpoint may only move forward from the preserved point.
        record.assign("w3", 4.0)
        record.start()
        with pytest.raises(TaskError):
            record.checkpoint(0.5)
        record.checkpoint(1.0)
        assert record.remaining_work_mi == 0.0

    def test_checkpoint_after_handover_cannot_regress(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.assign("w1", 0.0)
        record.start()
        record.checkpoint(0.6)
        record.hand_over()
        with pytest.raises(TaskError):
            record.checkpoint(0.2)
        assert record.progress == pytest.approx(0.6)

    def test_remaining_work_never_negative(self):
        """Float drift past full progress must clamp, not go negative."""
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.checkpoint(1.0)
        assert record.remaining_work_mi == 0.0
        # Simulate accumulated float error pushing progress past 1.0 (the
        # recovery path computes p + (1-p)*fraction incrementally).
        record.progress = 1.0 + 1e-15
        assert record.remaining_work_mi == 0.0

    def test_drop_discards_progress(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        record.assign("w1", 0.0)
        record.start()
        record.checkpoint(0.6)
        record.drop()
        assert record.progress == 0.0
        assert record.wasted_work_mi == pytest.approx(60.0)

    def test_invalid_transitions(self):
        record = TaskRecord(task=Task(work_mi=100), submitted_at=0.0)
        with pytest.raises(TaskError):
            record.start()
        with pytest.raises(TaskError):
            record.complete(1.0)
        with pytest.raises(TaskError):
            record.hand_over()


class TestAllocators:
    def _candidates(self):
        return [
            WorkerCandidate("slow-stayer", free_mips=100, estimated_dwell_s=1000),
            WorkerCandidate("fast-leaver", free_mips=1000, estimated_dwell_s=2),
            WorkerCandidate("balanced", free_mips=500, estimated_dwell_s=100),
        ]

    def test_greedy_picks_fastest(self):
        choice = GreedyResourceAllocator().choose(Task(work_mi=100), self._candidates())
        assert choice.vehicle_id == "fast-leaver"

    def test_dwell_aware_avoids_leavers(self):
        allocator = DwellAwareAllocator(safety_factor=1.5)
        choice = allocator.choose(Task(work_mi=1000), self._candidates())
        # fast-leaver needs 1s but only stays 2s (< 1.5 safety on 1s? 1*1.5=1.5 <= 2 ok)
        # With work 1000: fast-leaver runtime 1s, dwell 2s -> safe actually.
        assert choice is not None

    def test_dwell_aware_rejects_nan_safety_factor(self):
        with pytest.raises(TaskError):
            DwellAwareAllocator(safety_factor=math.nan)

    def test_dwell_aware_gates_unsafe_workers(self):
        allocator = DwellAwareAllocator(safety_factor=1.5, fallback_to_fastest=False)
        candidates = [WorkerCandidate("leaver", free_mips=100, estimated_dwell_s=1)]
        assert allocator.choose(Task(work_mi=1000), candidates) is None

    def test_dwell_aware_fallback(self):
        allocator = DwellAwareAllocator(safety_factor=1.5, fallback_to_fastest=True)
        candidates = [WorkerCandidate("leaver", free_mips=100, estimated_dwell_s=1)]
        choice = allocator.choose(Task(work_mi=1000), candidates)
        assert choice.vehicle_id == "leaver"

    def test_dwell_aware_fallback_picks_fastest_of_many(self):
        """When no candidate passes the dwell gate, the optimistic
        fallback degrades to the greedy pick — most free compute wins,
        ties broken by id — rather than an arbitrary unsafe worker."""
        allocator = DwellAwareAllocator(safety_factor=1.5, fallback_to_fastest=True)
        candidates = [
            WorkerCandidate("slow-leaver", free_mips=100, estimated_dwell_s=2),
            WorkerCandidate("fast-leaver", free_mips=800, estimated_dwell_s=1),
            WorkerCandidate("mid-leaver", free_mips=400, estimated_dwell_s=3),
        ]
        choice = allocator.choose(Task(work_mi=10_000), candidates)
        assert choice.vehicle_id == "fast-leaver"
        assert choice.expected_runtime_s == pytest.approx(10_000 / 800)
        # Same roster, tie on free compute: lexicographically larger id wins
        # (the deterministic max key), proving the tiebreak is not positional.
        tied = [
            WorkerCandidate("worker-a", free_mips=800, estimated_dwell_s=1),
            WorkerCandidate("worker-b", free_mips=800, estimated_dwell_s=1),
        ]
        assert allocator.choose(Task(work_mi=10_000), tied).vehicle_id == "worker-b"

    def test_dwell_aware_prefers_safe_over_fast(self):
        allocator = DwellAwareAllocator(safety_factor=2.0)
        candidates = [
            WorkerCandidate("fast-leaver", free_mips=1000, estimated_dwell_s=1),
            WorkerCandidate("slow-stayer", free_mips=100, estimated_dwell_s=10_000),
        ]
        choice = allocator.choose(Task(work_mi=1000), candidates)
        assert choice.vehicle_id == "slow-stayer"

    def test_random_allocator_deterministic_with_seed(self, rng):
        allocator = RandomAllocator(rng)
        task = Task(work_mi=10)
        picks = {allocator.choose(task, self._candidates()).vehicle_id for _ in range(30)}
        assert picks <= {"slow-stayer", "fast-leaver", "balanced"}
        assert len(picks) > 1

    def test_no_candidates_returns_none(self, rng):
        for allocator in (
            GreedyResourceAllocator(),
            DwellAwareAllocator(),
            RandomAllocator(rng),
        ):
            assert allocator.choose(Task(work_mi=10), []) is None

    def test_sensor_requirement_filters(self):
        task = Task(work_mi=10, required_sensors=frozenset({SensorKind.LIDAR}))
        candidates = [
            WorkerCandidate("no-lidar", 1000, 1000, has_required_sensors=False),
        ]
        assert GreedyResourceAllocator().choose(task, candidates) is None

    def test_allocation_choice_margin(self):
        choice = GreedyResourceAllocator().choose(
            Task(work_mi=100), [WorkerCandidate("w", 100, 10)]
        )
        assert choice.dwell_margin_s == pytest.approx(10 - 1.0)


class TestHandoverPolicies:
    def _running_record(self, progress=0.5):
        record = TaskRecord(task=Task(work_mi=1000), submitted_at=0.0)
        record.assign("w1", 0.0)
        record.start()
        record.checkpoint(progress)
        return record

    def test_drop_policy_discards(self):
        record = self._running_record()
        outcome = DropPolicy().on_worker_departed(record, now=5.0)
        assert outcome.requeue
        assert outcome.preserved_progress == 0.0
        assert record.state is TaskState.DROPPED
        assert record.wasted_work_mi == pytest.approx(500.0)

    def test_checkpoint_policy_preserves(self):
        record = self._running_record()
        policy = CheckpointHandoverPolicy()
        outcome = policy.on_worker_departed(record, now=5.0)
        assert outcome.requeue
        assert outcome.preserved_progress == pytest.approx(0.5)
        assert outcome.overhead_s > 0
        assert record.state is TaskState.HANDED_OVER
        assert record.remaining_work_mi == pytest.approx(500.0)

    def test_checkpoint_overhead_scales_with_progress(self):
        policy = CheckpointHandoverPolicy()
        little = policy.on_worker_departed(self._running_record(0.1), 5.0)
        lots = policy.on_worker_departed(self._running_record(0.9), 5.0)
        assert lots.overhead_bytes > little.overhead_bytes

    def test_negligible_progress_drops_instead(self):
        policy = CheckpointHandoverPolicy(min_progress_to_handover=0.05)
        record = self._running_record(progress=0.01)
        outcome = policy.on_worker_departed(record, 5.0)
        assert record.state is TaskState.DROPPED
        assert outcome.overhead_s == 0.0

    def test_reauth_latency_added(self):
        with_auth = CheckpointHandoverPolicy(reauth_latency_s=0.5)
        without = CheckpointHandoverPolicy(reauth_latency_s=0.0)
        a = with_auth.on_worker_departed(self._running_record(), 5.0)
        b = without.on_worker_departed(self._running_record(), 5.0)
        assert a.overhead_s == pytest.approx(b.overhead_s + 0.5)


class TestBrokerElection:
    def _candidate(self, vid, mips=1000, dwell=100, x=0.0):
        return BrokerCandidate(
            vehicle_id=vid, compute_mips=mips, estimated_dwell_s=dwell, position=Vec2(x, 0)
        )

    def test_empty_electorate_raises(self):
        with pytest.raises(MembershipError):
            BrokerElection().elect([])

    def test_single_candidate_wins(self):
        result = BrokerElection().elect([self._candidate("only")])
        assert result.winner_id == "only"

    def test_resource_rich_central_stable_candidate_wins(self):
        election = BrokerElection()
        candidates = [
            self._candidate("weak-edge", mips=100, dwell=10, x=1000),
            self._candidate("strong-center", mips=2000, dwell=500, x=0),
            self._candidate("medium", mips=1000, dwell=100, x=500),
        ]
        assert election.elect(candidates).winner_id == "strong-center"

    def test_deterministic_tie_break(self):
        election = BrokerElection()
        twins = [self._candidate("aaa"), self._candidate("bbb")]
        assert election.elect(twins).winner_id == election.elect(twins).winner_id

    def test_hysteresis_keeps_incumbent(self):
        election = BrokerElection()
        candidates = [
            self._candidate("incumbent", mips=990),
            self._candidate("challenger", mips=1000),
        ]
        assert not election.should_reelect("incumbent", candidates)

    def test_departed_incumbent_forces_election(self):
        election = BrokerElection()
        assert election.should_reelect("gone", [self._candidate("x")])

    def test_clearly_better_challenger_wins(self):
        election = BrokerElection()
        candidates = [
            self._candidate("incumbent", mips=100, dwell=5),
            self._candidate("challenger", mips=5000, dwell=1000),
        ]
        assert election.should_reelect("incumbent", candidates)

    @given(st.integers(min_value=1, max_value=12))
    def test_winner_always_in_electorate(self, count):
        election = BrokerElection()
        candidates = [
            self._candidate(f"v{i}", mips=100 + i * 50, dwell=10 + i, x=i * 100.0)
            for i in range(count)
        ]
        result = election.elect(candidates)
        assert result.winner_id in {c.vehicle_id for c in candidates}
        assert result.electorate_size == count
