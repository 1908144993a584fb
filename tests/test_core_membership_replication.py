"""Tests for membership, replication, aggregation, modes, directory."""

from __future__ import annotations

import pytest

from repro.errors import MembershipError, ResourceError, TaskError
from repro.geometry import Vec2
from repro.core import (
    FileStore,
    MembershipManager,
    ReplicationManager,
    ResourceOffer,
    StoredFile,
)
from repro.core.aggregation import AggregationJob, ResultAggregator, dissemination_cost
from repro.core.directory import ResourceDirectory, ResourceQuery
from repro.mobility import SensorKind
from repro.sim import SeededRng


class TestMembership:
    def test_join_and_leave(self):
        manager = MembershipManager("vc-1")
        manager.join("a", now=1.0)
        assert "a" in manager
        assert manager.info("a").joined_at == 1.0
        manager.leave("a")
        assert "a" not in manager
        assert manager.joins == 1 and manager.leaves == 1

    def test_duplicate_join_raises(self):
        manager = MembershipManager("vc-1")
        manager.join("a", 0.0)
        with pytest.raises(MembershipError):
            manager.join("a", 1.0)

    def test_leave_nonmember_raises(self):
        with pytest.raises(MembershipError):
            MembershipManager("vc-1").leave("ghost")

    def test_capacity_enforced(self):
        manager = MembershipManager("vc-1", max_members=2)
        manager.join("a", 0.0)
        manager.join("b", 0.0)
        with pytest.raises(MembershipError):
            manager.join("c", 0.0)

    def test_callbacks_fire(self):
        manager = MembershipManager("vc-1")
        joined, left = [], []
        manager.on_join(joined.append)
        manager.on_leave(left.append)
        manager.join("a", 0.0)
        manager.leave("a")
        assert joined == ["a"] and left == ["a"]

    def test_evict_out_of_range(self):
        manager = MembershipManager("vc-1")
        manager.join("near", 0.0, position=Vec2(10, 0))
        manager.join("far", 0.0, position=Vec2(1000, 0))
        manager.join("unknown", 0.0)  # no position: kept
        evicted = manager.evict_out_of_range(Vec2(0, 0), range_m=100)
        assert evicted == ["far"]
        assert "near" in manager and "unknown" in manager

    def test_tenure(self):
        manager = MembershipManager("vc-1")
        manager.join("a", now=5.0)
        assert manager.info("a").tenure(now=15.0) == 10.0

    def test_merge_absorb(self):
        alpha = MembershipManager("alpha", max_members=10)
        beta = MembershipManager("beta")
        alpha.join("a1", 0.0)
        beta.join("b1", 0.0)
        beta.join("b2", 0.0)
        absorbed = alpha.absorb(beta, now=5.0)
        assert sorted(absorbed) == ["b1", "b2"]
        assert len(alpha) == 3 and len(beta) == 0

    def test_absorb_respects_capacity(self):
        alpha = MembershipManager("alpha", max_members=2)
        beta = MembershipManager("beta")
        alpha.join("a1", 0.0)
        beta.join("b1", 0.0)
        beta.join("b2", 0.0)
        absorbed = alpha.absorb(beta, now=1.0)
        assert len(absorbed) == 1
        assert len(beta) == 1  # the unabsorbed member stays behind

    def test_split(self):
        manager = MembershipManager("vc-1")
        for vid in ("a", "b", "c"):
            manager.join(vid, 0.0)
        spawned = manager.split(["b", "c"], "vc-2", now=5.0)
        assert sorted(spawned.member_ids()) == ["b", "c"]
        assert manager.member_ids() == ["a"]

    def test_split_nonmember_raises(self):
        manager = MembershipManager("vc-1")
        manager.join("a", 0.0)
        with pytest.raises(MembershipError):
            manager.split(["ghost"], "vc-2", 0.0)


class TestFileStore:
    def test_capacity_accounting(self):
        store = FileStore("v1", capacity_bytes=100)
        store.put("f1", 60)
        assert store.used_bytes == 60
        assert store.free_bytes == 40
        assert store.holds("f1")

    def test_over_capacity_raises(self):
        store = FileStore("v1", capacity_bytes=100)
        with pytest.raises(ResourceError):
            store.put("f1", 200)

    def test_duplicate_put_idempotent(self):
        store = FileStore("v1", capacity_bytes=100)
        store.put("f1", 60)
        store.put("f1", 60)
        assert store.used_bytes == 60

    def test_drop(self):
        store = FileStore("v1", capacity_bytes=100)
        store.put("f1", 60)
        store.drop("f1")
        assert store.free_bytes == 100
        store.drop("ghost")  # no-op


class TestReplication:
    def _manager(self, members=5, capacity=1000, repair=True):
        manager = ReplicationManager(SeededRng(1, "repl"), repair=repair)
        for index in range(members):
            manager.add_store(FileStore(f"v{index}", capacity))
        return manager

    def test_places_target_replicas(self):
        manager = self._manager()
        placed = manager.store_file(StoredFile("f1", 100, target_replicas=3))
        assert placed == 3
        assert manager.replica_count("f1") == 3
        assert manager.is_available("f1")

    def test_replicas_on_distinct_members(self):
        manager = self._manager(members=3)
        manager.store_file(StoredFile("f1", 100, target_replicas=3))
        holders = [vid for vid in manager.member_ids() if manager._stores[vid].holds("f1")]
        assert len(holders) == 3

    def test_more_replicas_than_members_capped(self):
        manager = self._manager(members=2)
        placed = manager.store_file(StoredFile("f1", 100, target_replicas=5))
        assert placed == 2

    def test_duplicate_file_raises(self):
        manager = self._manager()
        manager.store_file(StoredFile("f1", 100, 1))
        with pytest.raises(ResourceError):
            manager.store_file(StoredFile("f1", 100, 1))

    def test_departure_with_repair_restores_replicas(self):
        manager = self._manager(members=5)
        manager.store_file(StoredFile("f1", 100, target_replicas=2))
        holder = next(
            vid for vid in manager.member_ids() if manager._stores[vid].holds("f1")
        )
        degraded = manager.remove_store(holder)
        assert "f1" in degraded
        assert manager.replica_count("f1") == 2  # repaired
        assert manager.repair_transfers >= 1

    def test_departure_without_repair_degrades(self):
        manager = self._manager(members=5, repair=False)
        manager.store_file(StoredFile("f1", 100, target_replicas=2))
        holders = [
            vid for vid in manager.member_ids() if manager._stores[vid].holds("f1")
        ]
        manager.remove_store(holders[0])
        assert manager.replica_count("f1") == 1

    def test_losing_all_replicas_makes_unavailable(self):
        manager = self._manager(members=2, repair=False)
        manager.store_file(StoredFile("f1", 100, target_replicas=2))
        for vid in list(manager.member_ids()):
            manager.remove_store(vid)
        assert not manager.is_available("f1")
        assert manager.read("f1") is None
        assert manager.failed_reads == 1

    def test_read_served_by_holder(self):
        manager = self._manager()
        manager.store_file(StoredFile("f1", 100, target_replicas=2))
        holder = manager.read("f1")
        assert holder is not None
        assert manager._stores[holder].holds("f1")

    def test_availability_metric(self):
        manager = self._manager(members=2, repair=False)
        manager.store_file(StoredFile("keep", 100, 2))
        manager.store_file(StoredFile("lose", 100, 1))
        loser = next(
            vid for vid in manager.member_ids() if manager._stores[vid].holds("lose")
        )
        manager.remove_store(loser)
        assert manager.availability() in (0.5, 1.0)

    def test_capacity_limits_placement(self):
        manager = ReplicationManager(SeededRng(2, "repl"))
        manager.add_store(FileStore("tiny", 50))
        placed = manager.store_file(StoredFile("big", 100, target_replicas=1))
        assert placed == 0
        assert not manager.is_available("big")


class TestAggregation:
    def test_quorum_completion(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", expected_parts=4, quorum_fraction=0.75, combine=sum)
        assert aggregator.submit_partial("j1", "w0", 0, 10, now=1.0) is None
        assert aggregator.submit_partial("j1", "w1", 1, 20, now=2.0) is None
        result = aggregator.submit_partial("j1", "w2", 2, 30, now=3.0)
        assert result == 60  # 3 of 4 = quorum at 0.75
        assert aggregator.job("j1").is_complete

    def test_full_quorum_default(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", expected_parts=2)
        aggregator.submit_partial("j1", "w0", 0, "a", 1.0)
        result = aggregator.submit_partial("j1", "w1", 1, "b", 2.0)
        assert result == ["a", "b"]

    def test_duplicate_partials_ignored(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", expected_parts=2, combine=sum)
        aggregator.submit_partial("j1", "w0", 0, 5, 1.0)
        aggregator.submit_partial("j1", "w0", 0, 5, 1.5)
        assert aggregator.duplicates_ignored == 1
        assert aggregator.progress("j1") == 0.5

    def test_late_partials_counted(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", expected_parts=1, combine=sum)
        aggregator.submit_partial("j1", "w0", 0, 5, 1.0)
        aggregator.submit_partial("j1", "w1", 0, 9, 2.0)
        assert aggregator.late_partials == 1

    def test_out_of_range_index_raises(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", expected_parts=2)
        with pytest.raises(TaskError):
            aggregator.submit_partial("j1", "w", 5, "x", 1.0)

    def test_duplicate_job_raises(self):
        aggregator = ResultAggregator()
        aggregator.open_job("j1", 1)
        with pytest.raises(TaskError):
            aggregator.open_job("j1", 1)

    def test_invalid_quorum(self):
        with pytest.raises(TaskError):
            AggregationJob("j", expected_parts=2, quorum_fraction=0.0)

    def test_dissemination_cost_shape(self):
        small = dissemination_cost(member_count=8, payload_bytes=1000)
        large = dissemination_cost(member_count=40, payload_bytes=1000)
        assert large > small  # second tier needed
        assert dissemination_cost(0, 1000) == 0.0


class TestResourceDirectory:
    def _directory(self):
        directory = ResourceDirectory()
        directory.register(
            ResourceOffer("lidar-big", 4000, 10**9, 1e7, frozenset({SensorKind.LIDAR}))
        )
        directory.register(ResourceOffer("plain-small", 500, 10**6, 1e5))
        return directory

    def test_search_filters_and_ranks(self):
        directory = self._directory()
        matches = directory.search(ResourceQuery(min_compute_mips=1000))
        assert [m.vehicle_id for m in matches] == ["lidar-big"]

    def test_sensor_requirement(self):
        directory = self._directory()
        query = ResourceQuery(required_sensors=frozenset({SensorKind.LIDAR}))
        assert directory.best_match(query).vehicle_id == "lidar-big"

    def test_no_match_returns_none(self):
        assert self._directory().best_match(ResourceQuery(min_compute_mips=1e9)) is None

    def test_register_replaces(self):
        directory = self._directory()
        directory.register(ResourceOffer("plain-small", 9000, 1, 1))
        assert len(directory) == 2
        assert directory.best_match(ResourceQuery()).vehicle_id == "plain-small"

    def test_deregister(self):
        directory = self._directory()
        directory.deregister("lidar-big")
        assert len(directory) == 1

    def test_limit(self):
        directory = self._directory()
        assert len(directory.search(ResourceQuery(limit=1))) == 1

    def test_total_capacity(self):
        total = self._directory().total_capacity()
        assert total.compute_mips == 4500
        assert SensorKind.LIDAR in total.sensors

    def test_invalid_limit(self):
        with pytest.raises(ResourceError):
            ResourceQuery(limit=0)
