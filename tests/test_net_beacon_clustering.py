"""Tests for beaconing, neighbor tables and clustering algorithms."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import BeaconService, NeighborTable, VehicleNode, WirelessChannel
from repro.net.clustering import (
    Cluster,
    ClusterSet,
    MobilityClustering,
    PassiveMultihopClustering,
    RsuAnchoredClustering,
    head_lifetimes,
    neighbors_within,
)
from repro.net.messages import hello_message
from repro.sim import ChannelConfig, ScenarioConfig, World


def lossless_world():
    return World(
        ScenarioConfig(seed=5, channel=ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0))
    )


def vehicles_at(*positions, speed=0.0, heading=0.0):
    return [
        Vehicle(position=Vec2(x, y), speed_mps=speed, heading_rad=heading)
        for x, y in positions
    ]


class TestNeighborTable:
    def test_update_from_hello(self):
        table = NeighborTable(timeout_s=3.0)
        hello = hello_message("veh-x", (10, 20), 15.0, 0.5, 0.0)
        entry = table.update_from_hello(hello, now=1.0)
        assert entry.position == Vec2(10, 20)
        assert entry.speed_mps == 15.0
        assert "veh-x" in table

    def test_refresh_updates_state(self):
        table = NeighborTable(timeout_s=3.0)
        table.update_from_hello(hello_message("veh-x", (0, 0), 10, 0, 0.0), now=0.0)
        table.update_from_hello(hello_message("veh-x", (5, 0), 12, 0, 1.0), now=1.0)
        entry = table.get("veh-x")
        assert entry.position == Vec2(5, 0)
        assert entry.beacon_count == 2

    def test_expiry(self):
        table = NeighborTable(timeout_s=2.0)
        table.update_from_hello(hello_message("veh-x", (0, 0), 10, 0, 0.0), now=0.0)
        dropped = table.expire(now=5.0)
        assert dropped == ["veh-x"]
        assert len(table) == 0

    def test_fresh_entries_survive_expiry(self):
        table = NeighborTable(timeout_s=2.0)
        table.update_from_hello(hello_message("veh-x", (0, 0), 10, 0, 0.0), now=4.0)
        assert table.expire(now=5.0) == []

    def test_invalid_timeout(self):
        with pytest.raises(ConfigurationError):
            NeighborTable(timeout_s=0.0)

    def test_nan_timeout_rejected(self):
        # No age is ever greater than NaN, so nothing would ever expire.
        with pytest.raises(ConfigurationError):
            NeighborTable(timeout_s=math.nan)


class TestBeaconService:
    def test_neighbors_discover_each_other(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        nodes = [
            VehicleNode(world, channel, Vehicle(position=Vec2(i * 100.0, 0)))
            for i in range(3)
        ]
        services = [BeaconService(world, node) for node in nodes]
        for service in services:
            service.start()
        world.run_for(5.0)
        assert len(services[1].table) == 2  # middle node hears both

    def test_departed_neighbor_expires(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        a = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        b = VehicleNode(world, channel, Vehicle(position=Vec2(100, 0)))
        service_a = BeaconService(world, a)
        service_b = BeaconService(world, b)
        service_a.start()
        service_b.start()
        world.run_for(5.0)
        assert len(service_a.table) == 1
        b.vehicle.position = Vec2(10_000, 0)
        world.run_for(10.0)
        assert len(service_a.table) == 0

    def test_identity_provider_changes_on_air_source(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))

        class FixedIdentity:
            def current_identity(self, now):
                return "pn-masked"

        service = BeaconService(world, node, identity_provider=FixedIdentity())
        assert service.on_air_identity() == "pn-masked"

    def test_stop_halts_beaconing(self):
        world = lossless_world()
        channel = WirelessChannel(world)
        node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        service = BeaconService(world, node)
        service.start()
        world.run_for(3.0)
        sent_before = world.metrics.counter("beacon/sent")
        service.stop()
        world.run_for(5.0)
        assert world.metrics.counter("beacon/sent") == sent_before

    def test_crashed_beaconer_does_not_keep_frozen_table(self):
        """Expiry used to run only inside ``_beacon``: a node whose own
        beaconing crashed/stalled (``repro.faults`` style) served an
        ever-stale table forever.  Reads must expire on their own."""
        world = lossless_world()
        channel = WirelessChannel(world)
        a = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        b = VehicleNode(world, channel, Vehicle(position=Vec2(100, 0)))
        service_a = BeaconService(world, a)
        service_b = BeaconService(world, b)
        service_a.start()
        service_b.start()
        world.run_for(5.0)
        assert b.node_id in service_a.table.ids()
        # A crashes (its periodic beacon — and with it the old expiry
        # hook — never runs again); B simultaneously goes silent.
        service_a.stop()
        service_b.stop()
        b.go_offline()
        world.run_for(30.0)  # far beyond the neighbor timeout
        assert service_a.table.ids() == []
        assert service_a.table.get(b.node_id) is None
        assert b.node_id not in service_a.table
        assert len(service_a.table) == 0

    def test_table_without_clock_keeps_explicit_expiry_contract(self):
        table = NeighborTable(timeout_s=2.0)
        table.update_from_hello(hello_message("veh-x", (0, 0), 10, 0, 0.0), now=0.0)
        # No clock: reads do not expire on their own...
        assert "veh-x" in table
        # ...until expire() is called explicitly.
        assert table.expire(now=10.0) == ["veh-x"]


class TestNeighborsWithin:
    def test_adjacency_symmetric(self):
        vehicles = vehicles_at((0, 0), (100, 0), (500, 0))
        adjacency = neighbors_within(vehicles, 200)
        a, b, c = [v.vehicle_id for v in vehicles]
        assert [v.vehicle_id for v in adjacency[a]] == [b]
        assert [v.vehicle_id for v in adjacency[b]] == [a]
        assert adjacency[c] == []

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            neighbors_within([], 0)


class TestCluster:
    def test_head_always_member(self):
        cluster = Cluster(head_id="h", member_ids=["a", "b"])
        assert cluster.contains("h")
        assert cluster.size == 3

    def test_cluster_set_lookup(self):
        clusters = ClusterSet(clusters=[Cluster(head_id="h", member_ids=["h", "a"])])
        assert clusters.cluster_of("a").head_id == "h"
        assert clusters.cluster_of("ghost") is None
        assert clusters.head_ids() == ["h"]

    def test_mean_size(self):
        clusters = ClusterSet(
            clusters=[
                Cluster(head_id="a", member_ids=["a"]),
                Cluster(head_id="b", member_ids=["b", "c", "d"]),
            ]
        )
        assert clusters.mean_size == 2.0


class TestMobilityClustering:
    def test_covers_all_vehicles(self):
        vehicles = vehicles_at((0, 0), (50, 0), (100, 0), (1000, 0))
        clustering = MobilityClustering()
        result = clustering.form(vehicles, range_m=200)
        assert sorted(result.all_member_ids()) == sorted(v.vehicle_id for v in vehicles)

    def test_clusters_disjoint(self):
        vehicles = vehicles_at(*[(i * 60.0, 0) for i in range(12)])
        result = MobilityClustering().form(vehicles, range_m=150)
        members = result.all_member_ids()
        assert len(members) == len(set(members))

    def test_isolated_vehicle_is_singleton(self):
        vehicles = vehicles_at((0, 0), (10_000, 0))
        result = MobilityClustering().form(vehicles, range_m=100)
        sizes = sorted(c.size for c in result.clusters)
        assert sizes == [1, 1]

    def test_co_moving_vehicles_score_higher(self):
        clustering = MobilityClustering()
        center = Vehicle(position=Vec2(0, 0), speed_mps=20, heading_rad=0)
        aligned = [
            Vehicle(position=Vec2(50, 0), speed_mps=20, heading_rad=0),
            Vehicle(position=Vec2(-50, 0), speed_mps=21, heading_rad=0),
        ]
        opposing = [
            Vehicle(position=Vec2(50, 0), speed_mps=20, heading_rad=math.pi),
            Vehicle(position=Vec2(-50, 0), speed_mps=21, heading_rad=math.pi),
        ]
        assert clustering.stability_score(center, aligned) > clustering.stability_score(
            center, opposing
        )

    def test_max_cluster_size_respected(self):
        vehicles = vehicles_at(*[(i * 10.0, 0) for i in range(20)])
        result = MobilityClustering(max_cluster_size=5).form(vehicles, range_m=500)
        assert all(c.size <= 5 for c in result.clusters)

    def test_deterministic(self):
        vehicles = vehicles_at(*[(i * 40.0, 0) for i in range(10)])
        a = MobilityClustering().form(vehicles, range_m=150)
        b = MobilityClustering().form(vehicles, range_m=150)
        assert a.head_ids() == b.head_ids()

    def test_maintain_preserves_formed_at_for_stable_heads(self):
        vehicles = vehicles_at(*[(i * 50.0, 0) for i in range(6)])
        clustering = MobilityClustering()
        first = clustering.form(vehicles, range_m=200, now=0.0)
        second = clustering.maintain(first, vehicles, range_m=200, now=10.0)
        assert set(second.head_ids()) == set(first.head_ids())
        assert all(c.formed_at == 0.0 for c in second.clusters)

    def test_control_messages_counted(self):
        vehicles = vehicles_at(*[(i * 50.0, 0) for i in range(6)])
        result = MobilityClustering().form(vehicles, range_m=200)
        assert result.control_messages >= len(vehicles)


class TestPassiveMultihop:
    def test_covers_all_vehicles(self):
        vehicles = vehicles_at(*[(i * 80.0, 0) for i in range(10)])
        result = PassiveMultihopClustering(n_hops=2).form(vehicles, range_m=100)
        assert sorted(result.all_member_ids()) == sorted(v.vehicle_id for v in vehicles)

    def test_members_within_n_hops(self):
        # A chain: with n_hops=1, no member may be 2 hops from its head.
        vehicles = vehicles_at(*[(i * 90.0, 0) for i in range(8)])
        result = PassiveMultihopClustering(n_hops=1).form(vehicles, range_m=100)
        adjacency = neighbors_within(vehicles, 100)
        for cluster in result.clusters:
            head = cluster.head_id
            direct = {v.vehicle_id for v in adjacency[head]} | {head}
            assert set(cluster.member_ids) <= direct

    def test_stable_node_becomes_head(self):
        # One vehicle matches the flow; another diverges wildly.
        flow = [
            Vehicle(position=Vec2(i * 50.0, 0), speed_mps=20, heading_rad=0)
            for i in range(4)
        ]
        outlier = Vehicle(position=Vec2(100, 10), speed_mps=40, heading_rad=math.pi)
        result = PassiveMultihopClustering(n_hops=2).form(flow + [outlier], range_m=300)
        biggest = max(result.clusters, key=lambda c: c.size)
        assert biggest.head_id != outlier.vehicle_id

    def test_invalid_hops(self):
        with pytest.raises(ConfigurationError):
            PassiveMultihopClustering(n_hops=0)


class TestRsuAnchored:
    def test_vehicles_assigned_to_nearest_rsu(self):
        clustering = RsuAnchoredClustering(
            [Vec2(0, 0), Vec2(1000, 0)], coverage_m=400
        )
        vehicles = vehicles_at((100, 0), (900, 0))
        result = clustering.form(vehicles, range_m=300)
        assert len(result.clusters) == 2
        assert all(c.size == 1 for c in result.clusters)

    def test_uncovered_vehicles_excluded(self):
        clustering = RsuAnchoredClustering([Vec2(0, 0)], coverage_m=200)
        vehicles = vehicles_at((100, 0), (5000, 0))
        result = clustering.form(vehicles, range_m=300)
        assert len(result.all_member_ids()) == 1

    def test_coverage_fraction(self):
        clustering = RsuAnchoredClustering([Vec2(0, 0)], coverage_m=200)
        vehicles = vehicles_at((100, 0), (5000, 0))
        assert clustering.coverage_fraction(vehicles) == 0.5

    def test_requires_rsus(self):
        with pytest.raises(ConfigurationError):
            RsuAnchoredClustering([])


class TestHeadLifetimes:
    def test_continuous_head_counts_snapshots(self):
        snapshot = ClusterSet(clusters=[Cluster(head_id="h", member_ids=["h"])])
        lifetimes = head_lifetimes([snapshot, snapshot, snapshot], interval_s=2.0)
        assert lifetimes == [6.0]

    def test_head_change_splits_tenure(self):
        first = ClusterSet(clusters=[Cluster(head_id="a", member_ids=["a"])])
        second = ClusterSet(clusters=[Cluster(head_id="b", member_ids=["b"])])
        lifetimes = sorted(head_lifetimes([first, first, second], interval_s=1.0))
        assert lifetimes == [1.0, 2.0]

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            head_lifetimes([], 0.0)
