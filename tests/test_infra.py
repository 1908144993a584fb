"""Tests for RSUs, base stations, central cloud and the disaster model."""

from __future__ import annotations

import pytest

from repro.geometry import Vec2
from repro.infra import (
    BaseStation,
    CentralCloud,
    DisasterModel,
    Rsu,
    coverage_fraction,
    deploy_rsus_on_grid,
    deploy_rsus_on_highway,
)
from repro.mobility import AutomationLevel, Highway, ManhattanGrid, OnboardEquipment, Vehicle
from repro.net import WirelessChannel
from repro.net.messages import data_message


class TestRsu:
    def test_covers(self, world):
        channel = WirelessChannel(world)
        rsu = Rsu(world, channel, Vec2(0, 0), radio_range_m=500)
        assert rsu.covers(Vec2(400, 0))
        assert not rsu.covers(Vec2(600, 0))

    def test_damage_takes_offline(self, world):
        channel = WirelessChannel(world)
        rsu = Rsu(world, channel, Vec2(0, 0))
        rsu.damage()
        assert rsu.damaged and not rsu.online
        rsu.repair()
        assert not rsu.damaged and rsu.online

    def test_backhaul_forwarding(self, world):
        channel = WirelessChannel(world)
        a = Rsu(world, channel, Vec2(0, 0))
        b = Rsu(world, channel, Vec2(1000, 0))
        a.connect_backhaul(b)
        received = []
        b.on_any(lambda msg, frm: received.append((msg, frm)))
        message = data_message(a.node_id, b.node_id, 100, world.now)
        assert a.forward_via_backhaul(b, message)
        world.run_for(1.0)
        assert received and received[0][1] == a.node_id

    def test_backhaul_fails_when_damaged(self, world):
        channel = WirelessChannel(world)
        a = Rsu(world, channel, Vec2(0, 0))
        b = Rsu(world, channel, Vec2(1000, 0))
        a.connect_backhaul(b)
        b.damage()
        assert not a.forward_via_backhaul(b, data_message(a.node_id, b.node_id, 100, 0.0))

    def test_backhaul_peers_bidirectional(self, world):
        channel = WirelessChannel(world)
        a = Rsu(world, channel, Vec2(0, 0))
        b = Rsu(world, channel, Vec2(500, 0))
        a.connect_backhaul(b)
        assert b in a.backhaul_peers()
        assert a in b.backhaul_peers()


class TestBaseStation:
    def test_serves_cellular_vehicles_in_range(self, world):
        channel = WirelessChannel(world)
        station = BaseStation(world, channel, Vec2(0, 0), radio_range_m=2000)
        cellular = Vehicle(
            position=Vec2(500, 0),
            equipment=OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION, cellular=True),
        )
        dsrc_only = Vehicle(
            position=Vec2(500, 0),
            equipment=OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION),
        )
        far = Vehicle(
            position=Vec2(9000, 0),
            equipment=OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION, cellular=True),
        )
        assert station.can_serve(cellular)
        assert not station.can_serve(dsrc_only)
        assert not station.can_serve(far)

    def test_damaged_station_serves_nobody(self, world):
        channel = WirelessChannel(world)
        station = BaseStation(world, channel, Vec2(0, 0))
        vehicle = Vehicle(
            position=Vec2(100, 0),
            equipment=OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION, cellular=True),
        )
        station.damage()
        assert not station.can_serve(vehicle)


class TestCentralCloud:
    def test_request_completes_after_wan_delay(self, world):
        cloud = CentralCloud(world, compute_mips=1000.0, wan_delay_s=0.1)
        responses = []
        cloud.submit(work_mi=100.0, on_finish=lambda request, _reason: responses.append(request))
        world.run_for(0.05)
        assert responses == []
        world.run_for(1.0)
        assert len(responses) == 1
        response = responses[0]
        # 0.1 uplink + 0.1 compute + 0.1 downlink
        assert response.completed_at == pytest.approx(0.3)
        assert response.queue_delay_s == 0.0

    def test_queueing_under_load(self, world):
        cloud = CentralCloud(world, compute_mips=100.0, wan_delay_s=0.0)
        responses = []
        for index in range(3):
            cloud.submit(
                work_mi=100.0, on_finish=lambda request, _reason: responses.append(request)
            )
        world.run_for(10.0)
        assert len(responses) == 3
        assert responses[-1].queue_delay_s == pytest.approx(2.0)

    def test_backlog_reported(self, world):
        cloud = CentralCloud(world, compute_mips=100.0, wan_delay_s=0.0)
        cloud.submit(work_mi=500.0)
        assert cloud.backlog_s == pytest.approx(5.0)

    def test_negative_work_rejected(self, world):
        cloud = CentralCloud(world)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            cloud.submit(work_mi=-1.0)

    def test_nan_capacity_and_work_rejected(self, world):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CentralCloud(world, compute_mips=float("nan"))
        cloud = CentralCloud(world)
        with pytest.raises(ConfigurationError):
            cloud.submit(work_mi=float("nan"))
        assert cloud.pending_requests() == 0 and cloud.backlog_s == 0.0


class TestDeployment:
    def test_highway_spacing(self, world):
        channel = WirelessChannel(world)
        highway = Highway(length_m=3000)
        rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1000)
        assert len(rsus) == 3
        xs = [rsu.position.x for rsu in rsus]
        assert xs == [500.0, 1500.0, 2500.0]

    def test_highway_chain_backhaul(self, world):
        channel = WirelessChannel(world)
        rsus = deploy_rsus_on_highway(world, channel, Highway(length_m=3000), 1000)
        assert rsus[1] in rsus[0].backhaul_peers()
        assert rsus[2] not in rsus[0].backhaul_peers()

    def test_grid_deployment(self, world):
        channel = WirelessChannel(world)
        grid = ManhattanGrid(blocks_x=4, blocks_y=4, block_size_m=200)
        rsus = deploy_rsus_on_grid(world, channel, grid, every_nth_intersection=2)
        assert len(rsus) == 9  # (0,2,4) x (0,2,4)

    def test_coverage_fraction(self, world):
        channel = WirelessChannel(world)
        rsus = deploy_rsus_on_highway(world, channel, Highway(length_m=2000), 1000)
        points = [Vec2(x, 0) for x in (0, 500, 1500, 10_000)]
        fraction = coverage_fraction(rsus, points)
        assert fraction == pytest.approx(0.75)
        rsus[0].damage()
        assert coverage_fraction(rsus, points) < fraction


class TestDisasterModel:
    def _deploy(self, world):
        channel = WirelessChannel(world)
        return deploy_rsus_on_highway(world, channel, Highway(length_m=4000), 1000)

    def test_strike_fraction(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        victims = disaster.strike(0.5)
        assert len(victims) == 2
        assert disaster.live_fraction == 0.5

    def test_strike_full(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        disaster.strike(1.0)
        assert all(rsu.damaged for rsu in rsus)

    def test_invalid_fraction(self, world):
        disaster = DisasterModel(world, self._deploy(world))
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            disaster.strike(1.5)

    def test_scheduled_strike_and_repair(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        disaster.schedule_strike(at_time=10.0, fraction=1.0)
        disaster.schedule_repair(at_time=20.0)
        world.run_for(5.0)
        assert disaster.live_fraction == 1.0
        world.run_for(10.0)
        assert disaster.live_fraction == 0.0
        world.run_for(10.0)
        assert disaster.live_fraction == 1.0

    def test_repair_all_count(self, world):
        disaster = DisasterModel(world, self._deploy(world))
        disaster.strike(1.0)
        assert disaster.repair_all() == 4
        assert disaster.repair_all() == 0


class TestDisasterRepairPaths:
    def _deploy(self, world):
        channel = WirelessChannel(world)
        return deploy_rsus_on_highway(world, channel, Highway(length_m=4000), 1000)

    def test_repair_one_restores_longest_damaged_first(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        first = disaster.strike(0.5)
        disaster.strike(1.0)  # remaining intact nodes
        repaired = disaster.repair_one()
        assert repaired is first[0]
        assert not repaired.damaged
        assert len(disaster.damaged_nodes) == 3

    def test_repair_one_empty_returns_none(self, world):
        disaster = DisasterModel(world, self._deploy(world))
        assert disaster.repair_one() is None

    def test_repair_metric_counted(self, world):
        disaster = DisasterModel(world, self._deploy(world))
        disaster.strike(1.0)
        disaster.repair_one()
        disaster.repair_all()
        assert world.metrics.counter("disaster/nodes_repaired") == 4

    def test_staggered_repair_ramps_capacity(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        disaster.strike(1.0)
        disaster.schedule_staggered_repair(at_time=10.0, interval_s=5.0)
        world.run_for(9.0)
        assert disaster.live_fraction == 0.0
        world.run_for(1.5)  # t=10.5: first node back
        assert disaster.live_fraction == 0.25
        world.run_for(5.0)  # t=15.5: second node back
        assert disaster.live_fraction == 0.5
        world.run_for(20.0)
        assert disaster.live_fraction == 1.0

    def test_staggered_repair_validates_interval(self, world):
        from repro.errors import ConfigurationError

        disaster = DisasterModel(world, self._deploy(world))
        with pytest.raises(ConfigurationError):
            disaster.schedule_staggered_repair(at_time=1.0, interval_s=0.0)

    def test_staggered_repair_only_covers_nodes_damaged_at_start(self, world):
        rsus = self._deploy(world)
        disaster = DisasterModel(world, rsus)
        disaster.strike(0.5)
        disaster.schedule_staggered_repair(at_time=5.0, interval_s=1.0)
        world.run_for(20.0)
        assert disaster.live_fraction == 1.0
        assert world.metrics.counter("disaster/nodes_repaired") == 2
