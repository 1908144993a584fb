"""Tests for the §V open-problem extensions: bootstrap, federation,
topology forensics, sensing-as-a-service, and networked event reporting."""

from __future__ import annotations

import pytest

from repro.core import ResourceOffer, VehicularCloud
from repro.core.bootstrap import SecureBootstrap
from repro.core.federation import CloudFederation
from repro.core.sensing import SensingQuery, SensingService
from repro.core.snapshot import ForensicService, TopologyRecorder
from repro.geometry import Vec2
from repro.mobility import (
    AutomationLevel,
    OnboardEquipment,
    SensorKind,
    StationaryModel,
    Vehicle,
)
from repro.net import VehicleNode, WirelessChannel
from repro.security import RealIdentity, TokenService, TrustedAuthority
from repro.security.access import AuditLog, AuditRecord
from repro.security.protocols import RandomizedAuthProtocol
from repro.sim import ChannelConfig, ScenarioConfig, World
from repro.trust import (
    EventKind,
    EventReportCollector,
    MajorityVoting,
    MessageClassifier,
    TrustPipeline,
    WitnessReporter,
)


# ---------------------------------------------------------------------------
# SecureBootstrap
# ---------------------------------------------------------------------------


class TestSecureBootstrap:
    def _setup(self, world, members=3):
        model = StationaryModel(world, positions=[Vec2(i * 50.0, 0) for i in range(members)])
        vehicles = model.populate(members)
        authority = TrustedAuthority()
        protocol = RandomizedAuthProtocol(authority)
        cloud = VehicularCloud(world, "boot-vc")
        # Seed the coordinator.
        protocol.enroll(vehicles[0].vehicle_id)
        cloud.admit(vehicles[0])
        bootstrap = SecureBootstrap(world, cloud, protocol)
        return vehicles, authority, protocol, cloud, bootstrap

    def test_full_pipeline_admits(self, world):
        vehicles, _ta, _protocol, cloud, bootstrap = self._setup(world)
        result = bootstrap.initialize(vehicles[1])
        assert result.admitted
        assert vehicles[1].vehicle_id in cloud.membership
        assert result.total_latency_s > 0
        assert set(result.stage_latencies_s) == {"enroll", "authenticate", "token", "admit"}

    def test_enrollment_needs_infrastructure(self, world):
        vehicles, _ta, _protocol, cloud, bootstrap = self._setup(world)
        result = bootstrap.initialize(vehicles[1], infra_available=False)
        assert result.failed
        assert result.failure_stage == "enroll"
        assert vehicles[1].vehicle_id not in cloud.membership

    def test_pre_enrolled_vehicle_joins_without_infra(self, world):
        """Infrastructure-light steady state: enrollment done earlier."""
        vehicles, _ta, protocol, cloud, bootstrap = self._setup(world)
        protocol.enroll(vehicles[1].vehicle_id)
        result = bootstrap.initialize(vehicles[1], infra_available=False)
        assert result.admitted
        assert result.stage_latencies_s["enroll"] == 0.0

    def test_randomized_identities_cannot_get_tokens(self, world):
        """Randomized identities are self-generated and unknown to the
        TA escrow, so token issuance fails closed at the token stage —
        the trade-off of going infrastructure-free."""
        vehicles, authority, protocol, cloud, _ = self._setup(world)
        bootstrap = SecureBootstrap(
            world, cloud, protocol, token_service=TokenService(authority)
        )
        result = bootstrap.initialize(vehicles[1])
        assert result.failed
        assert result.failure_stage == "token"

    def test_token_with_pseudonym_protocol(self, world):
        from repro.security.protocols import PseudonymAuthProtocol

        model = StationaryModel(world, positions=[Vec2(0, 0), Vec2(50, 0)])
        vehicles = model.populate(2)
        authority = TrustedAuthority()
        protocol = PseudonymAuthProtocol(authority)
        cloud = VehicularCloud(world, "tok-vc")
        protocol.enroll(vehicles[0].vehicle_id)
        cloud.admit(vehicles[0])
        bootstrap = SecureBootstrap(
            world, cloud, protocol, token_service=TokenService(authority)
        )
        result = bootstrap.initialize(vehicles[1])
        assert result.admitted
        assert result.token is not None
        assert TokenService(authority).verify(
            result.token, "vcloud", now=world.now
        ).value or result.token.service == "vcloud"

    def test_stats_aggregate(self, world):
        vehicles, _ta, _protocol, _cloud, bootstrap = self._setup(world, members=4)
        bootstrap.initialize(vehicles[1])
        bootstrap.initialize(vehicles[2])
        bootstrap.initialize(vehicles[3], infra_available=False)
        assert bootstrap.stats.attempts == 3
        assert bootstrap.stats.admitted == 2
        assert bootstrap.stats.admission_rate == pytest.approx(2 / 3)
        assert bootstrap.stats.rejects_by_stage == {"enroll": 1}
        assert bootstrap.stats.mean_latency_s > 0


# ---------------------------------------------------------------------------
# CloudFederation
# ---------------------------------------------------------------------------


class TestCloudFederation:
    def _cloud(self, world, cloud_id, vehicles):
        cloud = VehicularCloud(world, cloud_id)
        for vehicle in vehicles:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 1000, 10**9, 1e6))
        return cloud

    def _federation(self, world, lookup):
        return CloudFederation(
            world, lookup, merge_range_m=150.0, max_diameter_m=600.0
        )

    def test_nearby_clouds_merge(self, world):
        # Heads (first-admitted members) sit at x=0 and x=120 < 150 m.
        vehicles = [Vehicle(position=Vec2(i * 30.0, 0)) for i in range(6)]
        lookup = {v.vehicle_id: v for v in vehicles}
        alpha = self._cloud(world, "alpha", vehicles[:4])
        beta = self._cloud(world, "beta", vehicles[4:])
        federation = self._federation(world, lookup.get)
        federation.register(alpha)
        federation.register(beta)
        federation.step()
        assert federation.merges == 1
        assert federation.cloud_count() == 1
        assert federation.total_members() == 6

    def test_distant_clouds_stay_separate(self, world):
        near = [Vehicle(position=Vec2(i * 40.0, 0)) for i in range(3)]
        far = [Vehicle(position=Vec2(10_000 + i * 40.0, 0)) for i in range(3)]
        lookup = {v.vehicle_id: v for v in near + far}
        federation = self._federation(world, lookup.get)
        federation.register(self._cloud(world, "near", near))
        federation.register(self._cloud(world, "far", far))
        federation.step()
        assert federation.merges == 0
        assert federation.cloud_count() == 2

    def test_overstretched_cloud_splits(self, world):
        # Two knots of vehicles 1 km apart inside one cloud.
        knot_a = [Vehicle(position=Vec2(i * 30.0, 0)) for i in range(3)]
        knot_b = [Vehicle(position=Vec2(1000 + i * 30.0, 0)) for i in range(3)]
        vehicles = knot_a + knot_b
        lookup = {v.vehicle_id: v for v in vehicles}
        cloud = self._cloud(world, "stretched", vehicles)
        federation = self._federation(world, lookup.get)
        federation.register(cloud)
        federation.step()
        assert federation.splits == 1
        assert federation.cloud_count() == 2
        assert federation.total_members() == 6
        for managed in federation.clouds:
            assert federation.diameter_of(managed) <= 600.0

    def test_split_cloud_elects_new_head(self, world):
        knot_a = [Vehicle(position=Vec2(i * 30.0, 0)) for i in range(3)]
        knot_b = [Vehicle(position=Vec2(1000 + i * 30.0, 0)) for i in range(3)]
        lookup = {v.vehicle_id: v for v in knot_a + knot_b}
        cloud = self._cloud(world, "stretched", knot_a + knot_b)
        federation = self._federation(world, lookup.get)
        federation.register(cloud)
        federation.step()
        spawned = [c for c in federation.clouds if c is not cloud][0]
        assert spawned.head_id in spawned.membership.member_ids()

    def test_merge_respects_capacity(self, world):
        vehicles = [Vehicle(position=Vec2(i * 20.0, 0)) for i in range(6)]
        lookup = {v.vehicle_id: v for v in vehicles}
        alpha = VehicularCloud(world, "alpha", max_members=4)
        for vehicle in vehicles[:4]:
            alpha.admit(vehicle)
        beta = self._cloud(world, "beta", vehicles[4:])
        federation = self._federation(world, lookup.get)
        federation.register(alpha)
        federation.register(beta)
        federation.step()
        assert federation.merges == 0  # 4 + 2 > capacity 4
        assert federation.cloud_count() == 2

    def test_invalid_geometry_rejected(self, world):
        from repro.errors import MembershipError

        with pytest.raises(MembershipError):
            CloudFederation(world, lambda vid: None, merge_range_m=500, max_diameter_m=400)

    def test_periodic_stepping(self, world):
        vehicles = [Vehicle(position=Vec2(i * 40.0, 0)) for i in range(4)]
        lookup = {v.vehicle_id: v for v in vehicles}
        federation = self._federation(world, lookup.get)
        federation.register(self._cloud(world, "a", vehicles[:2]))
        federation.register(self._cloud(world, "b", vehicles[2:]))
        federation.start()
        world.run_for(10.0)
        federation.stop()
        assert federation.cloud_count() == 1


# ---------------------------------------------------------------------------
# Topology snapshots and forensics
# ---------------------------------------------------------------------------


class TestTopologyForensics:
    def _recorder(self, world, vehicles, identity_map=None):
        identity_map = identity_map or {}

        def identity_of(vehicle):
            return identity_map.get(vehicle.vehicle_id, vehicle.vehicle_id)

        return TopologyRecorder(
            world, identity_of, vehicles, link_range_m=300.0, interval_s=5.0
        )

    def test_snapshot_contents(self, world):
        vehicles = [Vehicle(position=Vec2(0, 0)), Vehicle(position=Vec2(100, 0))]
        recorder = self._recorder(world, vehicles)
        snapshot = recorder.sample()
        assert len(snapshot.positions) == 2
        assert len(snapshot.links) == 1  # within 300 m of each other

    def test_area_query(self, world):
        vehicles = [Vehicle(position=Vec2(0, 0)), Vehicle(position=Vec2(5000, 0))]
        recorder = self._recorder(world, vehicles)
        snapshot = recorder.sample()
        nearby = snapshot.nodes_in_area(Vec2(0, 0), 500)
        assert nearby == [vehicles[0].vehicle_id]

    def test_periodic_sampling_and_retention(self, world):
        vehicles = [Vehicle(position=Vec2(0, 0))]
        recorder = TopologyRecorder(
            world, lambda v: v.vehicle_id, vehicles, interval_s=1.0, retention=5
        )
        recorder.start()
        world.run_for(20.0)
        recorder.stop()
        assert len(recorder.snapshots) == 5  # retention bound
        assert recorder.storage_records == 5

    def test_window_query(self, world):
        vehicles = [Vehicle(position=Vec2(0, 0))]
        recorder = self._recorder(world, vehicles)
        recorder.sample()
        world.run_for(10.0)
        recorder.sample()
        assert len(recorder.window(0.0, 5.0)) == 1
        assert len(recorder.window(0.0, 20.0)) == 2

    def test_investigation_names_attacker(self, world):
        authority = TrustedAuthority()
        authority.register_vehicle(RealIdentity("car-evil"))
        authority.register_vehicle(RealIdentity("car-good"))
        evil_pool = authority.issue_pseudonyms("car-evil", 1)
        good_pool = authority.issue_pseudonyms("car-good", 1)
        evil_pn = evil_pool.pseudonyms[0].pseudonym_id
        good_pn = good_pool.pseudonyms[0].pseudonym_id

        vehicles = [Vehicle(position=Vec2(0, 0)), Vehicle(position=Vec2(50, 0))]
        identity_map = {
            vehicles[0].vehicle_id: evil_pn,
            vehicles[1].vehicle_id: good_pn,
        }
        recorder = self._recorder(world, vehicles, identity_map)
        recorder.sample()

        audit = AuditLog()
        for index in range(3):
            audit.append(
                AuditRecord(
                    time=float(index),
                    package_id="pkg",
                    requester=evil_pn,
                    action="read",
                    resource="secret",
                    permitted=False,
                )
            )
        service = ForensicService(authority, recorder)
        report = service.investigate(
            audit, Vec2(0, 0), area_radius_m=500, window=(0.0, 1.0)
        )
        assert report.suspects == ("car-evil",)
        assert report.innocents_exposed == 1  # car-good was de-anonymized too
        assert report.privacy_cost == 2

    def test_investigation_outside_area_finds_nothing(self, world):
        authority = TrustedAuthority()
        recorder = self._recorder(world, [Vehicle(position=Vec2(0, 0))])
        recorder.sample()
        audit = AuditLog()
        service = ForensicService(authority, recorder)
        report = service.investigate(
            audit, Vec2(10_000, 0), area_radius_m=100, window=(0.0, 1.0)
        )
        assert report.suspects == ()
        assert report.privacy_cost == 0


# ---------------------------------------------------------------------------
# Sensing as a service
# ---------------------------------------------------------------------------


class TestSensingService:
    def _fleet(self, count=6, speed=20.0):
        return [
            Vehicle(
                position=Vec2(i * 50.0, 0),
                speed_mps=speed,
                equipment=OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION),
            )
            for i in range(count)
        ]

    def test_speed_query_near_truth(self, world):
        vehicles = self._fleet(speed=20.0)
        service = SensingService(world, vehicles)
        answer = service.query(
            SensingQuery(SensorKind.SPEEDOMETER, Vec2(100, 0), radius_m=500)
        )
        assert answer.answered
        assert answer.value == pytest.approx(20.0, rel=0.1)
        assert answer.readings_used >= 3
        assert answer.latency_s > 0

    def test_area_restricts_contributors(self, world):
        vehicles = self._fleet()
        service = SensingService(world, vehicles)
        answer = service.query(
            SensingQuery(SensorKind.SPEEDOMETER, Vec2(0, 0), radius_m=60, min_readings=1)
        )
        assert answer.contributors == 2  # only the first two are inside

    def test_insufficient_readings_fails_closed(self, world):
        vehicles = self._fleet(count=2)
        service = SensingService(world, vehicles)
        answer = service.query(
            SensingQuery(SensorKind.SPEEDOMETER, Vec2(0, 0), radius_m=60, min_readings=5)
        )
        assert not answer.answered
        assert service.queries_failed == 1

    def test_sensor_requirement_respected(self, world):
        # Level-0 vehicles carry no radar.
        vehicles = [
            Vehicle(
                position=Vec2(0, 0),
                equipment=OnboardEquipment.for_level(AutomationLevel.NO_AUTOMATION),
            )
        ]
        service = SensingService(world, vehicles)
        answer = service.query(
            SensingQuery(SensorKind.RADAR, Vec2(0, 0), radius_m=500, min_readings=1)
        )
        assert not answer.answered

    def test_custom_combiner(self, world):
        vehicles = self._fleet()
        service = SensingService(world, vehicles, combine=max)
        answer = service.query(
            SensingQuery(SensorKind.SPEEDOMETER, Vec2(100, 0), radius_m=500)
        )
        assert answer.answered
        assert answer.value >= 19.0

    def test_invalid_query(self, world):
        from repro.errors import ResourceError

        with pytest.raises(ResourceError):
            SensingQuery(SensorKind.GPS, Vec2(0, 0), radius_m=0)


# ---------------------------------------------------------------------------
# Event reporting over the network
# ---------------------------------------------------------------------------


class TestNetworkedEventReporting:
    def _world(self):
        return World(
            ScenarioConfig(
                seed=77,
                channel=ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0),
            )
        )

    def test_reports_travel_and_get_validated(self):
        world = self._world()
        channel = WirelessChannel(world)
        collector_node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        witnesses = [
            VehicleNode(world, channel, Vehicle(position=Vec2(50.0 + i, 0)))
            for i in range(4)
        ]
        pipeline = TrustPipeline(
            classifier=MessageClassifier(), validator=MajorityVoting()
        )
        collector = EventReportCollector(world, collector_node, pipeline)
        collector.start()
        for node in witnesses:
            WitnessReporter(world, node).report(
                EventKind.ICY_ROAD, Vec2(60, 0), claim=True
            )
        world.run_for(10.0)
        assert collector.reports_received == 4
        assert len(collector.decisions) == 1
        assert collector.decisions[0].decision.believe

    def test_out_of_range_reports_never_arrive(self):
        world = self._world()
        channel = WirelessChannel(world)
        collector_node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        far_witness = VehicleNode(world, channel, Vehicle(position=Vec2(50_000, 0)))
        pipeline = TrustPipeline(
            classifier=MessageClassifier(), validator=MajorityVoting()
        )
        collector = EventReportCollector(world, collector_node, pipeline)
        collector.start()
        WitnessReporter(world, far_witness).report(
            EventKind.COLLISION, Vec2(50_000, 0), claim=True
        )
        world.run_for(10.0)
        assert collector.reports_received == 0
        assert collector.decisions == []

    def test_reporter_can_use_pseudonym(self):
        world = self._world()
        channel = WirelessChannel(world)
        collector_node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        witness = VehicleNode(world, channel, Vehicle(position=Vec2(50, 0)))
        pipeline = TrustPipeline(
            classifier=MessageClassifier(), validator=MajorityVoting()
        )
        collector = EventReportCollector(world, collector_node, pipeline)
        WitnessReporter(world, witness).report(
            EventKind.ICY_ROAD, Vec2(60, 0), claim=True, identity="pn-masked"
        )
        world.run_for(1.0)
        assert collector.pending[0].reporter == "pn-masked"

    def test_flush_on_demand(self):
        world = self._world()
        channel = WirelessChannel(world)
        collector_node = VehicleNode(world, channel, Vehicle(position=Vec2(0, 0)))
        witness = VehicleNode(world, channel, Vehicle(position=Vec2(50, 0)))
        pipeline = TrustPipeline(
            classifier=MessageClassifier(), validator=MajorityVoting()
        )
        collector = EventReportCollector(world, collector_node, pipeline)
        WitnessReporter(world, witness).report(
            EventKind.ICY_ROAD, Vec2(60, 0), claim=True
        )
        world.run_for(1.0)
        decisions = collector.flush()
        assert len(decisions) == 1
        assert collector.pending == []
        assert collector.flush() == []  # idempotent when drained
