"""Full-stack integration: every layer in one scenario.

One simulated highway scene exercising mobility, radio, beacons, secure
bootstrap into a dynamic v-cloud, task offloading under churn, networked
event reporting with a collusion attack, a tracking adversary, and a
forensic investigation that de-anonymizes the attackers — the complete
pipeline the paper's Fig. 3 sketches.
"""

from __future__ import annotations

import pytest

from repro.core import DynamicVCloud, Task, TaskState
from repro.core.bootstrap import SecureBootstrap
from repro.core.snapshot import ForensicService, TopologyRecorder
from repro.geometry import Vec2
from repro.mobility import Highway, HighwayModel
from repro.net import BeaconService, VehicleNode, WirelessChannel
from repro.security import TrustedAuthority
from repro.security.access import AuditLog, AuditRecord
from repro.security.protocols import PseudonymAuthProtocol
from repro.sim import ChannelConfig, ScenarioConfig, World
from repro.trust import (
    EventKind,
    EventReportCollector,
    MessageClassifier,
    ReputationStore,
    TrustPipeline,
    WeightedVoting,
    WitnessReporter,
)


@pytest.fixture(scope="module")
def scenario():
    """Build and run the full scene once; tests assert on the outcome."""
    world = World(
        ScenarioConfig(
            seed=2026,
            vehicle_count=24,
            channel=ChannelConfig(base_loss_probability=0.01, loss_per_100m=0.005),
        )
    )
    highway = Highway(length_m=2500)
    model = HighwayModel(world, highway)
    vehicles = model.populate(24)
    model.start()

    channel = WirelessChannel(world)
    nodes = {v.vehicle_id: VehicleNode(world, channel, v) for v in vehicles}

    # Security plane.
    authority = TrustedAuthority()
    protocol = PseudonymAuthProtocol(authority, pool_size=30, change_interval_s=30.0)

    # Cloud formation with secure bootstrap.
    arch = DynamicVCloud(world, model)
    protocol.enroll(vehicles[0].vehicle_id)
    arch.cloud.admit(vehicles[0])
    arch.cloud.head_id = vehicles[0].vehicle_id
    bootstrap = SecureBootstrap(world, arch.cloud, protocol)
    boot_results = [bootstrap.initialize(v) for v in vehicles[1:12]]

    # Beacons with rotating pseudonyms.
    services = []
    for vehicle in vehicles:
        if not protocol.is_enrolled(vehicle.vehicle_id):
            protocol.enroll(vehicle.vehicle_id)
        provider = protocol.identity_provider(vehicle.vehicle_id)
        service = BeaconService(world, nodes[vehicle.vehicle_id], identity_provider=provider)
        service.start()
        services.append(service)

    # Management plane: topology recording for later forensics.
    recorder = TopologyRecorder(
        world,
        lambda v: protocol.on_air_identity(v.vehicle_id, world.now),
        vehicles,
        interval_s=5.0,
    )
    recorder.start()

    # Trust plane at the captain.
    pipeline = TrustPipeline(
        classifier=MessageClassifier(),
        validator=WeightedVoting(),
        reputation=ReputationStore(),
        per_message_auth_cost_s=protocol.message_auth_cost().verify_cost_s,
    )
    collector_node = nodes[vehicles[0].vehicle_id]
    collector = EventReportCollector(world, collector_node, pipeline)
    collector.start()

    # Workload.
    task_records = []
    for index in range(10):
        world.engine.schedule_at(
            index * 3.0,
            lambda: task_records.append(
                arch.cloud.submit(Task(work_mi=1200, deadline_s=40))
            ),
            label="task",
        )
    arch.start()
    world.run_for(20.0)

    # Attack: three colluders at the scene fabricate an icy-road event;
    # five honest witnesses, also at the scene, deny it.  Witnesses are
    # by definition where the event is, so place them near the captain
    # (who collects reports) before they transmit.
    captain_pos = vehicles[0].position
    evil_ids = []
    for index in range(3):
        evil_vehicle = vehicles[12 + index]
        evil_vehicle.position = captain_pos + Vec2(20.0 * (index + 1), 3.0)
        evil_pn = protocol.on_air_identity(evil_vehicle.vehicle_id, world.now)
        evil_ids.append((evil_vehicle.vehicle_id, evil_pn))
        WitnessReporter(world, nodes[evil_vehicle.vehicle_id]).report(
            EventKind.ICY_ROAD, captain_pos, claim=True, identity=evil_pn
        )
    for index in range(5):
        honest_vehicle = vehicles[15 + index]
        honest_vehicle.position = captain_pos + Vec2(-20.0 * (index + 1), 3.0)
        honest_pn = protocol.on_air_identity(honest_vehicle.vehicle_id, world.now)
        WitnessReporter(world, nodes[honest_vehicle.vehicle_id]).report(
            EventKind.ICY_ROAD, captain_pos, claim=False, identity=honest_pn
        )
    attack_time = world.now
    # The topology record must capture the scene as staged.
    recorder.sample()

    # Audit trail of the attackers probing protected data.
    audit = AuditLog()
    for _vehicle_id, evil_pn in evil_ids:
        for probe in range(3):
            audit.append(
                AuditRecord(
                    time=world.now,
                    package_id="pkg-roadmap",
                    requester=evil_pn,
                    action="read",
                    resource="secret",
                    permitted=False,
                )
            )

    world.run_for(40.0)

    forensics = ForensicService(authority, recorder)
    report = forensics.investigate(
        audit,
        captain_pos,
        area_radius_m=1500.0,
        window=(attack_time - 6.0, attack_time + 6.0),
        min_denials=3,
    )

    return {
        "world": world,
        "arch": arch,
        "boot_results": boot_results,
        "bootstrap": bootstrap,
        "task_records": task_records,
        "collector": collector,
        "evil_ids": evil_ids,
        "forensic_report": report,
        "recorder": recorder,
    }


def test_bootstrap_admits_fleet(scenario):
    results = scenario["boot_results"]
    assert all(result.admitted for result in results)
    assert scenario["bootstrap"].stats.admission_rate == 1.0


def test_cloud_serves_workload_under_real_mobility(scenario):
    records = scenario["task_records"]
    completed = [r for r in records if r.state is TaskState.COMPLETED]
    assert len(completed) >= 8
    assert scenario["arch"].cloud.stats.infra_messages == 0


def test_fabricated_event_rejected_over_the_air(scenario):
    collector = scenario["collector"]
    assert collector.reports_received >= 5
    icy_decisions = [
        d
        for d in collector.decisions
        if d.cluster.kind is EventKind.ICY_ROAD and d.cluster.size >= 4
    ]
    assert icy_decisions, "the attacked event must have been classified"
    assert not icy_decisions[0].decision.believe

    # Stringent time constraint: the whole evaluation stays sub-second.
    assert icy_decisions[0].total_latency_s < 1.0


def test_forensics_names_attackers_from_pseudonyms(scenario):
    report = scenario["forensic_report"]
    evil_real_ids = {vehicle_id for vehicle_id, _pn in scenario["evil_ids"]}
    assert set(report.suspects) == evil_real_ids
    # Accountability had a privacy price: innocents were de-anonymized.
    assert report.innocents_exposed > 0


def test_topology_recorder_captured_the_scene(scenario):
    recorder = scenario["recorder"]
    assert len(recorder.snapshots) >= 5
    assert recorder.storage_records > 0
