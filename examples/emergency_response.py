#!/usr/bin/env python3
"""Emergency response: disaster knocks out the RSUs, the v-cloud adapts.

The scenario the paper's introduction motivates: an emergency at the
scene, infrastructure damaged, conventional offload impossible.

Timeline
  t=0     traffic flows; an RSU-anchored v-cloud serves offloaded tasks
  t=30    earthquake: the disaster model destroys every RSU
  t=32    the authority floods an EMERGENCY mode order — pure V2V,
          because no infrastructure survives to relay it
  t=35    a dynamic v-cloud self-organizes from the same vehicles and
          takes over the workload; emergency permission escalation
          grants responders access to brake telemetry in milliseconds

Run:  python examples/emergency_response.py
"""

from __future__ import annotations

from repro import ScenarioConfig, World
from repro.analysis import render_table
from repro.core import (
    DynamicVCloud,
    InfrastructureVCloud,
    Task,
    TaskState,
)
from repro.core.modes import ModePropagation
from repro.infra import DisasterModel, deploy_rsus_on_highway
from repro.mobility import Highway, HighwayModel
from repro.net import VehicleNode, WirelessChannel
from repro.security.access import (
    AccessContext,
    AuditLog,
    EmergencyEscalator,
    EmergencyRule,
    OperatingMode,
)


def completion_rate(records) -> float:
    if not records:
        return 0.0
    return sum(1 for r in records if r.state is TaskState.COMPLETED) / len(records)


def main() -> None:
    world = World(ScenarioConfig(seed=13, vehicle_count=30))
    highway = Highway(length_m=3000)
    model = HighwayModel(world, highway)
    model.populate(30)
    model.start()

    channel = WirelessChannel(world)
    nodes = [VehicleNode(world, channel, vehicle) for vehicle in model.vehicles]
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500)
    disaster = DisasterModel(world, rsus)

    # Phase 1: the infrastructure-based v-cloud at work.
    infra_cloud = InfrastructureVCloud(world, rsus[0], model)
    infra_cloud.start()
    phase1 = [infra_cloud.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]
    world.run_for(30.0)

    # Phase 2: the earthquake.
    disaster.strike(fraction=1.0)
    phase2 = [infra_cloud.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]

    # The emergency-mode order spreads V2V (no RSU survives).
    propagation = ModePropagation(world, nodes)
    order_id = propagation.issue_order(nodes[0], OperatingMode.EMERGENCY)
    world.run_for(30.0)

    # Phase 3: dynamic failover cloud, zero infrastructure.
    failover = DynamicVCloud(world, model, cloud_id="failover-vc")
    failover.start()
    phase3 = [failover.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]
    world.run_for(30.0)

    # Millisecond-class emergency permission escalation for a responder.
    escalator = EmergencyEscalator([EmergencyRule("sensor/brake_telemetry", "read")])
    audit = AuditLog()
    responder = AccessContext(
        requester="pn-responder", mode=OperatingMode.EMERGENCY, time=world.now
    )
    grant = escalator.request(responder, "sensor/brake_telemetry", "read", audit)

    rows = [
        ["phase 1: infra cloud completion", completion_rate(phase1)],
        ["RSUs surviving the strike", disaster.live_fraction],
        ["phase 2: infra cloud completion", completion_rate(phase2)],
        ["emergency-mode adoption (V2V flood)",
         propagation.adoption_fraction(OperatingMode.EMERGENCY)],
        ["mode propagation latency (ms)",
         (propagation.propagation_latency(order_id, OperatingMode.EMERGENCY) or 0) * 1000],
        ["phase 3: dynamic failover completion", completion_rate(phase3)],
        ["failover infra messages", failover.cloud.stats.infra_messages],
        ["emergency grant issued", grant is not None],
        ["emergency grant latency (ms)", grant.latency_s * 1000 if grant else "n/a"],
        ["escalation audit records", len(audit)],
    ]
    print(render_table(["metric", "value"], rows, title="Emergency response timeline"))
    assert completion_rate(phase2) == 0.0, "infra cloud must collapse with its RSUs"
    assert completion_rate(phase3) > 0.5, "dynamic failover must restore service"


if __name__ == "__main__":
    main()
