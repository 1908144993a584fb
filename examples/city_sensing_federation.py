#!/usr/bin/env python3
"""City-scale sensing with federated v-clouds and forensic audit.

An urban grid hosts two dynamic v-clouds that merge and split as traffic
flows (§V.A group management).  The federated clouds answer
data-as-a-service sensing queries ("mean speed near the central
intersection?", Azizian-style DaaS), lenders access shared data through
single-use anonymous tickets (§V.C), and at the end the authority runs a
privacy-priced forensic investigation against a misbehaving capability.

Run:  python examples/city_sensing_federation.py
"""

from __future__ import annotations

from repro import ScenarioConfig, World
from repro.analysis import render_table
from repro.core import VehicularCloud
from repro.core.federation import CloudFederation
from repro.core.sensing import SensingQuery, SensingService
from repro.core.snapshot import TopologyRecorder
from repro.geometry import Vec2
from repro.mobility import ManhattanGrid, ManhattanModel, SensorKind
from repro.security.access import AnonymousAccessIssuer, AnonymousAccessVerifier


def main() -> None:
    world = World(ScenarioConfig(seed=61))
    grid = ManhattanGrid(blocks_x=4, blocks_y=4, block_size_m=300)
    model = ManhattanModel(world, grid)
    vehicles = model.populate(30)
    model.start()
    lookup = {vehicle.vehicle_id: vehicle for vehicle in vehicles}

    # Two seed clouds in opposite corners of the city.
    west = VehicularCloud(world, "west-vc")
    east = VehicularCloud(world, "east-vc")
    for vehicle in vehicles[:15]:
        west.admit(vehicle)
    for vehicle in vehicles[15:]:
        east.admit(vehicle)

    federation = CloudFederation(
        world, lookup.get, merge_range_m=250.0, max_diameter_m=900.0,
        check_interval_s=5.0,
    )
    federation.register(west)
    federation.register(east)
    federation.start()

    # Management record for later audits.
    recorder = TopologyRecorder(
        world, lambda vehicle: vehicle.vehicle_id, vehicles, interval_s=10.0
    )
    recorder.start()

    # Let the city move; clouds merge/split as vehicles flow.
    world.run_for(120.0)

    # Data-as-a-service: speed field around the central intersection.
    sensing = SensingService(world, vehicles)
    center = Vec2(grid.width_m / 2, grid.height_m / 2)
    speed_answer = sensing.query(
        SensingQuery(SensorKind.SPEEDOMETER, center, radius_m=700.0, min_readings=3)
    )
    density_answer = sensing.query(
        SensingQuery(SensorKind.RADAR, center, radius_m=700.0, min_readings=2)
    )

    # Anonymous per-access data lending (§V.C): single-use tickets.
    issuer = AnonymousAccessIssuer(owner_secret=b"fleet-owner-secret")
    verifier = AnonymousAccessVerifier(issuer)
    capability = issuer.grant(
        "lender-vehicle-9", "sensing/speed-field", ("read",), ticket_count=4
    )
    reads_ok = sum(
        1
        for ticket in capability.tickets
        if verifier.verify(ticket, capability.capability_id, "read").value
    )
    replay_blocked = not verifier.verify(
        capability.tickets[0], capability.capability_id, "read"
    ).value
    # The misused capability is attributed by the owner, not the verifier.
    attributed = issuer.attribute(capability.capability_id)

    rows = [
        ["clouds after 2 min of mobility", federation.cloud_count()],
        ["merges / splits", f"{federation.merges} / {federation.splits}"],
        ["members under federation", federation.total_members()],
        ["mean speed near centre (m/s)", speed_answer.value],
        ["speed readings used", speed_answer.readings_used],
        ["radar density answer (contacts)", density_answer.value],
        ["sensing latency (ms)", speed_answer.latency_s * 1000],
        ["anonymous reads honoured", reads_ok],
        ["replayed ticket blocked", replay_blocked],
        ["misuse attributed by owner to", attributed],
        ["topology records held (privacy cost)", recorder.storage_records],
    ]
    print(render_table(["metric", "value"], rows, title="City sensing over federated v-clouds"))
    assert speed_answer.answered
    assert reads_ok == 4 and replay_blocked


if __name__ == "__main__":
    main()
