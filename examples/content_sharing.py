#!/usr/bin/env python3
"""Content sharing in a stationary v-cloud (the airport-datacenter idea).

Parked vehicles at a long-term lot pool their storage (Arif et al.'s
"datacenter at the airport").  Media files are replicated across
members; owners wrap sensitive files in sticky data-policy packages so
the policy travels with the data and every access is audit-logged; a
resource directory answers "who can store/serve this?" queries; and as
vehicles drive away, the replication manager repairs lost replicas.

Run:  python examples/content_sharing.py
"""

from __future__ import annotations

from repro import ScenarioConfig, World
from repro.analysis import render_table
from repro.core import (
    FileStore,
    ReplicationManager,
    ResourceOffer,
    StationaryVCloud,
    StoredFile,
)
from repro.core.directory import ResourceDirectory, ResourceQuery
from repro.mobility import ParkingLotModel
from repro.security.access import (
    AccessContext,
    AuditLog,
    DataPolicyPackage,
    GroupIs,
    Policy,
    PolicyDecisionPoint,
    RoleIs,
    VehicleRole,
    permit,
)


def main() -> None:
    world = World(ScenarioConfig(seed=31))
    # Per-vehicle departure rate: ~0.5/h means roughly a third of the lot
    # leaves over the simulated hour.
    lot = ParkingLotModel(world, departure_rate_per_hour=0.5, arrivals_enabled=False)
    vehicles = lot.populate(40)
    lot.start()

    cloud = StationaryVCloud(world, lot)
    cloud.start()

    # Storage fabric: every member lends a bounded slice of its disk.
    replication = ReplicationManager(world.rng.fork("replication"), repair=True)
    directory = ResourceDirectory()
    for vehicle in vehicles:
        replication.add_store(FileStore(vehicle.vehicle_id, capacity_bytes=2 * 10**9))
        directory.register(ResourceOffer.from_equipment(vehicle.vehicle_id, vehicle.equipment))
    lot.on_departure(lambda v: replication.remove_store(v.vehicle_id))
    lot.on_departure(lambda v: directory.deregister(v.vehicle_id))

    # Publish a content catalogue with 3-way replication.
    for index in range(25):
        replication.store_file(
            StoredFile(f"movie-{index}", size_bytes=50_000_000, target_replicas=3)
        )

    # A privacy-sensitive file travels as a sticky data-policy package:
    # only fleet-A storage nodes may read it, and every attempt is logged.
    policy = Policy("fleet-a-only").add_rule(
        permit(
            "storage-read",
            ["read"],
            "media/private",
            RoleIs(VehicleRole.STORAGE_NODE) & GroupIs("fleet-a"),
        )
    )
    package = DataPolicyPackage(
        b"dashcam footage" * 1000, policy, owner="pn-owner-77", resource="media/private"
    )
    pdp = PolicyDecisionPoint()
    audit = AuditLog()
    authorized = AccessContext(
        requester="pn-42", role=VehicleRole.STORAGE_NODE, group_id="fleet-a", time=1.0
    )
    snooper = AccessContext(
        requester="pn-99", role=VehicleRole.MEMBER, group_id="fleet-b", time=2.0
    )
    granted = package.access(authorized, "read", pdp, audit)
    denied = package.access(snooper, "read", pdp, audit)

    # One virtual hour of departures; repair keeps the catalogue alive.
    world.run_for(3600.0)

    # Directory query: a member looks for a high-capacity serving node.
    query = ResourceQuery(min_storage_bytes=10**9, min_bandwidth_bps=1e6, limit=3)
    matches = directory.search(query)

    reads_ok = sum(1 for i in range(25) if replication.read(f"movie-{i}") is not None)
    rows = [
        ["vehicles initially parked", 40],
        ["vehicles remaining", len(lot.vehicles)],
        ["catalogue availability", replication.availability()],
        ["successful reads (of 25)", reads_ok],
        ["repair transfers paid", replication.repair_transfers],
        ["directory matches for serving query", len(matches)],
        ["private file: authorized read ok", granted.permitted],
        ["private file: snooper denied", not denied.permitted],
        ["audit records written", len(audit)],
        ["package integrity intact", package.verify_integrity()],
    ]
    print(render_table(["metric", "value"], rows, title="Stationary v-cloud content sharing"))
    assert granted.permitted and not denied.permitted


if __name__ == "__main__":
    main()
