"""The three Fig. 4 architectures, built once for chaos and campaign runs.

:func:`build_stationary`, :func:`build_dynamic` and
:func:`build_infrastructure` each return a :class:`~.runner.Scenario`:
a fresh world, a started cloud, a full radio stack (so network faults
have something to bite on), and the invariant set the architecture is
held to (:func:`architecture_invariants`).  The chaos suite's
:func:`stationary_scenario`, :func:`dynamic_scenario` and
:func:`infrastructure_scenario` add its task stream and storage
workload; the campaign cells (:mod:`repro.campaign.scenarios`) add
theirs.

``hardened=True`` enables every recovery mechanism the framework
offers — lease-based liveness, exponential-backoff retries,
majority-quorum replicated storage with anti-entropy repair and hinted
handoff.  ``hardened=False`` builds the deliberately weakened
configuration the chaos acceptance campaign is meant to break: no
leases, fixed 1 s assignment retries with no backoff or jitter,
best-effort ``W=R=1`` quorum, no hinted handoff.
The weakened cloud violates :class:`~.invariants.StrandedTasks` (a
crashed worker's tasks are never recovered) and
:class:`~.invariants.QuorumSafety` (stale reads / lost updates under
partitions) — with minimized reproducers of one or two faults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core import (
    BackoffPolicy,
    CheckpointHandoverPolicy,
    DynamicVCloud,
    InfrastructureVCloud,
    QuorumConfig,
    ResourceOffer,
    Task,
    VehicularCloud,
)
from ..faults import ConsistencyChecker
from ..geometry import Vec2
from ..infra import deploy_rsus_on_highway
from ..mobility import Highway, HighwayModel, ManhattanGrid, ManhattanModel, StationaryModel
from ..net import BeaconService, VehicleNode, WirelessChannel
from ..sim import ScenarioConfig, World
from .invariants import (
    ChannelConservation,
    Invariant,
    LeaseExclusivity,
    MembershipAgreement,
    QuorumSafety,
    SingleHead,
    StrandedTasks,
    TaskConservation,
)
from .runner import Scenario

__all__ = [
    "architecture_invariants",
    "attach_nodes",
    "build_dynamic",
    "build_infrastructure",
    "build_stationary",
    "finish_storage",
    "harden_cloud",
    "storage_workload",
    "task_stream",
    "weaken_cloud",
    "stationary_scenario",
    "dynamic_scenario",
    "infrastructure_scenario",
    "CHAOS_BACKOFF",
]

CHAOS_BACKOFF = BackoffPolicy(
    base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
)

_FILE_IDS = ("chaos-file-a", "chaos-file-b", "chaos-file-c")


def harden_cloud(cloud: VehicularCloud) -> None:
    """Enable the full recovery stack."""
    cloud.retry_backoff = CHAOS_BACKOFF
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(
        quorum=QuorumConfig.majority(3),
        anti_entropy_period_s=5.0,
        anti_entropy_backoff=CHAOS_BACKOFF,
        hinted_handoff=True,
    )


def weaken_cloud(cloud: VehicularCloud) -> None:
    """Strip recovery: no leases, no retry backoff, best-effort quorum.

    Assignment retries stay on: the fixed policy a cloud gets by default
    retries every ``RETRY_INTERVAL_S`` (1 s), without backoff or jitter,
    up to the cloud's ``max_assignment_retries``.
    """
    cloud.retry_backoff = BackoffPolicy.fixed(
        cloud.RETRY_INTERVAL_S, cloud.max_assignment_retries
    )
    cloud.enable_replicated_storage(
        quorum=QuorumConfig(write_quorum=1, read_quorum=1),
        anti_entropy_period_s=None,
        hinted_handoff=False,
    )


def storage_workload(
    world: World, cloud: VehicularCloud, period_s: float = 2.0
) -> None:
    """Seed shared files, then read/write them periodically.

    Storage faults surface as degraded operations (None results), never
    exceptions, so the workload runs to the end of every chaos run.
    """
    rng = world.rng.fork("chaos-workload")
    storage = cloud.storage
    assert storage is not None

    def seed_files() -> None:
        for file_id in _FILE_IDS:
            if cloud.membership.member_ids() and not storage.holders_of(file_id):
                cloud.store_put(file_id, size_bytes=1_000_000, target_replicas=3)

    def churn() -> None:
        members = sorted(cloud.membership.member_ids())
        if not members:
            return
        file_id = rng.choice(_FILE_IDS)
        if not storage.holders_of(file_id):
            return
        if rng.chance(0.5):
            cloud.store_write(file_id, writer=rng.choice(members))
        else:
            cloud.store_read(file_id)

    world.engine.schedule(0.5, seed_files, label="chaos-seed-files")
    world.engine.call_every(period_s, churn, label="chaos-storage-workload")


def task_stream(
    world: World, cloud: VehicularCloud, count: int = 10, work_mi: float = 2500.0
) -> List:
    """Submit ``count`` long tasks early so faults interrupt them."""
    records: List = []
    for index in range(count):
        world.engine.schedule_at(
            1.0 + index * 2.0,
            lambda: records.append(cloud.submit(Task(work_mi=work_mi))),
            label="chaos-task",
        )
    return records


def architecture_invariants(
    cloud: VehicularCloud,
    world: World,
    checker: ConsistencyChecker,
    external_heads: Sequence[str] = (),
    convergence_s: float = 0.0,
) -> List[Invariant]:
    """The safety invariants every Fig. 4 architecture is held to.

    A mobile cloud re-elects its captain and churns members as vehicles
    move, so its membership-derived tables may lag one refresh
    interval: its builders pass a ``convergence_s`` window.
    """
    return [
        TaskConservation(cloud),
        LeaseExclusivity(cloud),
        SingleHead(cloud, external_heads=tuple(external_heads)),
        MembershipAgreement(cloud, convergence_s=convergence_s),
        QuorumSafety(checker),
        ChannelConservation(world),
        StrandedTasks(cloud, grace_s=12.0),
    ]


def attach_nodes(world: World, channel: WirelessChannel, vehicles):
    """A radio node with beacons per vehicle; returns the node lookup."""
    nodes: Dict[str, VehicleNode] = {}
    for vehicle in vehicles:
        node = VehicleNode(world, channel, vehicle)
        BeaconService(world, node).start()
        nodes[vehicle.vehicle_id] = node

    def lookup(node_id: str) -> Optional[object]:
        return nodes.get(node_id)

    return lookup


def finish_storage(cloud: VehicularCloud, hardened: bool) -> ConsistencyChecker:
    if hardened:
        harden_cloud(cloud)
    else:
        weaken_cloud(cloud)
    checker = ConsistencyChecker(metrics=cloud.world.metrics)
    assert cloud.storage is not None
    checker.attach(cloud.storage)
    return checker


def build_stationary(
    seed: int, members: int, hardened: bool, cloud_name: str
) -> Scenario:
    """A parked-fleet cloud on a controlled stationary grid.

    ``cloud_name`` keys the cloud's retry and storage RNG forks.
    """
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    channel = WirelessChannel(world)
    lookup = attach_nodes(world, channel, vehicles)
    cloud = VehicularCloud(
        world, cloud_name, handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    checker = finish_storage(cloud, hardened)
    return Scenario(
        world=world,
        invariants=architecture_invariants(cloud, world, checker),
        cloud=cloud,
        channel=channel,
        node_lookup=lookup,
        label="stationary",
    )


def build_dynamic(
    seed: int, members: int, hardened: bool, mobility: str = "highway"
) -> Scenario:
    """A self-organized cloud with an elected captain, on a highway or a grid."""
    world = World(ScenarioConfig(seed=seed, vehicle_count=members))
    if mobility == "grid":
        grid = ManhattanGrid(blocks_x=4, blocks_y=4, block_size_m=400.0)
        model: Any = ManhattanModel(world, grid)
    else:
        model = HighwayModel(world, Highway(length_m=3000.0))
    model.populate(members)
    model.start()
    channel = WirelessChannel(world)
    lookup = attach_nodes(world, channel, model.vehicles)
    arch = DynamicVCloud(world, model)
    arch.start()
    cloud = arch.cloud
    checker = finish_storage(cloud, hardened)
    return Scenario(
        world=world,
        invariants=architecture_invariants(cloud, world, checker, convergence_s=2.0),
        cloud=cloud,
        channel=channel,
        node_lookup=lookup,
        label="dynamic",
    )


def build_infrastructure(seed: int, members: int, hardened: bool) -> Scenario:
    """An RSU-anchored highway cloud (the RSU is the external head)."""
    world = World(ScenarioConfig(seed=seed, vehicle_count=members))
    highway = Highway(length_m=3000.0)
    model = HighwayModel(world, highway)
    model.populate(members)
    model.start()
    channel = WirelessChannel(world)
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500.0)
    lookup = attach_nodes(world, channel, model.vehicles)
    arch = InfrastructureVCloud(world, rsus[0], model)
    arch.start()
    cloud = arch.cloud
    checker = finish_storage(cloud, hardened)
    return Scenario(
        world=world,
        invariants=architecture_invariants(
            cloud, world, checker,
            external_heads=(rsus[0].node_id,),
            convergence_s=2.0,
        ),
        cloud=cloud,
        channel=channel,
        infrastructure=rsus,
        node_lookup=lookup,
        label="infrastructure",
    )


def _with_chaos_workload(scenario: Scenario) -> Scenario:
    task_stream(scenario.world, scenario.cloud)
    storage_workload(scenario.world, scenario.cloud)
    return scenario


def stationary_scenario(seed: int, hardened: bool = True, members: int = 8) -> Scenario:
    """A parked-fleet cloud under the chaos task and storage workload."""
    return _with_chaos_workload(
        build_stationary(seed, members, hardened, cloud_name="chaos-stationary-vc")
    )


def dynamic_scenario(seed: int, hardened: bool = True, vehicles: int = 12) -> Scenario:
    """A self-organized highway cloud under the chaos workload."""
    return _with_chaos_workload(build_dynamic(seed, vehicles, hardened))


def infrastructure_scenario(
    seed: int, hardened: bool = True, vehicles: int = 14
) -> Scenario:
    """An RSU-anchored highway cloud under the chaos workload."""
    return _with_chaos_workload(build_infrastructure(seed, vehicles, hardened))
