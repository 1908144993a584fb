"""Experiment E10 — §V.A "V-cloud management": operating-mode changes.

Measures:
* propagation latency of an emergency-mode order flooded through the
  vehicle population (the authority "should be able to change the
  v-clouds into an emergency mode"), as population grows;
* full-region adoption of the order, with and without the RSU origin
  (in a disaster the order must also spread from a vehicle, V2V only);
* the emergency failover the paper prescribes: when the disaster takes
  the RSU down, the infrastructure-based cloud's workload is re-homed
  into a dynamic v-cloud that "minimises the use of the RSUs".

Expected shape: propagation completes in sub-second time and grows
mildly with population; V2V-only injection still reaches everyone; the
dynamic failover restores task completion after the RSU dies.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core import DynamicVCloud, InfrastructureVCloud, Task, TaskState
from repro.core.modes import ModePropagation
from repro.infra import deploy_rsus_on_highway
from repro.net import WirelessChannel
from repro.security.access import OperatingMode

from helpers import attach_radio_stack, highway_world

POPULATIONS = (20, 40, 60)


def _run_propagation(vehicle_count: int, via_rsu: bool, seed: int):
    world, model, highway = highway_world(
        seed, vehicle_count=vehicle_count, length_m=1500, lossless=True
    )
    channel, nodes, _services = attach_radio_stack(world, model, with_beacons=False)
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=750)
    if via_rsu:
        # The RSU participates in the flood as the injection point.
        propagation = ModePropagation(world, list(nodes) + rsus)
        origin = rsus[0]
    else:
        propagation = ModePropagation(world, nodes)
        origin = nodes[0]
    order_id = propagation.issue_order(origin, OperatingMode.EMERGENCY)
    world.run_for(10.0)
    return {
        "adoption": propagation.adoption_fraction(OperatingMode.EMERGENCY),
        "latency_s": propagation.propagation_latency(order_id, OperatingMode.EMERGENCY),
    }


@pytest.fixture(scope="module")
def propagation_sweep():
    return {
        count: _run_propagation(count, via_rsu=True, seed=1000 + count)
        for count in POPULATIONS
    }


def test_bench_propagation_table(propagation_sweep, record_table, benchmark):
    rows = []
    for count in POPULATIONS:
        row = propagation_sweep[count]
        latency = row["latency_s"]
        rows.append(
            [count, row["adoption"], latency * 1000 if latency is not None else "n/a"]
        )
    table = render_table(
        ["vehicles", "adoption", "propagation latency (ms)"],
        rows,
        title="E10 — emergency-mode order propagation (RSU origin)",
    )
    record_table("E10_modes", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_full_adoption_everywhere(propagation_sweep, benchmark):
    for count, row in propagation_sweep.items():
        assert row["adoption"] == 1.0, count
        assert row["latency_s"] is not None
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_propagation_is_subsecond(propagation_sweep, benchmark):
    for row in propagation_sweep.values():
        assert row["latency_s"] < 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_v2v_only_injection_still_spreads(record_table, benchmark):
    """In a disaster the order must spread without any RSU."""
    result = _run_propagation(30, via_rsu=False, seed=1050)
    table = render_table(
        ["origin", "adoption", "latency (ms)"],
        [["vehicle (pure V2V)", result["adoption"],
          result["latency_s"] * 1000 if result["latency_s"] else "n/a"]],
        title="E10b — V2V-only emergency-mode propagation",
    )
    record_table("E10_modes", table)
    assert result["adoption"] == 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_emergency_failover_to_dynamic_cloud(record_table, benchmark):
    """Disaster playbook: RSU dies, the workload re-homes V2V."""
    world, model, highway = highway_world(1060, vehicle_count=30, length_m=3000)
    channel = WirelessChannel(world)
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500)
    infra_arch = InfrastructureVCloud(world, rsus[0], model)
    infra_arch.start()

    # Phase 1: infrastructure cloud serves tasks.
    phase1 = [infra_arch.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]
    world.run_for(25.0)

    # Disaster: RSU destroyed.
    rsus[0].damage()
    world.run_for(2.0)
    phase2 = [infra_arch.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]
    world.run_for(25.0)

    # Failover: a dynamic v-cloud forms from the same vehicles (emergency
    # mode minimizes RSU use).
    dynamic_arch = DynamicVCloud(world, model, cloud_id="failover-vc")
    dynamic_arch.start()
    phase3 = [dynamic_arch.cloud.submit(Task(work_mi=600, deadline_s=20)) for _ in range(8)]
    world.run_for(30.0)

    def rate(records):
        return sum(1 for r in records if r.state is TaskState.COMPLETED) / len(records)

    rows = [
        ["infra cloud, RSU alive", rate(phase1)],
        ["infra cloud, RSU destroyed", rate(phase2)],
        ["dynamic failover cloud", rate(phase3)],
    ]
    table = render_table(
        ["phase", "completion rate"],
        rows,
        title="E10c — disaster failover: infrastructure-based -> dynamic v-cloud",
    )
    record_table("E10_modes", table)
    assert rate(phase1) >= 0.8
    assert rate(phase2) == 0.0
    assert rate(phase3) >= 0.8
    assert dynamic_arch.cloud.stats.infra_messages == 0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_mode_policies_change_behaviour(benchmark):
    """Emergency-mode policy flags match §V.A's prescriptions."""
    from repro.core.modes import DEFAULT_POLICIES

    emergency = DEFAULT_POLICIES[OperatingMode.EMERGENCY]
    normal = DEFAULT_POLICIES[OperatingMode.NORMAL]
    assert emergency.minimize_rsu_use and not normal.minimize_rsu_use
    assert emergency.beacon_interval_scale < normal.beacon_interval_scale
    assert emergency.emergency_resource_priority
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_bench_propagation_run(benchmark):
    """End-to-end timing of one 30-vehicle propagation run."""
    result = benchmark.pedantic(
        lambda: _run_propagation(30, via_rsu=True, seed=1070), rounds=1, iterations=1
    )
    assert result["adoption"] == 1.0
