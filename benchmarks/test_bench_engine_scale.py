"""Simulator throughput benchmarks (host time).

Mostly not paper experiments — these pin the framework's own performance
so regressions are visible: raw event throughput, a beaconing city
block, and a full dynamic-cloud scenario step.  All via
pytest-benchmark's real timing (the one place wall-clock, not virtual
time, is the measurement).

The exception is **E13** at the bottom: the spatial-index experiment.
It runs the same seeded beaconing + clustering scene twice — once
through the :class:`~repro.sim.SpatialGrid` index and once through the
legacy brute-force scan (``use_spatial_index=False``) — asserts the
seeded metrics are byte-identical, and records the wall-clock curve at
n ∈ {100, 300, 1000} vehicles.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import render_table, topology_stats
from repro.core import DynamicVCloud, Task
from repro.ids import reset_global_ids
from repro.mobility import Highway, HighwayModel
from repro.net import BeaconService, VehicleNode, WirelessChannel
from repro.net.clustering import MobilityClustering
from repro.sim import Engine, ScenarioConfig, World

from helpers import highway_world


def test_bench_engine_event_throughput(benchmark):
    """Empty-callback events through the queue."""

    def run():
        engine = Engine()
        for index in range(5_000):
            engine.schedule(index * 0.001, lambda: None)
        engine.run_until(10.0)
        return engine.events_executed

    executed = benchmark.pedantic(run, rounds=10, iterations=1)
    assert executed == 5_000


def test_bench_beaconing_city_block(benchmark):
    """60 vehicles beaconing for 10 simulated seconds."""

    def run():
        world = World(ScenarioConfig(seed=3000, vehicle_count=60))
        model = HighwayModel(world, Highway(length_m=1500))
        model.populate(60)
        model.start()
        channel = WirelessChannel(world)
        nodes = [VehicleNode(world, channel, vehicle) for vehicle in model.vehicles]
        for node in nodes:
            BeaconService(world, node).start()
        world.run_for(10.0)
        return world.engine.events_executed

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 1_000


def test_bench_dynamic_cloud_scenario(benchmark):
    """A full dynamic-cloud minute: mobility + elections + 10 tasks."""

    def run():
        world = World(ScenarioConfig(seed=3001, vehicle_count=30))
        model = HighwayModel(world, Highway(length_m=3000))
        model.populate(30)
        model.start()
        arch = DynamicVCloud(world, model)
        arch.start()
        for index in range(10):
            world.engine.schedule_at(
                index * 2.0,
                lambda: arch.cloud.submit(Task(work_mi=1000, deadline_s=30)),
                label="task",
            )
        world.run_for(60.0)
        return arch.cloud.stats.completed

    completed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert completed >= 8


# --------------------------------------------------------------------
# E13 — spatial index: seeded equivalence and wall-clock scaling
# --------------------------------------------------------------------

E13_SEED = 77
E13_SIM_SECONDS = 2.0
E13_FLEETS = (100, 300, 1000)


def _e13_run(vehicle_count: int, use_index: bool):
    """One seeded beaconing + clustering scene; returns (fingerprint, seconds)."""
    # Vehicle ids seed the per-node beacon RNG forks
    # (``world.rng.fork(f"beacon/{node_id}")``), so two runs can only be
    # compared when both start from the same ids.
    reset_global_ids()
    world, model, _highway = highway_world(E13_SEED, vehicle_count)
    channel = WirelessChannel(world, use_spatial_index=use_index)
    nodes = [VehicleNode(world, channel, vehicle) for vehicle in model.vehicles]
    for node in nodes:
        BeaconService(world, node).start()
    algorithm = MobilityClustering()
    range_m = world.config.channel.v2v_range_m
    memberships = []

    def cluster_pass() -> None:
        result = algorithm.form(model.vehicles, range_m, now=world.now)
        memberships.append(tuple(tuple(c.member_ids) for c in result.clusters))

    world.engine.call_every(1.0, cluster_pass, label="clustering")
    started = time.perf_counter()
    world.run_for(E13_SIM_SECONDS)
    elapsed = time.perf_counter() - started
    fingerprint = {
        "delivered": world.metrics.counter("channel/frames_delivered"),
        "lost": world.metrics.counter("channel/frames_lost"),
        "latency": tuple(world.metrics.samples("channel/delivery_latency_s")),
        "clusters": tuple(memberships),
        "topology": topology_stats(model.vehicles, range_m),
    }
    return fingerprint, elapsed


@pytest.fixture(scope="module")
def e13_sweep():
    sweep = {}
    for vehicle_count in E13_FLEETS:
        indexed, indexed_s = _e13_run(vehicle_count, use_index=True)
        brute, brute_s = _e13_run(vehicle_count, use_index=False)
        sweep[vehicle_count] = {
            "indexed": indexed,
            "brute": brute,
            "indexed_s": indexed_s,
            "brute_s": brute_s,
        }
    return sweep


def test_bench_e13_seeded_metrics_identical(
    e13_sweep, record_table, record_run_json, benchmark
):
    """Indexed and brute-force runs must be byte-identical, not merely close."""
    rows = []
    for vehicle_count in E13_FLEETS:
        indexed = e13_sweep[vehicle_count]["indexed"]
        brute = e13_sweep[vehicle_count]["brute"]
        assert indexed["delivered"] == brute["delivered"]
        assert indexed["lost"] == brute["lost"]
        assert indexed["latency"] == brute["latency"]
        assert indexed["clusters"] == brute["clusters"]
        assert indexed["topology"] == brute["topology"]
        latency = indexed["latency"]
        record_run_json(
            "E13_spatial_index",
            f"fleet/{vehicle_count}",
            {
                "delivered": indexed["delivered"],
                "lost": indexed["lost"],
                "latency_samples": len(latency),
                "mean_latency_s": sum(latency) / len(latency) if latency else 0.0,
                "clusters_formed": sum(len(s) for s in indexed["clusters"]),
                "radio_edges": indexed["topology"].edges,
            },
            seed=E13_SEED,
            config={"vehicles": vehicle_count},
        )
        rows.append(
            [
                vehicle_count,
                int(indexed["delivered"]),
                int(indexed["lost"]),
                len(latency),
                sum(latency) / len(latency) if latency else 0.0,
                sum(len(snapshot) for snapshot in indexed["clusters"]),
                indexed["topology"].edges,
                "identical",
            ]
        )
    table = render_table(
        [
            "vehicles",
            "delivered",
            "lost",
            "latency samples",
            "mean latency (s)",
            "clusters formed",
            "radio edges",
            "indexed vs brute",
        ],
        rows,
        title="E13a — seeded metrics, spatial index vs brute force",
    )
    record_table("E13_spatial_index", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


#: The fleets CI replays: the 1000-vehicle brute-force scan takes minutes.
E13_SMALL_FLEETS = (100, 300)


def test_bench_e13_small_fleets_identical(benchmark):
    """E13a's identity check at 100 and 300 vehicles, writing no result file."""
    for vehicle_count in E13_SMALL_FLEETS:
        indexed, _ = _e13_run(vehicle_count, use_index=True)
        brute, _ = _e13_run(vehicle_count, use_index=False)
        for field in ("delivered", "lost", "latency", "clusters", "topology"):
            assert indexed[field] == brute[field], (vehicle_count, field)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_bench_e13_wall_clock_curve(e13_sweep, record_table, benchmark):
    """The index must buy >= 5x at 1000 vehicles (acceptance criterion)."""
    rows = []
    for vehicle_count in E13_FLEETS:
        run = e13_sweep[vehicle_count]
        speedup = run["brute_s"] / run["indexed_s"]
        rows.append([vehicle_count, run["brute_s"], run["indexed_s"], speedup])
    table = render_table(
        ["vehicles", "brute force (s)", "spatial index (s)", "speedup"],
        rows,
        title=(
            f"E13b — wall clock, {E13_SIM_SECONDS:.0f} sim-s of beaconing"
            " + clustering (1 Hz)"
        ),
    )
    record_table("E13_spatial_index", table)
    final = e13_sweep[E13_FLEETS[-1]]
    assert final["brute_s"] / final["indexed_s"] >= 5.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
