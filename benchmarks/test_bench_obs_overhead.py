"""E14 — observability overhead (wall clock) and determinism.

The same seeded scene — 300 vehicles beaconing on a highway while a
v-cloud executes a task stream under a crash + loss-burst fault plan —
runs in four observability modes:

* ``off``            — no tracer, no events, no profiler (the baseline);
* ``tagged``         — the default: tracing + events, frame spans only
  for messages carrying a trace context (beacon storms stay span-free);
* ``tagged+profile`` — as above plus wall-clock profiling of every
  engine callback;
* ``all``            — exhaustive: every frame gets a lifecycle span.

Two claims are asserted:

1. the seeded metrics snapshot is byte-identical in every mode — the
   determinism contract (span ids come from counters, fault-window
   expiry is lazy, wall-clock never feeds back);
2. ``tagged`` tracing costs < 5 % wall clock at 300 vehicles
   (best-of-``E14_ROUNDS`` per mode, the modes timed in alternation
   after a warm-up run), which is what makes leave-it-on-by-default
   tenable.
"""

from __future__ import annotations

import gc
import itertools
import math
import time

import pytest

from repro.analysis import render_table
from repro.core import ResourceOffer, VehicularCloud
from repro.faults import FaultInjector, FaultPlan
from repro.mobility import vehicle as vehicle_module
from repro.net import BeaconService, VehicleNode, WirelessChannel

from helpers import highway_world, poisson_task_stream

E14_SEED = 1414
E14_SIM_SECONDS = 3.0
E14_VEHICLES = 300
E14_ROUNDS = 3
E14_MODES = ("off", "tagged", "tagged+profile", "all")
E14_OVERHEAD_LIMIT = 0.05


def _reset_vehicle_ids() -> None:
    vehicle_module._vehicle_counter = itertools.count(1)


def _e14_run(mode: str):
    """One seeded scene in one observability mode.

    Returns ``(snapshot, elapsed_s, stats)`` where ``snapshot`` is the
    full metrics snapshot (the determinism fingerprint) and ``stats``
    carries span/event counts for the sampling table.
    """
    _reset_vehicle_ids()
    world, model, _highway = highway_world(E14_SEED, E14_VEHICLES)
    obs = None
    if mode != "off":
        obs = world.enable_observability(
            profile=(mode == "tagged+profile"),
            channel_frames="all" if mode == "all" else "tagged",
        )
    channel = WirelessChannel(world)
    nodes = [VehicleNode(world, channel, vehicle) for vehicle in model.vehicles]
    for node in nodes:
        BeaconService(world, node).start()
    cloud = VehicularCloud(world, "e14-vc")
    for vehicle in model.vehicles[:20]:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 500.0, 10**9, 1e6))
    poisson_task_stream(
        world, cloud, rate_per_s=0.5, duration_s=E14_SIM_SECONDS, work_mi=200.0
    )
    plan = FaultPlan(seed=E14_SEED).crash(1.0).loss_burst(
        at=1.5, duration_s=1.0, drop_probability=0.3
    )
    FaultInjector(world, plan, cloud=cloud, channel=channel).arm()
    started = time.perf_counter()
    world.run_for(E14_SIM_SECONDS)
    elapsed = time.perf_counter() - started
    stats = {
        "spans": len(obs.tracer) if obs is not None and obs.tracer else 0,
        "events": len(obs.events) if obs is not None and obs.events else 0,
        "profiled": (
            obs.profiler.total_events if obs is not None and obs.profiler else 0
        ),
        "frames": int(world.metrics.counter("channel/frames_sent")),
    }
    return world.metrics.snapshot(), elapsed, stats


@pytest.fixture(scope="module")
def e14_sweep():
    """Every mode's best time of ``E14_ROUNDS``, with its last snapshot.

    One untimed warm-up run comes first.  Then each round runs every
    mode once, and the first mode rotates from round to round, so no
    mode is always timed cold or always at the same point of the sweep.
    Each run starts after a full garbage collection: in the rotation a
    mode always follows the same one, and ``off`` would otherwise pay
    for collecting the spans of the ``all`` run before it.
    """
    _e14_run("all")
    sweep = {mode: {"best_s": math.inf} for mode in E14_MODES}
    for round_index in range(E14_ROUNDS):
        first = round_index % len(E14_MODES)
        for mode in E14_MODES[first:] + E14_MODES[:first]:
            gc.collect()
            snapshot, elapsed, stats = _e14_run(mode)
            run = sweep[mode]
            run["best_s"] = min(run["best_s"], elapsed)
            run["snapshot"] = snapshot
            run["stats"] = stats
    return sweep


def test_bench_e14_seeded_metrics_identical(
    e14_sweep, record_table, record_run_json, benchmark
):
    """Every observability mode must leave the sim metrics byte-identical."""
    baseline = e14_sweep["off"]["snapshot"]
    assert baseline["counter/channel/frames_sent"] > 0
    assert baseline["counter/faults/injected"] >= 1
    rows = []
    for mode in E14_MODES:
        run = e14_sweep[mode]
        assert run["snapshot"] == baseline, f"mode {mode} perturbed the sim"
        record_run_json(
            "E14_obs_overhead",
            f"mode/{mode}",
            run["stats"],
            seed=E14_SEED,
            config={"mode": mode, "vehicles": E14_VEHICLES},
        )
        rows.append(
            [
                mode,
                run["stats"]["frames"],
                run["stats"]["spans"],
                run["stats"]["events"],
                run["stats"]["profiled"],
                "identical",
            ]
        )
    table = render_table(
        ["mode", "frames sent", "spans", "events", "profiled callbacks", "metrics"],
        rows,
        title=(
            f"E14a — determinism, {E14_VEHICLES} vehicles,"
            f" {E14_SIM_SECONDS:.0f} sim-s, all observability modes"
        ),
    )
    record_table("E14_obs_overhead", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_bench_e14_wall_clock_overhead(e14_sweep, record_table, benchmark):
    """Tagged tracing must cost < 5 % wall clock (acceptance criterion)."""
    baseline_s = e14_sweep["off"]["best_s"]
    rows = []
    for mode in E14_MODES:
        best_s = e14_sweep[mode]["best_s"]
        overhead = (best_s - baseline_s) / baseline_s
        rows.append([mode, best_s, f"{overhead * 100:+.1f}%"])
    table = render_table(
        ["mode", f"best of {E14_ROUNDS} (s)", "overhead vs off"],
        rows,
        title=(
            f"E14b — wall clock, {E14_VEHICLES} vehicles,"
            f" {E14_SIM_SECONDS:.0f} sim-s of beaconing + tasks + faults"
        ),
    )
    record_table("E14_obs_overhead", table)
    tagged_overhead = (
        e14_sweep["tagged"]["best_s"] - baseline_s
    ) / baseline_s
    assert tagged_overhead < E14_OVERHEAD_LIMIT, (
        f"tagged tracing overhead {tagged_overhead:.1%} exceeds"
        f" {E14_OVERHEAD_LIMIT:.0%}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
