"""Experiment E1 — paper Fig. 2: conventional vs. mobile vs. vehicular clouds.

The paper's Fig. 2 is a qualitative table (power supply, computing,
mobility, infrastructure reliance, time constraints).  This experiment
re-derives the comparable rows quantitatively by running one task
workload against three cloud configurations built from the same
substrate:

* conventional — tasks offloaded through an RSU to the central cloud
  over the WAN;
* mobile       — tasks offloaded through a cellular base station to an
  MEC-style edge datacenter (shorter WAN);
* vehicular    — tasks executed inside a dynamic v-cloud, pure V2V.

The paper's §I motivates v-clouds with infrastructure *jam*: "conventional
centralized approaches ... may not be able to quickly collect real-time
information and disseminate decisions due to jamming or inaccessibility
of the Internet/cellular network at the scene."  The jammed rows
multiply WAN latency accordingly.

Expected shape (matching Fig. 2): the vehicular cloud has the highest
node mobility (finite serving-link lifetime), the lowest infrastructure
reliance (zero infra messages per task), and keeps meeting sub-second
deadlines when the jammed WAN paths stop meeting them.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import render_table
from repro.core import DynamicVCloud, Task, TaskState
from repro.infra import CentralCloud
from repro.mobility import link_lifetime

from helpers import highway_world

TASK_COUNT = 30
WORK_MI = 800.0
DEADLINE_S = 0.5
JAM_FACTOR = 6.0


def _run_offload_config(
    seed: int, wan_delay_s: float, infra_msgs_per_task: int, jam_factor: float = 1.0
):
    """Tasks go vehicle -> infra node -> datacenter and back."""
    world, _model, _highway = highway_world(seed, vehicle_count=30)
    datacenter = CentralCloud(
        world, compute_mips=200_000.0, wan_delay_s=wan_delay_s * jam_factor
    )
    completed = []

    for index in range(TASK_COUNT):
        submitted_at = index * 0.5

        def _submit(at=submitted_at):
            datacenter.submit(
                WORK_MI, lambda request, reason, t0=at: completed.append(world.now - t0)
            )

        world.engine.schedule_at(submitted_at, _submit, label="offload")
    world.run_for(TASK_COUNT * 0.5 + 30.0)
    deadline_hits = sum(1 for latency in completed if latency <= DEADLINE_S)
    mean_latency = sum(completed) / len(completed) if completed else math.inf
    return {
        "mean_latency_s": mean_latency,
        "deadline_hit_rate": deadline_hits / TASK_COUNT,
        "infra_msgs_per_task": float(infra_msgs_per_task),
        "serving_link_lifetime_s": math.inf,  # the datacenter never moves away
    }


def _run_vehicular_config(seed: int):
    world, model, _highway = highway_world(seed, vehicle_count=30)
    arch = DynamicVCloud(world, model)
    arch.start()
    records = []
    for index in range(TASK_COUNT):
        world.engine.schedule_at(
            index * 0.5,
            lambda: records.append(
                arch.cloud.submit(Task(work_mi=WORK_MI, deadline_s=DEADLINE_S))
            ),
            label="vc-task",
        )
    world.run_for(TASK_COUNT * 0.5 + 30.0)
    done = [r for r in records if r.state is TaskState.COMPLETED]
    latencies = [r.completion_latency_s for r in done]
    head = arch._head_vehicle()
    lifetimes = []
    if head is not None:
        for member_id in arch.cloud.membership.member_ids():
            vehicle = arch._find_vehicle(member_id)
            if vehicle is not None and vehicle.vehicle_id != head.vehicle_id:
                lifetimes.append(min(link_lifetime(head, vehicle, 300.0), 600.0))
    mean_lifetime = sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
    hits = sum(1 for r in done if r.met_deadline())
    return {
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else math.inf,
        "deadline_hit_rate": hits / TASK_COUNT,
        "infra_msgs_per_task": arch.cloud.stats.infra_messages / max(1, len(records)),
        "serving_link_lifetime_s": mean_lifetime,
    }


@pytest.fixture(scope="module")
def results():
    return {
        "conventional": _run_offload_config(101, wan_delay_s=0.080, infra_msgs_per_task=4),
        "conventional-jammed": _run_offload_config(
            101, wan_delay_s=0.080, infra_msgs_per_task=4, jam_factor=JAM_FACTOR
        ),
        "mobile": _run_offload_config(102, wan_delay_s=0.020, infra_msgs_per_task=4),
        "mobile-jammed": _run_offload_config(
            102, wan_delay_s=0.020, infra_msgs_per_task=4, jam_factor=JAM_FACTOR
        ),
        "vehicular": _run_vehicular_config(103),
    }


def test_bench_fig2_table(results, record_table, benchmark):
    rows = []
    for label in (
        "conventional",
        "conventional-jammed",
        "mobile",
        "mobile-jammed",
        "vehicular",
    ):
        row = results[label]
        rows.append(
            [
                label,
                row["mean_latency_s"] * 1000,
                row["deadline_hit_rate"],
                row["infra_msgs_per_task"],
                row["serving_link_lifetime_s"],
            ]
        )
    table = render_table(
        [
            "cloud type",
            "mean latency (ms)",
            "0.5s-deadline hit",
            "infra msgs/task",
            "serving-link lifetime (s)",
        ],
        rows,
        title="E1 / Fig.2 — conventional vs mobile vs vehicular cloud",
    )
    record_table("E1_fig2_cloud_comparison", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_vehicular_cloud_lowest_infra_reliance(results, benchmark):
    assert results["vehicular"]["infra_msgs_per_task"] == 0.0
    assert results["conventional"]["infra_msgs_per_task"] > 0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_vehicular_cloud_highest_mobility(results, benchmark):
    """Fig. 2: mobility low / low / high across the three columns."""
    assert math.isinf(results["conventional"]["serving_link_lifetime_s"])
    assert results["vehicular"]["serving_link_lifetime_s"] < 1000.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_vehicular_cloud_survives_wan_jam(results, benchmark):
    """The §I motivation: jammed WAN misses deadlines, the v-cloud keeps hitting."""
    assert results["conventional-jammed"]["deadline_hit_rate"] == 0.0
    assert results["vehicular"]["deadline_hit_rate"] > 0.5
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_mobile_cloud_sits_between(results, benchmark):
    assert (
        results["conventional"]["mean_latency_s"] > results["mobile"]["mean_latency_s"]
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_bench_offload_path(benchmark):
    """End-to-end timing of one conventional-cloud configuration run."""

    def run():
        return _run_offload_config(104, wan_delay_s=0.080, infra_msgs_per_task=4)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["mean_latency_s"] > 0.16  # two WAN crossings minimum
