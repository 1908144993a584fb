"""Experiment E16 — overload resilience: goodput vs offered load.

Open-loop traffic does not slow down when the serving system does, so
an unprotected cloud pushed past its capacity enters congestion
collapse: queues grow without bound, every task waits longer than its
deadline, and *goodput* (deadline-met completions per second) falls
even as throughput stays busy — the fleet burns its MIPS on work that
is already stale.  E16 measures that collapse and the protected stack
that prevents it.

* **E16a** — a stationary 8-member cloud swept across offered loads of
  {0.5, 1.0, 1.5, 2.0}x its compute capacity, once behind the
  protected gateway (bounded queue, deadline-feasibility admission,
  queue-delay + deadline-lapse shedding, circuit breakers, hedging)
  and once behind the unprotected pass-through.  Acceptance: at 2x the
  protected stack sustains >=90% of its peak goodput while the
  unprotected baseline degrades below 50% of its own peak.
* **E16b** — the same 2x duel on the dynamic (elected-captain) and
  infrastructure (RSU-anchored) Fig. 4 architectures; protection must
  win on both.
* **E16c** — determinism and ledger audit: a repeated seeded run is
  byte-identical, and every non-completed request carries a typed
  reason that reconciles with the counters.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core import (
    CheckpointHandoverPolicy,
    DynamicVCloud,
    InfrastructureVCloud,
    ResourceOffer,
    VehicularCloud,
)
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.infra import deploy_rsus_on_highway
from repro.mobility import Highway, HighwayModel, StationaryModel
from repro.net import WirelessChannel
from repro.serve import (
    CircuitBreakerBoard,
    CompositeAdmission,
    DeadlineFeasibilityAdmission,
    DeadlineLapseShedder,
    HedgePolicy,
    PoissonArrivals,
    QueueDelayShedder,
    ServiceGateway,
    TenantFairShareAdmission,
    TenantSpec,
    WorkloadGenerator,
)
from repro.sim import ScenarioConfig, World

SEED = 42
HORIZON_S = 120.0
DRAIN_S = 30.0
LOADS = (0.5, 1.0, 1.5, 2.0)
#: Blended mean task size: 70% bulk @200 MI + 30% interactive @150 MI.
MEAN_WORK_MI = 185.0


def protected_gateway(world: World, cloud: VehicularCloud) -> ServiceGateway:
    return ServiceGateway(
        world,
        cloud,
        name="e16",
        queue_capacity=32,
        admission=CompositeAdmission([
            DeadlineFeasibilityAdmission(),
            TenantFairShareAdmission(share=0.7),
        ]),
        shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
        breakers=CircuitBreakerBoard(world, "e16"),
        hedging=HedgePolicy(),
    )


def start_traffic(world: World, gateway: ServiceGateway, rate_per_s: float) -> None:
    tenants = [
        TenantSpec(
            name="bulk",
            arrivals=PoissonArrivals(rate_per_s * 0.7),
            work_mi_range=(150.0, 250.0),
            deadline_s=8.0,
            priority=2,
        ),
        TenantSpec(
            name="interactive",
            arrivals=PoissonArrivals(rate_per_s * 0.3),
            work_mi_range=(100.0, 200.0),
            deadline_s=6.0,
            priority=1,
        ),
    ]
    WorkloadGenerator(world, gateway, tenants, horizon_s=HORIZON_S).start()


def measure(world: World, gateway: ServiceGateway) -> dict:
    world.run_until(HORIZON_S + DRAIN_S)
    stats = gateway.stats
    return {
        "offered": stats.offered,
        "goodput": stats.slo_hits / HORIZON_S,
        "p99_s": stats.p99_latency_s(),
        "slo_miss_rate": stats.slo_miss_rate,
        "rejected": stats.rejected,
        "shed": stats.shed,
        "hedges": stats.hedges_launched,
        "stats": stats,
        "gateway": gateway,
        "world": world,
    }


def run_stationary(load: float, protected: bool, seed: int = SEED) -> dict:
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(8)]
    )
    vehicles = model.populate(8)
    cloud = VehicularCloud(
        world, "e16-vc", handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    gateway = (
        protected_gateway(world, cloud)
        if protected
        else ServiceGateway.unprotected(world, cloud, name="e16")
    )
    # 7 dispatch workers x 100 MIPS against ~200 MI bulk tasks: 3.5/s.
    start_traffic(world, gateway, rate_per_s=load * 3.5)
    return measure(world, gateway)


def run_mobile(architecture: str, load: float, seed: int = SEED, protected: bool = True) -> dict:
    reset_global_ids()
    if architecture == "dynamic":
        world = World(ScenarioConfig(seed=seed, vehicle_count=12))
        model = HighwayModel(world, Highway(length_m=3000.0))
        model.populate(12)
        model.start()
        arch = DynamicVCloud(world, model)
    else:
        world = World(ScenarioConfig(seed=seed, vehicle_count=14))
        highway = Highway(length_m=3000.0)
        model = HighwayModel(world, highway)
        model.populate(14)
        model.start()
        channel = WirelessChannel(world)
        rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500.0)
        arch = InfrastructureVCloud(world, rsus[0], model)
    arch.start()
    cloud = arch.cloud
    gateway = (
        protected_gateway(world, cloud)
        if protected
        else ServiceGateway.unprotected(world, cloud, name="e16")
    )
    # Let membership form, then size the open-loop rate off the actual
    # admitted capacity (vehicle MIPS are heterogeneous here).
    world.run_until(5.0)
    capacity_tasks_s = max(0.5, gateway.aggregate_capacity_mips() / MEAN_WORK_MI)
    start_traffic(world, gateway, rate_per_s=load * capacity_tasks_s)
    return measure(world, gateway)


# ---------------------------------------------------------------------------
# E16a — stationary load sweep, protected vs unprotected
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stationary_sweep():
    return {
        mode: [run_stationary(load, protected=(mode == "protected")) for load in LOADS]
        for mode in ("protected", "unprotected")
    }


def test_bench_stationary_sweep_table(
    stationary_sweep, record_table, record_run_json, benchmark
):
    rows = []
    for mode, runs in stationary_sweep.items():
        for load, run in zip(LOADS, runs):
            record_run_json(
                "E16_overload",
                f"stationary/{mode}/{load:.1f}x",
                {
                    "offered": run["offered"],
                    "goodput": run["goodput"],
                    "p99_s": run["p99_s"],
                    "slo_miss_rate": run["slo_miss_rate"],
                    "rejected": run["rejected"],
                    "shed": run["shed"],
                    "hedges": run["hedges"],
                },
                seed=SEED,
                config={"mode": mode, "load": load},
            )
            rows.append(
                [
                    mode,
                    f"{load:.1f}x",
                    run["offered"],
                    f"{run['goodput']:.3f}",
                    f"{run['p99_s']:.2f}",
                    f"{run['slo_miss_rate']:.3f}",
                    run["rejected"],
                    run["shed"],
                    run["hedges"],
                ]
            )
    table = render_table(
        [
            "gateway",
            "offered load",
            "requests",
            "goodput (SLO-met/s)",
            "p99 latency (s)",
            "SLO-miss rate",
            "rejected",
            "shed",
            "hedges",
        ],
        rows,
        title=(
            "E16a — stationary cloud (7 workers x 100 MIPS), open-loop sweep, "
            f"{HORIZON_S:.0f}s horizon, seed {SEED}"
        ),
    )
    record_table("E16_overload", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_protected_sustains_goodput_at_2x(stationary_sweep, benchmark):
    goodputs = [run["goodput"] for run in stationary_sweep["protected"]]
    peak = max(goodputs)
    at_2x = goodputs[LOADS.index(2.0)]
    assert at_2x >= 0.9 * peak, (
        f"protected goodput at 2x ({at_2x:.3f}/s) fell below 90% of peak ({peak:.3f}/s)"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_unprotected_collapses_at_2x(stationary_sweep, benchmark):
    goodputs = [run["goodput"] for run in stationary_sweep["unprotected"]]
    peak = max(goodputs)
    at_2x = goodputs[LOADS.index(2.0)]
    assert at_2x < 0.5 * peak, (
        f"unprotected goodput at 2x ({at_2x:.3f}/s) did not collapse below "
        f"50% of peak ({peak:.3f}/s) — open-loop overload is not biting"
    )
    # The collapse is congestion, not idleness: the baseline stays busy.
    run_2x = stationary_sweep["unprotected"][LOADS.index(2.0)]
    assert run_2x["stats"].completed > run_2x["stats"].slo_hits
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_overload_machinery_engages(stationary_sweep, benchmark):
    run_2x = stationary_sweep["protected"][LOADS.index(2.0)]
    assert run_2x["shed"] + run_2x["rejected"] > 0
    stats = run_2x["stats"]
    assert sum(stats.shed_reasons.values()) == stats.shed
    assert sum(stats.rejection_reasons.values()) == stats.rejected
    underload = stationary_sweep["protected"][0]
    assert underload["rejected"] + underload["shed"] == 0, (
        "admission control must not reject at 0.5x load"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E16b — the 2x duel on the mobile architectures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mobile_duel():
    return {
        label: {
            "protected": run_mobile(label, 2.0, protected=True),
            "unprotected": run_mobile(label, 2.0, protected=False),
        }
        for label in ("dynamic", "infrastructure")
    }


def test_bench_mobile_duel_table(mobile_duel, record_table, record_run_json, benchmark):
    rows = []
    for label, duel in mobile_duel.items():
        for mode in ("protected", "unprotected"):
            run = duel[mode]
            record_run_json(
                "E16_overload",
                f"mobile/{label}/{mode}",
                {
                    "offered": run["offered"],
                    "goodput": run["goodput"],
                    "p99_s": run["p99_s"],
                    "slo_miss_rate": run["slo_miss_rate"],
                    "rejected_plus_shed": run["rejected"] + run["shed"],
                },
                seed=SEED,
                config={"architecture": label, "mode": mode, "load": 2.0},
            )
            rows.append(
                [
                    label,
                    mode,
                    run["offered"],
                    f"{run['goodput']:.3f}",
                    f"{run['p99_s']:.2f}",
                    f"{run['slo_miss_rate']:.3f}",
                    run["rejected"] + run["shed"],
                ]
            )
    table = render_table(
        [
            "architecture",
            "gateway",
            "requests",
            "goodput (SLO-met/s)",
            "p99 latency (s)",
            "SLO-miss rate",
            "rejected+shed",
        ],
        rows,
        title="E16b — 2x offered load on the mobile Fig. 4 architectures",
    )
    record_table("E16_overload", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_protection_wins_on_mobile_architectures(mobile_duel, benchmark):
    for label, duel in mobile_duel.items():
        protected = duel["protected"]["goodput"]
        unprotected = duel["unprotected"]["goodput"]
        assert protected > unprotected, (
            f"{label}: protected goodput {protected:.3f}/s does not beat "
            f"unprotected {unprotected:.3f}/s at 2x load"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E16c — determinism and the typed-reason ledger
# ---------------------------------------------------------------------------


def test_seeded_overload_run_is_byte_identical(benchmark):
    first = run_stationary(2.0, protected=True, seed=77)
    second = run_stationary(2.0, protected=True, seed=77)
    assert first["world"].metrics.snapshot() == second["world"].metrics.snapshot()
    assert first["offered"] == second["offered"]
    assert first["goodput"] == second["goodput"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_every_non_completion_is_ledgered(stationary_sweep, benchmark):
    run_2x = stationary_sweep["protected"][LOADS.index(2.0)]
    stats = run_2x["stats"]
    gateway = run_2x["gateway"]
    world = run_2x["world"]
    acc = gateway.accounting()
    assert acc["offered"] == acc["admitted"] + acc["rejected"]
    assert acc["admitted"] == (
        acc["completed"] + acc["failed"] + acc["shed"] + acc["queued"] + acc["inflight"]
    )
    assert acc["queued"] == 0 and acc["inflight"] == 0, "drain window too short"
    # Typed reasons reconcile with the metrics registry, counter for counter.
    for reason, count in stats.shed_reasons.items():
        assert world.metrics.counter(f"serve/e16/shed/{reason}") == float(count)
    for reason, count in stats.rejection_reasons.items():
        assert world.metrics.counter(f"serve/e16/rejected/{reason}") == float(count)
    # Hedge losers show up in the cloud's failure ledger, not as errors.
    cloud_reasons = run_2x["gateway"].cloud.stats.failure_reasons
    assert cloud_reasons.get("hedge_cancelled", 0) == stats.hedges_cancelled
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
