"""Experiment E15 — chaos campaigns: randomized faults vs invariants.

Experiment E11 probes *chosen* failure modes with hand-written fault
schedules; E15 probes *unchosen* ones.  Each run samples a seeded,
randomized fault campaign over every applicable fault family and checks
a suite of cross-subsystem safety invariants (task conservation, lease
exclusivity, single-head, quorum safety, membership agreement, channel
conservation, stranded tasks) once per simulated second while the
faults fire.

* **E15a** — ≥50 seeded runs across the three Fig. 4 architectures
  with the full recovery stack (leases + backoff retries +
  majority-quorum storage with anti-entropy).  The dependability claim
  (§V.A) is that no run violates any invariant.
* **E15b** — the same campaign against a deliberately weakened
  stationary cloud (no leases, fixed 1 s assignment retries with no
  backoff or jitter, best-effort ``W=R=1`` quorum, no hinted handoff).  Runs *must* fail, and every failing
  seed's fault schedule must delta-debug down to ≤3 faults that replay
  the violation deterministically from the recorded seed.

Expected shape: hardened campaigns are violation-free while injecting
hundreds of faults; weakened campaigns strand crash-frozen tasks and
serve stale reads, each failure minimizing to one or two faults.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.chaos import (
    ChaosProfile,
    ChaosRunner,
    dynamic_scenario,
    infrastructure_scenario,
    stationary_scenario,
)

RUN_LENGTH_S = 45.0
HARDENED_SEEDS = {
    "stationary": range(1501, 1519),
    "dynamic": range(1601, 1619),
    "infrastructure": range(1701, 1719),
}
WEAKENED_SEEDS = range(7001, 7013)
FACTORIES = {
    "stationary": stationary_scenario,
    "dynamic": dynamic_scenario,
    "infrastructure": infrastructure_scenario,
}


# ---------------------------------------------------------------------------
# E15a — hardened architectures under randomized campaigns
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hardened_campaigns():
    campaigns = {}
    for label, factory in FACTORIES.items():
        runner = ChaosRunner(factory, run_length_s=RUN_LENGTH_S)
        campaigns[label] = runner.run_campaign(HARDENED_SEEDS[label])
    return campaigns


def test_bench_hardened_campaign_table(
    hardened_campaigns, record_table, record_run_json, benchmark
):
    rows = []
    for label, campaign in hardened_campaigns.items():
        checks = sum(r.checks_run for r in campaign.results)
        completed = sum(r.completed for r in campaign.results)
        submitted = sum(r.submitted for r in campaign.results)
        record_run_json(
            "E15_chaos",
            f"hardened/{label}",
            {
                "runs": campaign.runs,
                "clean_runs": campaign.clean_runs,
                "faults_injected": campaign.total_injected,
                "invariant_checks": checks,
                "violations": campaign.total_violations,
                "task_completion": completed / max(1, submitted),
            },
            config={"architecture": label, "run_length_s": RUN_LENGTH_S},
        )
        rows.append(
            [
                label,
                campaign.runs,
                campaign.clean_runs,
                campaign.total_injected,
                checks,
                campaign.total_violations,
                completed / max(1, submitted),
            ]
        )
    table = render_table(
        [
            "architecture",
            "runs",
            "clean runs",
            "faults injected",
            "invariant checks",
            "violations",
            "task completion",
        ],
        rows,
        title="E15a — hardened architectures under randomized chaos campaigns",
    )
    record_table("E15_chaos", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_hardened_campaign_is_violation_free(hardened_campaigns, benchmark):
    total_runs = sum(c.runs for c in hardened_campaigns.values())
    assert total_runs >= 50
    for label, campaign in hardened_campaigns.items():
        assert campaign.total_violations == 0, (
            f"{label}: seeds {campaign.failing_seeds} violated invariants"
        )
        assert campaign.total_injected > 0, label
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E15b — weakened configuration: must break, minimally
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def weakened_reproducers():
    runner = ChaosRunner(
        lambda seed: stationary_scenario(seed, hardened=False),
        run_length_s=RUN_LENGTH_S,
    )
    campaign = runner.run_campaign(WEAKENED_SEEDS)
    bundles = [runner.capture_reproducer(seed) for seed in campaign.failing_seeds]
    replays = [
        any(
            v.invariant == bundle.invariant
            for v in runner.run_seed(
                bundle.seed, only_indices=list(bundle.minimized_indices)
            ).violations
        )
        for bundle in bundles
    ]
    return campaign, bundles, replays


def test_bench_weakened_reproducer_table(weakened_reproducers, record_table, benchmark):
    campaign, bundles, replays = weakened_reproducers
    rows = []
    for bundle, replayed in zip(bundles, replays):
        rows.append(
            [
                bundle.seed,
                bundle.invariant,
                bundle.schedule_size,
                len(bundle.minimized_specs),
                bundle.minimize_runs,
                "; ".join(s.kind for s in bundle.minimized_specs),
                "yes" if replayed else "NO",
            ]
        )
    table = render_table(
        [
            "seed",
            "violated invariant",
            "schedule",
            "minimized",
            "ddmin runs",
            "minimal faults",
            "replays",
        ],
        rows,
        title=(
            "E15b — weakened stationary cloud (no leases/retries, W=R=1): "
            f"{campaign.clean_runs}/{campaign.runs} clean"
        ),
    )
    record_table("E15_chaos", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_weakened_campaign_breaks_and_minimizes(weakened_reproducers, benchmark):
    campaign, bundles, replays = weakened_reproducers
    assert campaign.failing_seeds, "weakened cloud must violate invariants"
    for bundle in bundles:
        assert 1 <= len(bundle.minimized_specs) <= 3, (
            f"seed {bundle.seed} minimized to {len(bundle.minimized_specs)} specs"
        )
    assert all(replays), "every minimized reproducer must replay deterministically"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E15c — storage-focused campaign: best-effort quorum serves stale reads
# ---------------------------------------------------------------------------

STORAGE_SEEDS = range(8001, 8011)


@pytest.fixture(scope="module")
def storage_chaos():
    """Partition/reboot/crash-heavy campaign against the W=R=1 store."""
    profile = ChaosProfile().only("partition", "reboot", "crash")
    runner = ChaosRunner(
        lambda seed: stationary_scenario(seed, hardened=False),
        run_length_s=RUN_LENGTH_S,
        profile=profile,
    )
    campaign = runner.run_campaign(STORAGE_SEEDS)
    quorum_seeds = [
        r.seed
        for r in campaign.results
        if r.first_violation is not None
        and r.first_violation.invariant == "quorum-safety"
    ]
    bundles = [runner.capture_reproducer(seed) for seed in quorum_seeds]
    return campaign, bundles


def test_bench_storage_chaos_table(storage_chaos, record_table, benchmark):
    campaign, bundles = storage_chaos
    rows = [
        [
            bundle.seed,
            bundle.invariant,
            bundle.schedule_size,
            len(bundle.minimized_specs),
            "; ".join(s.kind for s in bundle.minimized_specs),
            bundle.violation.message.split(":")[0],
        ]
        for bundle in bundles
    ]
    table = render_table(
        ["seed", "violated invariant", "schedule", "minimized", "minimal faults", "anomaly"],
        rows,
        title=(
            "E15c — storage-focused chaos on the best-effort (W=R=1) store: "
            f"{campaign.clean_runs}/{campaign.runs} clean"
        ),
    )
    record_table("E15_chaos", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_quorum_safety_violations_minimize(storage_chaos, benchmark):
    campaign, bundles = storage_chaos
    assert bundles, "storage-focused campaign should surface a quorum-safety seed"
    for bundle in bundles:
        assert bundle.invariant == "quorum-safety"
        assert 1 <= len(bundle.minimized_specs) <= 3
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def test_bench_chaos_run_runtime(benchmark):
    """End-to-end timing of one hardened chaos run (generate+inject+check)."""
    runner = ChaosRunner(stationary_scenario, run_length_s=RUN_LENGTH_S)
    result = benchmark.pedantic(lambda: runner.run_seed(1501), rounds=1, iterations=1)
    assert result.injected > 0
