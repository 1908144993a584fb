"""Tests for the tiered edge↔cloud federation (`repro.tier`).

Covers the backhaul link model, the fault-plan driver, tier topology
registration, the health tracker, and — the heart of it — the
speculation edge cases: both replicas failing, a remote result winning
through an outage that opened after dispatch, cancellation of a local
replica that had already been handed over, and speculation collapsing
to local when the remote has no feasible slack.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos import InvariantSuite, TaskConservation, TierConservation
from repro.core import (
    CheckpointHandoverPolicy,
    ResourceOffer,
    Task,
    VehicularCloud,
)
from repro.core.federation import CloudFederation
from repro.core.race import Race
from repro.core.tasks import TaskState
from repro.errors import ConfigurationError
from repro.faults.backhaul import BackhaulFaultDriver
from repro.faults.plan import FaultPlan
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.infra.central_cloud import CentralCloud
from repro.mobility import StationaryModel
from repro.serve import CircuitBreakerBoard, HedgePolicy, ServiceGateway, ServiceRequest
from repro.sim import ScenarioConfig, World
from repro.tier import (
    BACKHAUL_DEGRADED,
    BACKHAUL_LOST,
    NO_REMOTE_SLACK,
    SPECULATION_CANCELLED,
    BackhaulLink,
    CentralCloudTier,
    TieredOffloader,
    TierHealthTracker,
    TierTopology,
    VCloudTier,
)


def build_tiered(
    seed=11,
    members=3,
    mips=200.0,
    central_mips=2_000.0,
    link_kwargs=None,
    handover_policy=None,
):
    """Two-tier scenario: a parked v-cloud plus a central cloud over a WAN."""
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 20.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "tier-local", handover_policy=handover_policy)
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6)
        )
    central = CentralCloud(world, compute_mips=central_mips, wan_delay_s=0.0)
    link = BackhaulLink(world, "wan", **(link_kwargs or {"base_latency_s": 0.05}))
    topology = TierTopology()
    local = topology.register(VCloudTier(world, "local", "local", cloud))
    remote = topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(world, topology, name="t")
    return SimpleNamespace(
        world=world,
        vehicles=vehicles,
        cloud=cloud,
        central=central,
        link=link,
        topology=topology,
        local=local,
        remote=remote,
        offloader=offloader,
    )


def assert_conserved(offloader, now):
    assert TierConservation(offloader).check(now) == []


# ---------------------------------------------------------------------------
# BackhaulLink
# ---------------------------------------------------------------------------


class TestBackhaulLink:
    def test_validation(self, world):
        with pytest.raises(ConfigurationError):
            BackhaulLink(world, base_latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            BackhaulLink(world, throughput_bps=0.0)
        with pytest.raises(ConfigurationError):
            BackhaulLink(world, loss_probability=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_latency_s": float("nan")},
            {"jitter_s": float("nan")},
            {"throughput_bps": float("nan")},
            {"loss_probability": float("nan")},
        ],
    )
    def test_nan_parameters_are_rejected(self, world, kwargs):
        with pytest.raises(ConfigurationError):
            BackhaulLink(world, **kwargs)

    def test_nan_fault_windows_are_rejected(self, world):
        link = BackhaulLink(world)
        # A NaN outage left available() False with no end.
        with pytest.raises(ConfigurationError):
            link.start_outage(float("nan"))
        with pytest.raises(ConfigurationError):
            link.add_loss_window(float("nan"), 0.5)
        with pytest.raises(ConfigurationError):
            link.add_jitter_window(float("nan"), 0.1)
        with pytest.raises(ConfigurationError):
            link.add_jitter_window(1.0, float("nan"))
        assert link.available() and link.outages == 0
        assert link.effective_loss_probability() == 0.0 and link.max_jitter_s() == 0.0

    def test_delivers_after_latency_plus_serialization(self, world):
        link = BackhaulLink(world, base_latency_s=0.1, throughput_bps=8_000.0)
        delivered = []
        link.transmit(1_000, deliver=lambda: delivered.append(world.now))
        world.run_until(5.0)
        # 0.1s propagation + 1000 B * 8 / 8000 bps = 1.1s total.
        assert delivered == [pytest.approx(1.1)]
        assert link.accounting() == {
            "sent": 1, "delivered": 1, "lost": 0, "in_flight": 0,
        }

    def test_outage_refuses_new_sends_but_not_frames_in_flight(self, world):
        link = BackhaulLink(world, base_latency_s=1.0)
        outcomes = []
        link.transmit(100, deliver=lambda: outcomes.append("delivered"))
        world.run_until(0.5)
        link.start_outage(10.0)
        assert not link.available()
        sent = link.transmit(
            100,
            deliver=lambda: outcomes.append("late"),
            on_lost=lambda reason: outcomes.append(f"lost:{reason}"),
        )
        assert sent is False
        world.run_until(5.0)
        # The in-flight frame beat the cut; the new one was refused.
        assert outcomes == ["lost:outage", "delivered"]
        world.run_until(11.0)
        assert link.available()

    def test_end_outage_restores_immediately(self, world):
        link = BackhaulLink(world)
        link.start_outage()  # indefinite
        assert not link.available()
        link.end_outage()
        assert link.available()

    def test_loss_window_elevates_then_expires(self, world):
        link = BackhaulLink(world, base_latency_s=0.01)
        link.add_loss_window(5.0, 1.0)
        lost = []
        link.transmit(10, deliver=lambda: None, on_lost=lost.append)
        assert lost == ["loss"]
        world.run_until(6.0)
        assert link.effective_loss_probability() == 0.0
        delivered = []
        link.transmit(10, deliver=lambda: delivered.append(True))
        world.run_until(7.0)
        assert delivered == [True]

    def test_latency_estimate_tracks_jitter_window(self, world):
        link = BackhaulLink(world, base_latency_s=0.1, jitter_s=0.02)
        base = link.latency_estimate_s(0)
        assert base == pytest.approx(0.12)
        link.add_jitter_window(5.0, 0.5)
        assert link.latency_estimate_s(0) == pytest.approx(0.62)
        world.run_until(6.0)
        assert link.latency_estimate_s(0) == pytest.approx(0.12)


class TestBackhaulFaultDriver:
    def test_plan_kinds_map_onto_the_link(self, world):
        link = BackhaulLink(world, base_latency_s=0.01)
        plan = (
            FaultPlan(3)
            .partition(1.0, duration_s=2.0)
            .loss_burst(4.0, duration_s=3.0, drop_probability=0.9)
            .jitter_spike(8.0, duration_s=2.0, max_extra_delay_s=0.25)
            .crash(5.0)  # no WAN analogue; must be skipped
        )
        driver = BackhaulFaultDriver(world.engine, link, plan)
        assert driver.arm() == 3
        assert [spec.kind for spec in driver.skipped] == ["crash"]

        world.run_until(1.5)
        assert not link.available()
        world.run_until(3.5)
        assert link.available()
        world.run_until(4.5)
        assert link.effective_loss_probability() == pytest.approx(0.9)
        world.run_until(8.5)
        assert link.max_jitter_s() == pytest.approx(0.25)
        assert [entry[1] for entry in driver.ledger] == [
            "partition", "loss_burst", "jitter_spike",
        ]

    def test_arm_is_idempotent(self, world):
        link = BackhaulLink(world)
        driver = BackhaulFaultDriver(
            world.engine, link, FaultPlan(1).partition(1.0, duration_s=1.0)
        )
        assert driver.arm() == 1
        assert driver.arm() == 0


# ---------------------------------------------------------------------------
# TierTopology
# ---------------------------------------------------------------------------


class TestTierTopology:
    def test_registration_guards(self, world):
        cloud = VehicularCloud(world, "vc")
        topology = TierTopology()
        topology.register(VCloudTier(world, "a", "local", cloud))
        with pytest.raises(ConfigurationError):
            topology.register(VCloudTier(world, "a", "local", cloud))
        with pytest.raises(ConfigurationError):
            VCloudTier(world, "b", "orbital", cloud)
        with pytest.raises(ConfigurationError):
            topology.tier("missing")

    def test_remote_tiers_order_edge_before_cloud(self, world):
        cloud = VehicularCloud(world, "vc")
        central = CentralCloud(world, wan_delay_s=0.0)
        link = BackhaulLink(world)
        topology = TierTopology()
        topology.register(CentralCloudTier(world, "dc", central, link))
        topology.register(VCloudTier(world, "rsu-edge", "edge", cloud, link=link))
        topology.register(VCloudTier(world, "near", "local", cloud))
        assert [t.name for t in topology.remote_tiers()] == ["rsu-edge", "dc"]
        assert [t.name for t in topology.local_tiers()] == ["near"]
        description = topology.describe()
        assert "edge: rsu-edge via backhaul" in description
        assert "local: near" in description

    def test_offloader_requires_tiers(self, world):
        with pytest.raises(ConfigurationError):
            TieredOffloader(world, TierTopology())


# ---------------------------------------------------------------------------
# Speculation: the happy race and its degradations
# ---------------------------------------------------------------------------


class TestSpeculation:
    def test_remote_wins_and_local_loser_is_cancelled(self):
        b = build_tiered(mips=100.0, central_mips=10_000.0)
        spec = b.offloader.submit(
            Task(work_mi=1_000.0, deadline_s=10.0), policy="speculate"
        )
        assert len(spec.race.handles) == 2
        b.world.run_until(20.0)
        assert spec.race.decided and spec.race.winner is not None
        assert spec.race.winner is not None and spec.race.winner.tier_name == "central"
        local_attempt = next(a for a in spec.race.handles if a.tier_name == "local")
        assert local_attempt.cancelled
        assert local_attempt.terminal_reason == SPECULATION_CANCELLED
        assert b.cloud.stats.failure_reasons == {SPECULATION_CANCELLED: 1}
        stats = b.offloader.stats
        assert stats.speculated == 1
        assert stats.deadline_hits == 1 and stats.deadline_misses == 0
        assert stats.attempts_won == 1 and stats.attempts_cancelled == 1
        assert_conserved(b.offloader, b.world.now)

    def test_local_wins_when_remote_is_slow(self):
        b = build_tiered(mips=500.0, central_mips=2_000.0,
                         link_kwargs={"base_latency_s": 3.0})
        # Remote estimate ~ 6.5s still beats the 8s deadline, so the race
        # runs — but the local replica finishes first.
        spec = b.offloader.submit(
            Task(work_mi=1_000.0, deadline_s=8.0), policy="speculate"
        )
        assert len(spec.race.handles) == 2
        b.world.run_until(30.0)
        assert spec.race.winner is not None and spec.race.winner.tier_name == "local"
        assert b.offloader.stats.wins_by_tier == {"local": 1}
        assert_conserved(b.offloader, b.world.now)

    # -- ISSUE edge case 1: both replicas fail -----------------------------

    def test_both_replicas_fail_yields_typed_task_failure(self):
        b = build_tiered(members=0)  # no workers: local can never assign
        b.link.add_loss_window(60.0, 1.0)  # WAN drops every frame
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=5.0), policy="speculate"
        )
        b.world.run_until(30.0)
        assert spec.race.decided
        remote_attempt = next(a for a in spec.race.handles if a.tier_name == "central")
        local_attempt = next(a for a in spec.race.handles if a.tier_name == "local")
        assert remote_attempt.terminal_reason == BACKHAUL_LOST
        assert local_attempt.terminal_reason == "deadline"
        assert spec.race.last_failure == "deadline"
        stats = b.offloader.stats
        assert stats.failed == 1 and stats.completed == 0
        assert stats.failure_reasons == {"deadline": 1}
        assert stats.deadline_misses == 1
        assert stats.attempts_failed == 2
        assert_conserved(b.offloader, b.world.now)

    # -- ISSUE edge case 2: remote wins through an outage that opened
    #    after dispatch (result frame already on the wire) ------------------

    def test_remote_wins_during_outage_opened_after_dispatch(self):
        b = build_tiered(mips=100.0, central_mips=2_000.0,
                         link_kwargs={"base_latency_s": 0.5})
        # Uplink delivers ~0.5s, processing 0.5s, result sent ~1.0s,
        # arriving ~1.5s.  The outage at 1.2s opens *after* the result
        # frame left — send-time loss sampling lets it land anyway.
        b.world.engine.schedule_at(
            1.2, lambda: b.link.start_outage(5.0), label="test-outage"
        )
        spec = b.offloader.submit(
            Task(work_mi=1_000.0, deadline_s=10.0), policy="speculate"
        )
        b.world.run_until(3.0)
        assert spec.race.decided and spec.race.winner is not None
        assert spec.race.winner is not None and spec.race.winner.tier_name == "central"
        assert spec.resolved_at is not None and 1.2 < spec.resolved_at < 6.2
        assert not b.link.available()  # the link was dark when it won
        assert b.link.loss_reasons == {}
        assert_conserved(b.offloader, b.world.now)

    def test_outage_before_result_send_loses_remote_and_local_wins(self):
        b = build_tiered(mips=500.0, central_mips=2_000.0,
                         link_kwargs={"base_latency_s": 0.5})
        # Same race, but the cut lands at 0.8s — before the remote result
        # is sent at ~1.0s — so the downlink frame is refused.
        b.world.engine.schedule_at(
            0.8, lambda: b.link.start_outage(30.0), label="test-outage"
        )
        spec = b.offloader.submit(
            Task(work_mi=1_000.0, deadline_s=10.0), policy="speculate"
        )
        b.world.run_until(20.0)
        assert spec.race.winner is not None and spec.race.winner.tier_name == "local"
        remote_attempt = next(a for a in spec.race.handles if a.tier_name == "central")
        assert remote_attempt.terminal_reason == BACKHAUL_LOST
        assert b.link.loss_reasons == {"outage": 1}
        assert b.offloader.stats.deadline_hits == 1
        assert_conserved(b.offloader, b.world.now)

    # -- ISSUE edge case 3: cancel-after-handover of the losing local
    #    replica ------------------------------------------------------------

    def test_cancel_after_handover_of_losing_local_replica(self):
        b = build_tiered(
            mips=200.0,
            central_mips=500.0,
            handover_policy=CheckpointHandoverPolicy(reauth_latency_s=5.0),
        )
        spec = b.offloader.submit(
            Task(work_mi=1_000.0, deadline_s=15.0), policy="speculate"
        )
        local_attempt = next(a for a in spec.race.handles if a.tier_name == "local")
        assert local_attempt.record is not None
        worker = local_attempt.record.worker_id
        assert worker is not None
        # Depart the busy worker at 1s: the replica (5s runtime) hands
        # over and sits HANDED_OVER awaiting its slow (5s) requeue.
        b.world.engine.schedule_at(
            1.0, lambda: b.cloud.member_leave(worker), label="test-depart"
        )
        b.world.run_until(1.5)
        assert local_attempt.record.state is TaskState.HANDED_OVER
        assert b.cloud.stats.handovers == 1
        # The remote wins (~2.1s) while the local replica is still parked
        # in handover; the cancel must retire it cleanly.
        b.world.run_until(30.0)
        assert spec.race.winner is not None and spec.race.winner.tier_name == "central"
        assert local_attempt.cancelled
        assert local_attempt.terminal_reason == SPECULATION_CANCELLED
        assert local_attempt.record.state is TaskState.FAILED
        assert b.cloud.stats.failure_reasons == {SPECULATION_CANCELLED: 1}
        # The pending requeue fired into a terminal record: a no-op.
        assert b.offloader.accounting()["live"] == 0
        assert_conserved(b.offloader, b.world.now)

    # -- ISSUE edge case 4: no feasible remote slack -----------------------

    def test_no_remote_slack_collapses_without_remote_dispatch(self):
        b = build_tiered(mips=200.0, link_kwargs={"base_latency_s": 5.0})
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=2.0), policy="speculate"
        )
        # Collapse decided at submit: one local attempt, nothing on the
        # wire, nothing pending remotely.
        assert spec.degraded == NO_REMOTE_SLACK
        assert [a.tier_name for a in spec.race.handles] == ["local"]
        assert b.link.sent == 0
        assert b.central.pending_requests() == 0
        b.world.run_until(10.0)
        stats = b.offloader.stats
        assert stats.speculated == 0
        assert stats.degraded == {NO_REMOTE_SLACK: 1}
        assert stats.deadline_hits == 1
        assert spec.race.winner is not None and spec.race.winner.tier_name == "local"
        assert_conserved(b.offloader, b.world.now)

    def test_backhaul_outage_at_submit_degrades_to_local(self):
        b = build_tiered()
        b.link.start_outage()  # WAN already dark when the task arrives
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=5.0), policy="speculate"
        )
        assert spec.degraded == BACKHAUL_DEGRADED
        assert [a.tier_name for a in spec.race.handles] == ["local"]
        assert b.link.sent == 0
        b.world.run_until(10.0)
        assert b.offloader.stats.degraded == {BACKHAUL_DEGRADED: 1}
        assert spec.race.winner is not None and spec.race.winner.tier_name == "local"
        assert_conserved(b.offloader, b.world.now)

    def test_speculate_without_deadline_degrades_to_prefer_local(self):
        b = build_tiered()
        spec = b.offloader.submit(Task(work_mi=100.0), policy="speculate")
        assert [a.tier_name for a in spec.race.handles] == ["local"]
        assert b.offloader.stats.speculated == 0
        b.world.run_until(10.0)
        assert spec.race.winner is not None
        assert_conserved(b.offloader, b.world.now)


class TestPolicies:
    def test_local_only_never_leaves_the_local_tier(self):
        b = build_tiered(central_mips=100_000.0)
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=10.0), policy="local_only"
        )
        assert [a.tier_name for a in spec.race.handles] == ["local"]
        b.world.run_until(10.0)
        assert b.link.sent == 0
        assert spec.race.winner is not None and spec.race.winner.tier_name == "local"

    def test_prefer_local_fails_over_when_local_is_unhealthy(self):
        b = build_tiered(members=0)  # zero workers: local unreachable
        spec = b.offloader.submit(Task(work_mi=100.0), policy="prefer_local")
        assert [a.tier_name for a in spec.race.handles] == ["central"]
        b.world.run_until(10.0)
        assert spec.race.winner is not None
        assert b.offloader.stats.failovers == 1
        assert_conserved(b.offloader, b.world.now)

    def test_unknown_policy_rejected(self):
        b = build_tiered()
        with pytest.raises(ConfigurationError):
            b.offloader.submit(Task(work_mi=1.0), policy="yolo")


class TestTierHealth:
    def test_sustained_failures_demote_the_tier(self):
        # Tier demotion demands a *sustained* failure streak (the
        # default threshold is deliberately loss-tolerant: sporadic
        # frame loss is speculation's job to absorb, not the breaker's).
        b = build_tiered()
        health = b.offloader.health
        assert health.healthy(b.remote)
        for _ in range(6):
            health.note_dispatch(b.remote)
            health.record_outcome(b.remote, BACKHAUL_LOST)
        assert not health.healthy(b.remote)
        assert health.demotions == 1
        assert health.breaker_state(b.remote) == "OPEN"

    def test_cancelled_losers_are_neutral(self):
        b = build_tiered()
        health = b.offloader.health
        for _ in range(10):
            health.note_dispatch(b.remote)
            health.record_outcome(b.remote, SPECULATION_CANCELLED)
        assert health.healthy(b.remote)
        assert health.demotions == 0

    def test_sporadic_failures_do_not_demote(self):
        # 4 losses spread over 12 successes is a lossy-but-alive WAN:
        # well under the 0.9 threshold, the tier keeps its place.
        b = build_tiered()
        health = b.offloader.health
        for i in range(16):
            health.note_dispatch(b.remote)
            health.record_outcome(
                b.remote, BACKHAUL_LOST if i % 4 == 0 else "completed"
            )
        assert health.healthy(b.remote)
        assert health.demotions == 0

    def test_demoted_remote_collapses_speculation(self):
        b = build_tiered()
        health = b.offloader.health
        for _ in range(6):
            health.note_dispatch(b.remote)
            health.record_outcome(b.remote, BACKHAUL_LOST)
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=5.0), policy="speculate"
        )
        assert spec.degraded == BACKHAUL_DEGRADED
        assert [a.tier_name for a in spec.race.handles] == ["local"]

    def test_validation(self, world):
        with pytest.raises(ConfigurationError):
            TierHealthTracker(world, cooldown_s=0.0)
        with pytest.raises(ConfigurationError):
            TierHealthTracker(world, max_queue_delay_s=-1.0)


# ---------------------------------------------------------------------------
# Determinism and conservation under churn
# ---------------------------------------------------------------------------


#: The outage scenario: a steady stream of deadline tasks speculating
#: across a parked v-cloud and a fast central cloud while a partition
#: cuts the backhaul mid-run.
OUTAGE_MEMBERS = 6
OUTAGE_TASKS = 20
OUTAGE_TASK_INTERVAL_S = 2.0
OUTAGE_DEADLINE_S = 10.0
OUTAGE_WORK_MI = 600.0
OUTAGE_AT_S = 15.0
OUTAGE_S = 10.0
OUTAGE_HORIZON_S = 80.0


def build_outage_scenario(seed):
    """Two tiers, the task stream, the outage and a conservation suite.

    Returns ``(world, offloader, suite, driver)``, not yet run.
    """
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 30.0, 0.0) for i in range(OUTAGE_MEMBERS)]
    )
    vehicles = model.populate(OUTAGE_MEMBERS)
    cloud = VehicularCloud(world, "tier-smoke-local")
    for vehicle in vehicles:
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, 200.0, 10**9, 1e6),
        )

    central = CentralCloud(world, compute_mips=50_000.0, wan_delay_s=0.04)
    link = BackhaulLink(
        world, "smoke-wan", base_latency_s=0.05, jitter_s=0.01, loss_probability=0.02
    )
    topology = TierTopology()
    topology.register(VCloudTier(world, "local-vc", "local", cloud))
    topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(
        world, topology, health=TierHealthTracker(world), name="smoke"
    )

    for index in range(OUTAGE_TASKS):
        world.engine.schedule_at(
            index * OUTAGE_TASK_INTERVAL_S,
            lambda: offloader.submit(
                Task(work_mi=OUTAGE_WORK_MI, deadline_s=OUTAGE_DEADLINE_S, submitter="smoke"),
                policy="speculate",
            ),
            label="tier-smoke-submit",
        )

    plan = FaultPlan(seed).partition(OUTAGE_AT_S, duration_s=OUTAGE_S)
    driver = BackhaulFaultDriver(world.engine, link, plan)
    driver.arm()

    suite = InvariantSuite(
        [TaskConservation(cloud), TierConservation(offloader)],
        metrics=world.metrics,
    )
    suite.attach(world, check_interval_s=0.5)
    return world, offloader, suite, driver


class TestDeterminismAndConservation:
    def _run_smoke(self, seed):
        reset_global_ids()
        world, offloader, suite, driver = build_outage_scenario(seed)
        world.run_until(OUTAGE_HORIZON_S)
        return world, offloader, suite, driver

    def test_seeded_replay_is_identical(self):
        world1, off1, suite1, _driver1 = self._run_smoke(77)
        world2, off2, suite2, _driver2 = self._run_smoke(77)
        assert off1.accounting() == off2.accounting()
        assert off1.stats.wins_by_tier == off2.stats.wins_by_tier
        assert off1.stats.degraded == off2.stats.degraded
        assert world1.metrics.snapshot() == world2.metrics.snapshot()
        assert not suite1.violations and not suite2.violations

    def test_smoke_scenario_is_conservation_clean(self):
        """Speculation through the outage: every task resolves inside its
        deadline, both halves of the mechanism engage, and task and tier
        conservation hold at every check."""
        world, offloader, suite, driver = self._run_smoke(2024)
        assert suite.checks_run > 0
        assert suite.violations == []
        acc = offloader.accounting()
        assert acc["live"] == 0 and acc["attempts_live"] == 0
        assert acc["submitted"] == OUTAGE_TASKS
        stats = offloader.stats
        # The outage costs latency, never deadline safety.
        assert (stats.deadline_hits, stats.deadline_misses) == (OUTAGE_TASKS, 0)
        assert driver.ledger, "the backhaul outage never fired"
        assert stats.degraded.get("backhaul_degraded", 0) > 0
        assert stats.speculated > 0 and stats.attempts_cancelled > 0


# ---------------------------------------------------------------------------
# CentralCloud satellite: typed failures and queue estimates
# ---------------------------------------------------------------------------


class TestCentralCloudContract:
    def test_cancel_is_a_typed_failure(self, world):
        cloud = CentralCloud(world, compute_mips=1_000.0, wan_delay_s=0.1)
        responses = []
        failures = []

        def on_finish(request, reason):
            if reason == "completed":
                responses.append(request)
            else:
                failures.append(reason)

        request = cloud.submit(500.0, on_finish=on_finish)
        assert cloud.pending_requests() == 1
        assert cloud.cancel(request, reason="speculation_cancelled")
        assert failures == ["speculation_cancelled"]
        assert cloud.failure_reasons == {"speculation_cancelled": 1}
        assert cloud.pending_requests() == 0
        world.run_until(5.0)
        assert responses == []  # the response event really was cancelled
        assert cloud.requests_served == 0
        assert not cloud.cancel(request)  # already terminal
        assert not cloud.cancel(CentralCloud(world).submit(1.0))  # another cloud's

    def test_response_finishes_once_and_cannot_be_cancelled(self, world):
        cloud = CentralCloud(world, compute_mips=1_000.0, wan_delay_s=0.1)
        calls = []
        request = cloud.submit(500.0, on_finish=lambda r, reason: calls.append((r, reason)))
        world.run_until(5.0)
        assert calls == [(request, "completed")]
        assert request.completed_at == pytest.approx(0.7)
        assert not cloud.cancel(request)  # the response already fired
        assert calls == [(request, "completed")]
        assert cloud.failure_reasons == {}
        assert cloud.requests_failed == 0
        assert cloud.requests_served == 1

    def test_cancel_reclaims_unstarted_queue_slot(self, world):
        cloud = CentralCloud(world, compute_mips=1_000.0, wan_delay_s=0.0)
        cloud.submit(2_000.0)  # 2s of work
        tail = cloud.submit(2_000.0)  # queued behind it
        assert cloud.queue_delay_estimate() == pytest.approx(4.0)
        cloud.cancel(tail)
        assert cloud.queue_delay_estimate() == pytest.approx(2.0)
        assert cloud.backlog_s == pytest.approx(2.0)

    def test_queue_delay_estimate_matches_reported_delay(self, world):
        cloud = CentralCloud(world, compute_mips=1_000.0, wan_delay_s=0.5)
        cloud.submit(3_000.0)
        estimate = cloud.queue_delay_estimate()
        observed = []
        cloud.submit(0.0, on_finish=lambda r, _reason: observed.append(r.queue_delay_s))
        world.run_until(20.0)
        assert observed == [pytest.approx(estimate)]


# ---------------------------------------------------------------------------
# Federation satellite: merge/split observability
# ---------------------------------------------------------------------------


class TestFederationObservability:
    def _vehicles(self, world, positions):
        model = StationaryModel(world, positions=positions)
        return model.populate(len(positions))

    def test_merge_emits_event_and_metrics(self):
        world = World(ScenarioConfig(seed=5))
        world.enable_observability()
        vehicles = self._vehicles(
            world, [Vec2(0.0, 0.0), Vec2(10.0, 0.0), Vec2(20.0, 0.0), Vec2(30.0, 0.0)]
        )
        lookup = {v.vehicle_id: v for v in vehicles}
        a = VehicularCloud(world, "fed-a")
        b = VehicularCloud(world, "fed-b")
        for vehicle in vehicles[:2]:
            a.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 1e9, 1e6))
        for vehicle in vehicles[2:]:
            b.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 1e9, 1e6))
        federation = CloudFederation(
            world, lookup.get, merge_range_m=50.0, max_diameter_m=1_000.0
        )
        federation.register(a)
        federation.register(b)
        federation.step()
        assert federation.merges == 1 and federation.cloud_count() == 1
        assert world.metrics.counter("federation/merges") == 1
        assert world.metrics.gauge("federation/clouds") == 1.0
        assert world.metrics.gauge("federation/members") == 4.0
        merged = [r for r in world.events.records() if r.name == "cloud_merged"]
        assert len(merged) == 1
        assert merged[0].attrs["moved_members"] == 2

    def test_split_emits_event_and_metrics(self):
        world = World(ScenarioConfig(seed=6))
        world.enable_observability()
        vehicles = self._vehicles(
            world,
            [Vec2(0.0, 0.0), Vec2(10.0, 0.0), Vec2(500.0, 0.0), Vec2(510.0, 0.0)],
        )
        lookup = {v.vehicle_id: v for v in vehicles}
        cloud = VehicularCloud(world, "fed-wide")
        for vehicle in vehicles:
            cloud.admit(
                vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 1e9, 1e6)
            )
        federation = CloudFederation(
            world, lookup.get, merge_range_m=50.0, max_diameter_m=100.0
        )
        federation.register(cloud)
        federation.step()
        assert federation.splits == 1 and federation.cloud_count() == 2
        assert world.metrics.counter("federation/splits") == 1
        assert world.metrics.gauge("federation/clouds") == 2.0
        split = [r for r in world.events.records() if r.name == "cloud_split"]
        assert len(split) == 1
        assert split[0].attrs["seceded_members"] == 2


# ---------------------------------------------------------------------------
# Gateway integration: tiering=
# ---------------------------------------------------------------------------


def build_gateway_tiered(seed=9, with_breakers=False):
    b = build_tiered(seed=seed, mips=100.0, central_mips=10_000.0)
    breakers = CircuitBreakerBoard(b.world, "gw") if with_breakers else None
    gateway = ServiceGateway(
        b.world, b.cloud, name="gw", tiering=b.offloader, breakers=breakers
    )
    return b, gateway


class TestGatewayTiering:
    # With breakers, the datacenter's win reaches the gateway's breaker
    # credit, which only a v-cloud worker can take.
    @pytest.mark.parametrize("with_breakers", [False, True], ids=["no-breakers", "breakers"])
    def test_deadline_requests_speculate_and_complete(self, with_breakers):
        b, gateway = build_gateway_tiered(with_breakers=with_breakers)
        accepted = gateway.submit(
            ServiceRequest.build(work_mi=1_000.0, tenant="t", deadline_s=10.0)
        )
        assert accepted
        b.world.run_until(20.0)
        assert gateway.stats.completed == 1
        assert gateway.stats.slo_hits == 1
        assert b.offloader.stats.speculated == 1
        assert b.offloader.stats.wins_by_tier == {"central": 1}
        assert_conserved(b.offloader, b.world.now)

    def test_requests_without_deadline_prefer_local(self):
        b, gateway = build_gateway_tiered()
        gateway.submit(
            ServiceRequest.build(work_mi=100.0, tenant="t", deadline_s=None)
        )
        b.world.run_until(20.0)
        assert gateway.stats.completed == 1
        assert b.offloader.stats.speculated == 0
        assert b.offloader.stats.wins_by_tier == {"local": 1}

    def test_tiered_failure_lands_as_gateway_failure(self):
        b = build_tiered(seed=9, members=0)  # local can never assign
        b.link.add_loss_window(120.0, 1.0)  # and the WAN eats every frame
        gateway = ServiceGateway(b.world, b.cloud, name="gw", tiering=b.offloader)
        gateway.submit(
            ServiceRequest.build(work_mi=100.0, tenant="t", deadline_s=5.0)
        )
        b.world.run_until(30.0)
        assert gateway.stats.completed == 0
        assert gateway.stats.failed == 1
        assert_conserved(b.offloader, b.world.now)

    def test_tiering_excludes_hedging(self):
        b = build_tiered()
        with pytest.raises(ConfigurationError):
            ServiceGateway(
                b.world, b.cloud, name="gw",
                tiering=b.offloader, hedging=HedgePolicy(),
            )

    def test_tiering_must_cover_the_gateway_cloud(self):
        b = build_tiered()
        other = VehicularCloud(b.world, "other-vc")
        with pytest.raises(ConfigurationError):
            ServiceGateway(b.world, other, name="gw", tiering=b.offloader)


# ---------------------------------------------------------------------------
# TierConservation wiring
# ---------------------------------------------------------------------------


class TestTierConservationInvariant:
    def test_clean_run_has_no_violations(self):
        b = build_tiered()
        suite = InvariantSuite(
            [TaskConservation(b.cloud), TierConservation(b.offloader)],
            metrics=b.world.metrics,
        )
        suite.attach(b.world, check_interval_s=0.25)
        for index in range(5):
            b.world.engine.schedule_at(
                index * 1.0,
                lambda: b.offloader.submit(
                    Task(work_mi=200.0, deadline_s=8.0), policy="speculate"
                ),
                label="test-submit",
            )
        b.world.run_until(30.0)
        assert suite.checks_run > 0
        assert suite.violations == []

    def test_detects_a_corrupted_attempt_ledger(self):
        b = build_tiered()
        b.offloader.submit(Task(work_mi=100.0, deadline_s=10.0), policy="speculate")
        b.world.run_until(10.0)
        assert_conserved(b.offloader, b.world.now)
        b.offloader.stats.races.launched += 1  # an attempt nobody ran
        violations = TierConservation(b.offloader).check(b.world.now)
        assert any("attempts launched" in v.message for v in violations)

    def test_detects_a_loser_never_asked_to_cancel(self, monkeypatch):
        monkeypatch.setattr(Race, "_cancel_live", lambda race: None)
        b = build_tiered()
        seen = []
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=10.0),
            policy="speculate",
            on_resolved=lambda spec, reason: seen.extend(
                TierConservation(b.offloader).check(b.world.now)
            ),
        )
        b.world.run_until(10.0)
        assert len(spec.race.handles) == 2
        assert any("never asked to cancel" in v.message for v in seen)

    def test_replica_failed_inside_cloud_submit_settles(self, world):
        # No members and no retry budget: the local replica fails
        # retries_exhausted inside cloud.submit, before submit returns.
        cloud = VehicularCloud(world, "tier-empty", max_assignment_retries=0)
        topology = TierTopology()
        topology.register(VCloudTier(world, "local", "local", cloud))
        offloader = TieredOffloader(world, topology, name="t")
        spec = offloader.submit(Task(work_mi=100.0), policy="local_only")
        world.run_until(5.0)
        assert spec.race.decided
        assert offloader.stats.failed == 1
        assert offloader.stats.failure_reasons == {"retries_exhausted": 1}
        assert offloader.accounting()["live"] == 0
        assert_conserved(offloader, world.now)

    def test_detects_a_leaked_winner(self):
        b = build_tiered()
        spec = b.offloader.submit(
            Task(work_mi=100.0, deadline_s=10.0), policy="speculate"
        )
        b.world.run_until(10.0)
        assert spec.race.decided
        # Sabotage the ledger: pretend the winning attempt never won.
        b.offloader.stats.races.won -= 1
        violations = TierConservation(b.offloader).check(b.world.now)
        assert violations
        assert any("winner" in v.message or "winning" in v.message for v in violations)
