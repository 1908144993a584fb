"""Tiered offload with speculative execution and graceful failover.

One submit API over the whole hierarchy.  The offloader classifies each
task by its remaining slack and the caller's policy:

* ``local_only``   — the local v-cloud, nothing else;
* ``prefer_local`` — local when healthy, else fail over to the best
  healthy remote tier (a ``failover`` is ledgered);
* ``speculate``    — for deadline-critical tasks: launch replicas on
  the local tier **and** the best feasible remote tier simultaneously;
  they race in a :class:`~repro.core.race.Race`, first acceptable result
  wins, the loser is cancelled through the existing typed-cancel path
  (``speculation_cancelled``).

Speculation degrades instead of stalling.  When every remote tier is
demoted (backhaul outage, tripped breaker, no workers) the task
collapses to local execution and ``backhaul_degraded`` is ledgered;
when a remote exists but its end-to-end estimate (uplink + queue +
run + downlink, all read-only signals) cannot beat the deadline, the
task collapses without dispatching remotely and ``no_remote_slack`` is
ledgered.  Either way the local replica always runs, so a dying WAN
costs latency, never deadline safety — the local/remote speculation
argument of "Leveraging Cloud Computing to Make Autonomous Vehicles
Safer" (PAPERS.md).

Every task roots a ``tier.lifecycle`` span with one ``tier.attempt``
child per replica; the winner's span is causally linked from the
lifecycle so traces answer "which tier actually saved this deadline".
Accounting is conservation-grade: each speculated task resolves to
exactly one winner with every loser cancelled, failed, or flagged late
— the ``TierConservation`` chaos invariant audits exactly this via
:meth:`TieredOffloader.accounting` and the race ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.race import CANCELLED, LATE, WON, Race, RaceLedger, ledger_count
from ..core.tasks import Task
from ..errors import ConfigurationError
from ..sim.world import World
from .health import TierHealthTracker
from .topology import (
    SPECULATION_CANCELLED,
    ExecutionTier,
    TierAttempt,
    TierTopology,
)

#: Submission policies, in escalating aggressiveness.
POLICIES = ("local_only", "prefer_local", "speculate")

#: Degradation reasons ledgered when ``speculate`` collapses to local.
BACKHAUL_DEGRADED = "backhaul_degraded"
NO_REMOTE_SLACK = "no_remote_slack"

#: Terminal reason when no tier at all could take the task.
NO_TIER_AVAILABLE = "no_tier_available"

#: Called once per task with ``(spec, reason)`` at resolution.
ResolveCallback = Callable[["SpeculativeTask", str], None]


@dataclass
class SpeculativeTask:
    """One submitted task and the speculative attempts racing for it."""

    task: Task
    policy: str
    submitted_at: float
    deadline_at: Optional[float]
    #: The task's attempts (:class:`TierAttempt` handles), one per tier.
    race: Race = field(init=False, repr=False)
    resolved_at: Optional[float] = None
    #: Degradation ledgered at submit (``backhaul_degraded`` / ``no_remote_slack``).
    degraded: Optional[str] = None
    span: Optional[object] = None
    on_resolved: Optional[ResolveCallback] = field(default=None, repr=False, compare=False)


@dataclass
class TierStats:
    """Offloader counters, task-level and attempt-level."""

    #: Every task's attempt race.
    races: RaceLedger
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    deadline_hits: int = 0
    deadline_misses: int = 0
    speculated: int = 0
    failovers: int = 0
    degraded: Dict[str, int] = field(default_factory=dict)
    wins_by_tier: Dict[str, int] = field(default_factory=dict)
    latency_sum_s: float = 0.0

    attempts_submitted = ledger_count("launched")
    attempts_won = ledger_count("won")
    attempts_cancelled = ledger_count("cancelled")
    attempts_failed = ledger_count("failed")
    attempts_late = ledger_count("late")

    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.completed if self.completed else 0.0

    def deadline_hit_rate(self) -> float:
        judged = self.deadline_hits + self.deadline_misses
        return self.deadline_hits / judged if judged else 1.0


class TieredOffloader:
    """Submit tasks across the tier hierarchy, first acceptable result wins."""

    def __init__(
        self,
        world: World,
        topology: TierTopology,
        health: Optional[TierHealthTracker] = None,
        name: str = "tiered",
    ) -> None:
        if not topology.tiers():
            raise ConfigurationError("topology has no registered tiers")
        self.world = world
        self.topology = topology
        self.health = health if health is not None else TierHealthTracker(world)
        self.name = name
        self.stats = TierStats(
            races=RaceLedger(
                SPECULATION_CANCELLED,
                on_won=self._resolve,
                on_lost=self._fail,
                on_settled=self._on_attempt_settled,
            )
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        task: Task,
        policy: str = "prefer_local",
        on_resolved: Optional[ResolveCallback] = None,
    ) -> SpeculativeTask:
        """Submit one task under ``policy``; returns its live spec.

        ``on_resolved`` is called exactly once, with ``(spec, reason)``,
        when the task resolves: ``reason`` is ``"completed"`` when some
        attempt won, else the typed failure reason of the last attempt
        standing (``"no_tier_available"`` when none launched).  It may be
        called before ``submit`` returns.
        """
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}, expected one of {POLICIES}"
            )
        now = self.world.now
        deadline_at = (
            now + task.deadline_s if task.deadline_s is not None else None
        )
        spec = SpeculativeTask(
            task=task, policy=policy, submitted_at=now, deadline_at=deadline_at,
            on_resolved=on_resolved,
        )
        spec.race = Race(self.stats.races, spec)
        self.stats.submitted += 1
        self.world.metrics.increment(f"tier/{self.name}/submitted")
        tracer = self.world.tracer
        if tracer is not None:
            spec.span = tracer.start_span(
                "tier.lifecycle",
                subsystem="tier",
                attrs={
                    "task_id": task.task_id,
                    "policy": policy,
                    "deadline_s": task.deadline_s,
                },
            )
        spec.race.launch(
            (tier, lambda tier=tier: self._launch(spec, tier)) for tier in self._plan(spec)
        )
        return spec

    # -- tier selection ------------------------------------------------------

    # A lone tier has nothing to be compared with, so neither pick
    # computes its estimate; both estimates are pure reads.

    def _best_local(self) -> Optional[ExecutionTier]:
        locals_ = self.topology.local_tiers()
        if not locals_:
            return None
        healthy = [tier for tier in locals_ if self.health.healthy(tier)]
        pool = healthy if healthy else locals_
        if len(pool) == 1:
            return pool[0]
        return min(pool, key=lambda t: t.queue_delay_estimate(self.world.now))

    def _best_remote(self, task: Task) -> Optional[ExecutionTier]:
        healthy = [
            tier
            for tier in self.topology.remote_tiers()
            if self.health.healthy(tier)
        ]
        if len(healthy) <= 1:
            return healthy[0] if healthy else None
        return min(
            healthy, key=lambda t: t.estimated_completion_s(task, self.world.now)
        )

    def _plan(self, spec: SpeculativeTask) -> List[ExecutionTier]:
        local = self._best_local()
        if spec.policy == "local_only":
            return [local] if local is not None else []
        remote = self._best_remote(spec.task)
        if spec.policy == "prefer_local" or spec.deadline_at is None:
            # Speculation without a deadline has no slack to protect;
            # degrade to prefer_local semantics.
            if local is not None and self.health.healthy(local):
                return [local]
            if remote is not None:
                self.stats.failovers += 1
                self.world.metrics.increment(f"tier/{self.name}/failovers")
                self._emit(
                    "tier_failover", severity="warning",
                    task_id=spec.task.task_id, to_tier=remote.name,
                )
                return [remote]
            return [local] if local is not None else []
        # speculate, with a deadline
        if local is None:
            return [remote] if remote is not None else []
        if remote is None:
            self._degrade(spec, BACKHAUL_DEGRADED)
            return [local]
        estimate = remote.estimated_completion_s(spec.task, self.world.now)
        if self.world.now + estimate > spec.deadline_at:
            self._degrade(spec, NO_REMOTE_SLACK)
            return [local]
        self.stats.speculated += 1
        self.world.metrics.increment(f"tier/{self.name}/speculated")
        return [local, remote]

    def _degrade(self, spec: SpeculativeTask, reason: str) -> None:
        """Ledger a speculate collapse to local-only execution."""
        spec.degraded = reason
        self.stats.degraded[reason] = self.stats.degraded.get(reason, 0) + 1
        self.world.metrics.increment(f"tier/{self.name}/degraded/{reason}")
        self._emit(
            "speculation_degraded",
            severity="warning",
            task_id=spec.task.task_id,
            reason=reason,
        )
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            tracer.add_event(spec.span, "degraded", reason=reason)

    # -- attempt lifecycle ---------------------------------------------------

    def _launch(self, spec: SpeculativeTask, tier: ExecutionTier) -> TierAttempt:
        span = None
        tracer = self.world.tracer
        if tracer is not None:
            span = tracer.start_span(
                "tier.attempt",
                subsystem="tier",
                parent=spec.span,
                attrs={"tier": tier.name, "level": tier.level},
            )
        self.health.note_dispatch(tier)
        self.world.metrics.increment(f"tier/{self.name}/attempts/{tier.name}")
        return tier.dispatch(spec.task, spec.deadline_at, spec.race.settle, span=span)

    def _on_attempt_settled(self, attempt: TierAttempt, outcome: str, reason: str) -> None:
        self.health.record_outcome(self.topology.tier(attempt.tier_name), reason)
        if outcome == WON:
            self._end_attempt_span(attempt, "ok", winner=True)
        elif outcome == LATE:
            self.world.metrics.increment(f"tier/{self.name}/attempts_late")
            self._end_attempt_span(attempt, "ok", late=True)
        elif outcome == CANCELLED:
            self.world.metrics.increment(f"tier/{self.name}/attempts_cancelled")
            self._end_attempt_span(attempt, "cancelled", reason=reason)
        else:
            self.world.metrics.increment(
                f"tier/{self.name}/attempt_failures/{reason}"
            )
            self._end_attempt_span(attempt, "error", reason=reason)

    def _resolve(self, spec: SpeculativeTask, winner: TierAttempt) -> None:
        """First acceptable result is in; the race already cancelled the losers."""
        now = self.world.now
        spec.resolved_at = now
        self.stats.completed += 1
        self.stats.latency_sum_s += now - spec.submitted_at
        self.stats.wins_by_tier[winner.tier_name] = (
            self.stats.wins_by_tier.get(winner.tier_name, 0) + 1
        )
        self.world.metrics.increment(f"tier/{self.name}/completed")
        self.world.metrics.increment(f"tier/{self.name}/wins/{winner.tier_name}")
        if spec.deadline_at is not None:
            if now <= spec.deadline_at + 1e-9:
                self.stats.deadline_hits += 1
                self.world.metrics.increment(f"tier/{self.name}/deadline_hits")
            else:
                self.stats.deadline_misses += 1
                self.world.metrics.increment(f"tier/{self.name}/deadline_misses")
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            if winner.span is not None:
                tracer.link(spec.span, winner.span)
            tracer.end_span(
                spec.span,
                status="ok",
                attrs={"winner": winner.tier_name, "latency_s": now - spec.submitted_at},
            )
        self._emit(
            "task_resolved",
            task_id=spec.task.task_id,
            winner=winner.tier_name,
            latency_s=round(now - spec.submitted_at, 6),
        )
        if spec.on_resolved is not None:
            spec.on_resolved(spec, "completed")

    def _fail(self, spec: SpeculativeTask, last_failure: Optional[str]) -> None:
        """Every attempt failed; the reason of the last one standing is the task's."""
        reason = last_failure if last_failure is not None else NO_TIER_AVAILABLE
        spec.resolved_at = self.world.now
        self.stats.failed += 1
        self.stats.failure_reasons[reason] = (
            self.stats.failure_reasons.get(reason, 0) + 1
        )
        self.world.metrics.increment(f"tier/{self.name}/task_failures/{reason}")
        if spec.deadline_at is not None:
            self.stats.deadline_misses += 1
            self.world.metrics.increment(f"tier/{self.name}/deadline_misses")
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            tracer.end_span(spec.span, status="error", attrs={"reason": reason})
        self._emit(
            "task_failed", severity="warning",
            task_id=spec.task.task_id, reason=reason,
        )
        if spec.on_resolved is not None:
            spec.on_resolved(spec, reason)

    def _end_attempt_span(
        self, attempt: TierAttempt, status: str, **attrs: object
    ) -> None:
        tracer = self.world.tracer
        if tracer is not None and attempt.span is not None:
            tracer.end_span(attempt.span, status=status, attrs=attrs)

    def _emit(self, event: str, severity: str = "info", **attrs: object) -> None:
        events = self.world.events
        if events is not None:
            events.emit("tier", event, severity=severity, offloader=self.name, **attrs)

    # -- conservation surface ------------------------------------------------

    def accounting(self) -> Dict[str, int]:
        """Task- and attempt-stream conservation counters.

        At any sim instant ``submitted == completed + failed + live``
        (``live`` counted from the races still undecided) and
        ``completed == attempts_won`` (exactly one winner per resolved
        task) must hold; ``TierConservation`` checks these next to the
        race ledger's own law.
        """
        s = self.stats
        return {
            "submitted": s.submitted,
            "completed": s.completed,
            "failed": s.failed,
            # An undecided race always holds a live attempt.
            "live": sum(1 for race in s.races.open if not race.decided),
            "attempts_submitted": s.attempts_submitted,
            "attempts_won": s.attempts_won,
            "attempts_cancelled": s.attempts_cancelled,
            "attempts_failed": s.attempts_failed,
            "attempts_late": s.attempts_late,
            "attempts_live": s.races.live(),
        }
