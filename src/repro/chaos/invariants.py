"""Cross-subsystem safety invariants, checked continuously during a run.

An :class:`Invariant` inspects live simulation state and reports
:class:`Violation` records; an :class:`InvariantSuite` runs a set of
them on a periodic engine event.  Checks follow the observability
determinism contract: they are strictly read-only — no RNG draws, no
engine mutations beyond the suite's own periodic event, writes only to
the metrics registry — so a seeded run behaves byte-identically with
checks on or off (modulo the sequence numbers the check events consume,
which never reorder other same-time events relative to each other).

The library covers the safety properties the paper's dependability
section (§V.A) asks of a vehicular cloud:

* :class:`TaskConservation` — no task completes twice or is silently
  lost (``submitted = completed + failed + in-flight``, ledger counters
  agree with record states);
* :class:`LeaseExclusivity` — at most one live execution per worker,
  every execution on a leased current member;
* :class:`SingleHead` — exactly one coordinator, and it is a member
  (or a configured external head such as an RSU);
* :class:`ClusterExclusivity` — no vehicle in two clusters, every head
  inside its own cluster;
* :class:`QuorumSafety` — no stale reads or lost updates, wrapping the
  existing :class:`~repro.faults.consistency.ConsistencyChecker`;
* :class:`MembershipAgreement` — resource pool, lease table and storage
  membership agree with the membership manager;
* :class:`ChannelConservation` — the channel's frame counters obey their
  conservation law and in-flight frames reconcile exactly against the
  engine queue;
* :class:`StrandedTasks` — a crash-frozen execution is recovered within
  a grace window instead of hanging forever;
* :class:`ServingConservation` — the serving gateway's request stream
  balances (``offered = admitted + rejected``;
  ``admitted = completed + failed + shed + queued + in-flight``), so
  load shedding and hedging never lose a request silently;
* :class:`DagConservation` — the DAG scheduler's graph stream balances
  (every submitted graph is completed, failed or running), extending
  task conservation to graphs;
* :class:`TierConservation` — the tiered offloader's task stream
  balances across tiers: every speculated task is completed, failed or
  still racing, with exactly one winner per completion, so cross-tier
  speculation over a lossy backhaul never double-completes or silently
  drops a task.

The last three share their attempt half: the hedges, stage replicas
and tier attempts all run in races (:mod:`repro.core.race`), and each
check audits its owner's race ledger the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set

from ..core.race import RaceLedger
from ..faults.consistency import ConsistencyChecker
from ..net.clustering.base import ClusterSet
from ..sim.metrics import MetricsRegistry
from ..sim.world import World


@dataclass(frozen=True)
class Violation:
    """One observed breach of a safety invariant."""

    invariant: str
    time: float
    message: str

    def describe(self) -> str:
        """Canonical one-line rendering."""
        return f"t={self.time:.3f} [{self.invariant}] {self.message}"


class Invariant(Protocol):
    """The invariant protocol: a name plus a read-only check."""

    name: str

    def check(self, now: float) -> List[Violation]:
        """Inspect live state; return violations observed at ``now``."""
        ...


class InvariantSuite:
    """Runs a set of invariants and accumulates their violations."""

    def __init__(
        self,
        invariants: Sequence[Invariant],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.invariants = list(invariants)
        self.metrics = metrics
        self.violations: List[Violation] = []
        self.checks_run = 0

    @property
    def first_violation(self) -> Optional[Violation]:
        """The earliest recorded violation, or None."""
        return self.violations[0] if self.violations else None

    def check_now(self, now: float) -> List[Violation]:
        """Run every invariant once; returns the fresh violations."""
        self.checks_run += 1
        fresh: List[Violation] = []
        for invariant in self.invariants:
            fresh.extend(invariant.check(now))
        for violation in fresh:
            if self.metrics is not None:
                self.metrics.increment("chaos/violations")
                self.metrics.increment(f"chaos/violations/{violation.invariant}")
        self.violations.extend(fresh)
        return fresh

    def attach(self, world: World, check_interval_s: float = 1.0):
        """Schedule periodic checks on the world's engine."""
        return world.engine.call_every(
            check_interval_s,
            lambda: self.check_now(world.now),
            label="chaos-invariant-check",
        )


def _violation(name: str, now: float, message: str) -> Violation:
    return Violation(invariant=name, time=now, message=message)


def _race_violations(name: str, now: float, ledger: RaceLedger) -> List[Violation]:
    """The attempt half every race owner's invariant shares."""
    return [_violation(name, now, message) for message in ledger.audit()]


class TaskConservation:
    """No task is double-counted or silently lost."""

    name = "task-conservation"

    def __init__(self, cloud) -> None:
        self.cloud = cloud

    def check(self, now: float) -> List[Violation]:
        acc = self.cloud.accounting()
        out: List[Violation] = []
        if acc["submitted"] != acc["records"]:
            out.append(_violation(
                self.name, now,
                f"submitted counter {acc['submitted']} != ledgered records {acc['records']}",
            ))
        if acc["completed"] != acc["records_completed"]:
            out.append(_violation(
                self.name, now,
                f"completed counter {acc['completed']} != completed records "
                f"{acc['records_completed']} (double completion or silent loss)",
            ))
        if acc["failed"] != acc["records_failed"]:
            out.append(_violation(
                self.name, now,
                f"failed counter {acc['failed']} != failed records {acc['records_failed']}",
            ))
        balance = acc["completed"] + acc["failed"] + acc["records_in_flight"]
        if acc["submitted"] != balance:
            out.append(_violation(
                self.name, now,
                f"submitted {acc['submitted']} != completed {acc['completed']} "
                f"+ failed {acc['failed']} + in-flight {acc['records_in_flight']}",
            ))
        return out


class LeaseExclusivity:
    """Every live execution sits alone on a leased, current member."""

    name = "lease-exclusivity"

    def __init__(self, cloud) -> None:
        self.cloud = cloud

    def check(self, now: float) -> List[Violation]:
        out: List[Violation] = []
        seen: Dict[str, str] = {}
        for task_id, worker, state in self.cloud.execution_view():
            if state not in ("assigned", "running"):
                out.append(_violation(
                    self.name, now,
                    f"execution of {task_id} in non-active state {state!r}",
                ))
            if not worker:
                out.append(_violation(
                    self.name, now, f"execution of {task_id} has no bound worker"
                ))
                continue
            if worker in seen:
                out.append(_violation(
                    self.name, now,
                    f"worker {worker} holds two live executions "
                    f"({seen[worker]} and {task_id})",
                ))
            seen[worker] = task_id
            if worker not in self.cloud.membership:
                out.append(_violation(
                    self.name, now,
                    f"execution of {task_id} on non-member worker {worker}",
                ))
            if self.cloud.leases is not None and worker not in self.cloud.leases:
                out.append(_violation(
                    self.name, now,
                    f"execution of {task_id} on unleased worker {worker}",
                ))
        return out


class SingleHead:
    """The cloud has exactly one coordinator, and it is legitimate."""

    name = "single-head"

    def __init__(self, cloud, external_heads: Sequence[str] = ()) -> None:
        self.cloud = cloud
        #: Heads that are valid without being members (e.g. an RSU id).
        self.external_heads = frozenset(external_heads)

    def check(self, now: float) -> List[Violation]:
        out: List[Violation] = []
        head = self.cloud.head_id
        members = set(self.cloud.membership.member_ids())
        if members and head is None:
            out.append(_violation(
                self.name, now,
                f"{len(members)} members but no coordinator elected",
            ))
        if head is not None and head not in members and head not in self.external_heads:
            out.append(_violation(
                self.name, now,
                f"coordinator {head} is neither a member nor a configured external head",
            ))
        return out


class ClusterExclusivity:
    """No vehicle belongs to two clusters; each head is in its cluster."""

    name = "cluster-exclusivity"

    def __init__(self, cluster_source: Callable[[], Optional[ClusterSet]]) -> None:
        self.cluster_source = cluster_source

    def check(self, now: float) -> List[Violation]:
        clusters = self.cluster_source()
        if clusters is None:
            return []
        out: List[Violation] = []
        owner: Dict[str, str] = {}
        for cluster in clusters.clusters:
            if cluster.head_id not in cluster.member_ids:
                out.append(_violation(
                    self.name, now,
                    f"head {cluster.head_id} is outside its own cluster",
                ))
            for member in cluster.member_ids:
                if member in owner and owner[member] != cluster.head_id:
                    out.append(_violation(
                        self.name, now,
                        f"vehicle {member} belongs to clusters of both "
                        f"{owner[member]} and {cluster.head_id}",
                    ))
                owner.setdefault(member, cluster.head_id)
        return out


class QuorumSafety:
    """No stale reads, no lost updates (wraps the consistency oracle).

    Detection is incremental: each check reports only anomalies the
    :class:`~repro.faults.consistency.ConsistencyChecker` found since
    the previous check, so a single stale read yields a single
    violation, timestamped near its occurrence.
    """

    name = "quorum-safety"

    def __init__(self, checker: ConsistencyChecker) -> None:
        self.checker = checker
        self._seen_stale = 0
        self._seen_lost = 0

    def check(self, now: float) -> List[Violation]:
        out: List[Violation] = []
        if self.checker.stale_reads > self._seen_stale:
            delta = self.checker.stale_reads - self._seen_stale
            self._seen_stale = self.checker.stale_reads
            out.append(_violation(
                self.name, now,
                f"{delta} stale read(s): a read returned a version older than "
                f"an acknowledged write ({self.checker.stale_reads} total)",
            ))
        if self.checker.lost_updates > self._seen_lost:
            delta = self.checker.lost_updates - self._seen_lost
            self._seen_lost = self.checker.lost_updates
            out.append(_violation(
                self.name, now,
                f"{delta} lost update(s): two acknowledged writes minted the "
                f"same version ({self.checker.lost_updates} total)",
            ))
        return out


class MembershipAgreement:
    """Pool, lease table and storage membership agree with the manager.

    All membership-derived tables are updated synchronously in the same
    callbacks, so at any instant between events they must match exactly;
    ``convergence_s`` relaxes the check for the window after the latest
    join/leave, for architectures with asynchronous propagation.
    """

    name = "membership-agreement"

    def __init__(self, cloud, convergence_s: float = 0.0) -> None:
        self.cloud = cloud
        self.convergence_s = convergence_s
        self._last_churn_seen = -1
        self._last_churn_at = 0.0

    def _converged(self, now: float) -> bool:
        churn = self.cloud.membership.joins + self.cloud.membership.leaves
        if churn != self._last_churn_seen:
            self._last_churn_seen = churn
            self._last_churn_at = now
        return now - self._last_churn_at >= self.convergence_s

    def check(self, now: float) -> List[Violation]:
        if not self._converged(now):
            return []
        members = sorted(self.cloud.membership.member_ids())
        out: List[Violation] = []
        pool = sorted(self.cloud.pool.member_ids())
        if pool != members:
            out.append(_violation(
                self.name, now,
                f"resource pool {pool} disagrees with membership {members}",
            ))
        if self.cloud.leases is not None:
            leased = self.cloud.leases.held()
            if leased != members:
                out.append(_violation(
                    self.name, now,
                    f"lease table {leased} disagrees with membership {members}",
                ))
        if self.cloud.storage is not None:
            stores = sorted(self.cloud.storage.member_ids())
            if stores != members:
                out.append(_violation(
                    self.name, now,
                    f"storage members {stores} disagree with membership {members}",
                ))
        return out


class ChannelConservation:
    """The channel's frame counters obey their conservation law.

    Exact equalities (integer-valued counters):

    * ``dispatched + duplicated == suppressed + lost + scheduled``;
    * ``in_flight = scheduled - delivered - to_departed >= 0``; and
    * ``in_flight`` equals the engine's live ``frame-delivery`` events.
    """

    name = "channel-conservation"

    def __init__(self, world: World) -> None:
        self.world = world

    def _count(self, name: str) -> int:
        return int(self.world.metrics.counter(f"channel/{name}"))

    def check(self, now: float) -> List[Violation]:
        out: List[Violation] = []
        dispatched = self._count("frames_dispatched")
        duplicated = self._count("frames_duplicated")
        suppressed = self._count("frames_suppressed")
        lost = self._count("frames_lost")
        scheduled = self._count("frames_scheduled")
        delivered = self._count("frames_delivered")
        to_departed = self._count("frames_to_departed")
        if dispatched + duplicated != suppressed + lost + scheduled:
            out.append(_violation(
                self.name, now,
                f"dispatched {dispatched} + duplicated {duplicated} != "
                f"suppressed {suppressed} + lost {lost} + scheduled {scheduled}",
            ))
        in_flight = scheduled - delivered - to_departed
        if in_flight < 0:
            out.append(_violation(
                self.name, now,
                f"negative in-flight count {in_flight} "
                f"(scheduled {scheduled}, delivered {delivered}, "
                f"departed {to_departed})",
            ))
        else:
            pending = self.world.engine.pending_labeled("frame-delivery")
            if in_flight != pending:
                out.append(_violation(
                    self.name, now,
                    f"counter in-flight {in_flight} != {pending} queued "
                    f"frame-delivery events",
                ))
        return out


class StrandedTasks:
    """A crash-frozen execution must be recovered within a grace window.

    A worker crash freezes its executions; lease-based liveness should
    evict the worker and route its tasks through handover within roughly
    ``lease_duration + sweep_interval`` seconds.  An execution still
    frozen past ``grace_s`` is a task silently lost to the submitter —
    the failure mode recovery-disabled configurations exhibit.  Each
    stranded task is reported once.
    """

    name = "stranded-tasks"

    def __init__(self, cloud, grace_s: float = 10.0) -> None:
        self.cloud = cloud
        self.grace_s = grace_s
        self._reported: Set[str] = set()

    def check(self, now: float) -> List[Violation]:
        out: List[Violation] = []
        for task_id, worker, crashed_at in self.cloud.crashed_executions():
            age = now - crashed_at
            if age > self.grace_s and task_id not in self._reported:
                self._reported.add(task_id)
                out.append(_violation(
                    self.name, now,
                    f"task {task_id} frozen on crashed worker {worker} for "
                    f"{age:.1f}s with no recovery (grace {self.grace_s:.1f}s)",
                ))
        return out


class ServingConservation:
    """No serving request leaks out of the gateway without a typed outcome.

    The serving-layer extension of :class:`TaskConservation`: at any
    instant ``offered = admitted + rejected`` and
    ``admitted = completed + failed + shed + queued + in-flight``.  A
    mismatch means a request was double-counted or dropped silently —
    exactly the bug class load shedding, hedging and small-task
    batching can introduce (a shed victim also dispatched, a hedge
    loser finalized twice, a batch member finalized with the wrong
    multiplicity).  In-flight counts *requests*, not cloud dispatches:
    a coalesced batch holds one cloud task but each member stays an
    admitted request until the batch reaches a terminal state.  The
    primaries and hedges racing for those requests obey the race
    ledger law.
    """

    name = "serving-conservation"

    def __init__(self, gateway) -> None:
        self.gateway = gateway

    def check(self, now: float) -> List[Violation]:
        acc = self.gateway.accounting()
        out: List[Violation] = []
        if acc["offered"] != acc["admitted"] + acc["rejected"]:
            out.append(_violation(
                self.name, now,
                f"offered {acc['offered']} != admitted {acc['admitted']} "
                f"+ rejected {acc['rejected']}",
            ))
        balance = (
            acc["completed"] + acc["failed"] + acc["shed"]
            + acc["queued"] + acc["inflight"]
        )
        if acc["admitted"] != balance:
            out.append(_violation(
                self.name, now,
                f"admitted {acc['admitted']} != completed {acc['completed']} "
                f"+ failed {acc['failed']} + shed {acc['shed']} "
                f"+ queued {acc['queued']} + in-flight {acc['inflight']}",
            ))
        out.extend(_race_violations(self.name, now, self.gateway.stats.races))
        return out


class DagConservation:
    """No graph or stage replica leaks out of the DAG scheduler.

    The subtask extension of :class:`TaskConservation`: at any instant
    every submitted graph is completed, failed or running (counters
    agreeing with record states), and the stage replica races obey the
    race ledger law — so k-of-n replication, first-result-wins
    cancellation, whole-graph restarts and lost-frontier re-execution
    cannot silently drop or double-count a unit of work.
    """

    name = "dag-conservation"

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def check(self, now: float) -> List[Violation]:
        acc = self.scheduler.accounting()
        out: List[Violation] = []
        if acc["graphs_submitted"] != acc["graph_records"]:
            out.append(_violation(
                self.name, now,
                f"submitted counter {acc['graphs_submitted']} != ledgered "
                f"graph records {acc['graph_records']}",
            ))
        if acc["graphs_completed"] != acc["records_completed"]:
            out.append(_violation(
                self.name, now,
                f"completed counter {acc['graphs_completed']} != completed "
                f"records {acc['records_completed']} (double completion or "
                f"silent loss)",
            ))
        if acc["graphs_failed"] != acc["records_failed"]:
            out.append(_violation(
                self.name, now,
                f"failed counter {acc['graphs_failed']} != failed records "
                f"{acc['records_failed']}",
            ))
        graph_balance = (
            acc["graphs_completed"] + acc["graphs_failed"] + acc["records_running"]
        )
        if acc["graphs_submitted"] != graph_balance:
            out.append(_violation(
                self.name, now,
                f"graphs submitted {acc['graphs_submitted']} != completed "
                f"{acc['graphs_completed']} + failed {acc['graphs_failed']} "
                f"+ running {acc['records_running']}",
            ))
        out.extend(_race_violations(self.name, now, self.scheduler.stats.races))
        return out

class TierConservation:
    """No task or speculative replica leaks out of the tiered offloader.

    The cross-tier extension of :class:`TaskConservation`: at any
    instant ``submitted = completed + failed + live`` at the task level,
    with ``live`` the races still undecided, ``completed == attempts
    won`` (exactly one winner per resolved task), and the attempt races
    obey the race ledger law.  A mismatch means first-result-wins
    across a lossy backhaul double-counted a result or dropped a replica
    silently.
    """

    name = "tier-conservation"

    def __init__(self, offloader) -> None:
        self.offloader = offloader

    def check(self, now: float) -> List[Violation]:
        acc = self.offloader.accounting()
        out: List[Violation] = []
        if acc["submitted"] != acc["completed"] + acc["failed"] + acc["live"]:
            out.append(_violation(
                self.name, now,
                f"tasks submitted {acc['submitted']} != completed "
                f"{acc['completed']} + failed {acc['failed']} + live {acc['live']}",
            ))
        if acc["completed"] != acc["attempts_won"]:
            out.append(_violation(
                self.name, now,
                f"completed tasks {acc['completed']} != winning attempts "
                f"{acc['attempts_won']} (a task must have exactly one winner)",
            ))
        out.extend(_race_violations(self.name, now, self.offloader.stats.races))
        return out
