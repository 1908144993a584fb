"""The serving gateway: admission, queueing, dispatch, hedging.

:class:`ServiceGateway` sits between open-loop clients and a
:class:`~repro.core.vcloud.VehicularCloud` and is where overload
protection lives:

* every arrival passes the configured admission policy (typed
  rejections — nothing is turned away silently);
* admitted requests wait in a :class:`BoundedPriorityQueue` and are
  *paced* into the cloud one per free worker slot, so the cloud's
  retry loop never becomes an unbounded hidden queue;
* shedding policies revisit the queue as conditions change;
* per-worker circuit breakers and hedge anti-affinity constrain
  placement through a gate on the cloud: once per assignment pass it
  returns the ids of the pass's view the task may not use (the hedge's
  banned workers and the breakers' barred ids), so the cloud builds no
  candidate for them;
* laggard primaries get a deadline-aware hedge replica on a different
  worker; primary and hedge race in a :class:`~repro.core.race.Race` —
  first result wins, the loser is cancelled through the cloud's
  typed-failure ledger (``hedge_cancelled``);
* with ``tiering=`` set, admitted requests route through a
  :class:`~repro.tier.offloader.TieredOffloader` instead of straight
  into the cloud: deadline-carrying requests speculate across the local
  v-cloud and the remote tier (first acceptable result wins), the rest
  prefer local with remote failover.  Tiering owns cross-tier replicas,
  so it is mutually exclusive with hedging and batching.

The *unprotected* configuration (:meth:`ServiceGateway.unprotected`)
admits everything and dispatches immediately — the congestion-collapse
baseline that experiment E16 contrasts with the protected stack.

Accounting is conservation-checked (see :meth:`accounting`): at any
instant ``offered == admitted + rejected`` and
``admitted == completed + failed + shed + queued + in-flight``; the
chaos invariant ``ServingConservation`` asserts exactly this, and the
race ledger's law over primaries and hedges, while fault campaigns run.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Sequence

from ..core.capacity import BacklogEstimator
from ..core.race import CANCELLED, FAILED, Race, RaceLedger, ledger_count
from ..core.tasks import Task, TaskRecord
from ..core.vcloud import VehicularCloud
from ..dag.graph import TaskGraph
from ..dag.scheduler import DagScheduler, GraphRecord
from ..errors import ConfigurationError
from ..sim.engine import EventHandle, PeriodicTask
from ..sim.metrics import percentile
from ..sim.world import World
from .admission import AdmissionPolicy, AdmitAll, SheddingPolicy
from .batching import BatchingPolicy
from .breaker import CircuitBreakerBoard
from .hedging import HedgePolicy, LatencyQuantileTracker
from .queueing import BoundedPriorityQueue
from .request import ServiceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tier imports serve)
    from ..tier.offloader import SpeculativeTask, TieredOffloader


@dataclass
class ServeStats:
    """Aggregate serving outcomes, conservation-checked.

    ``offered = admitted + rejected`` always;
    ``admitted = completed + failed + shed + queued + in-flight``.
    Latencies are end-to-end from *arrival* (queue wait included), which
    is what the client experiences and what the SLO is judged against.
    """

    #: Every dispatch's primary/hedge race.
    races: RaceLedger
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    slo_hits: int = 0
    slo_misses: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    #: Coalesced dispatches (>= 2 members) and the requests they carried.
    batches_dispatched: int = 0
    batched_requests: int = 0
    #: DAG jobs offered through the gateway's attached DagScheduler;
    #: conservation over graphs lives in DagConservation, not here.
    graphs_offered: int = 0
    graphs_completed: int = 0
    graphs_failed: int = 0
    rejection_reasons: Dict[str, int] = field(default_factory=dict)
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    tenant_latencies_s: Dict[str, List[float]] = field(default_factory=dict)

    #: Race losers retired as ``hedge_cancelled``, primaries or hedges.
    hedges_cancelled = ledger_count("cancelled")

    @property
    def slo_miss_rate(self) -> float:
        """Misses over all admitted requests that reached a terminal state.

        Rejected requests are *not* SLO misses (the client was told no
        immediately); failed and shed admitted requests are.
        """
        terminal = self.completed + self.failed + self.shed
        if terminal == 0:
            return 0.0
        return (self.slo_misses + self.failed + self.shed) / terminal

    def p99_latency_s(self) -> float:
        """99th percentile end-to-end latency (0 when empty)."""
        if not self.latencies_s:
            return 0.0
        return percentile(sorted(self.latencies_s), 0.99)


@dataclass
class _Dispatch:
    """One in-flight dispatch: primary cloud task plus optional hedge.

    Usually carries exactly one request; a coalesced small-task batch
    carries several (``members``), all completing or failing with the
    one cloud task while keeping per-member latency/SLO accounting.
    ``request`` is the anchor (first member) either way.  A tiered
    dispatch has no race of its own (``race`` is None) — the offloader
    owns the cross-tier replicas and reports back once.
    """

    request: ServiceRequest
    task_id: str
    members: List[ServiceRequest]
    hedge_check: Optional[EventHandle] = None
    #: The primary (first handle) and any hedge, first result wins.
    race: Optional[Race] = None


class ServiceGateway:
    """Admission-controlled, load-shedding front door of one cloud."""

    def __init__(
        self,
        world: World,
        cloud: VehicularCloud,
        name: str = "gateway",
        queue_capacity: Optional[int] = 64,
        admission: Optional[AdmissionPolicy] = None,
        shedders: Sequence[SheddingPolicy] = (),
        breakers: Optional[CircuitBreakerBoard] = None,
        hedging: Optional[HedgePolicy] = None,
        paced: bool = True,
        max_dispatch_concurrency: Optional[int] = None,
        tick_interval_s: float = 0.25,
        propagate_deadline: bool = True,
        dag: Optional[DagScheduler] = None,
        batching: Optional[BatchingPolicy] = None,
        backlog: Optional[BacklogEstimator] = None,
        tiering: Optional["TieredOffloader"] = None,
    ) -> None:
        if tick_interval_s <= 0:
            raise ConfigurationError("tick_interval_s must be positive")
        if backlog is not None and backlog.cloud is not cloud:
            raise ConfigurationError(
                "the backlog estimator must observe the gateway's cloud"
            )
        if tiering is not None:
            if hedging is not None:
                raise ConfigurationError(
                    "tiering and hedging are mutually exclusive: cross-tier "
                    "speculation already races replicas"
                )
            if batching is not None:
                raise ConfigurationError(
                    "tiering and batching are mutually exclusive: the "
                    "offloader dispatches tasks individually"
                )
            locals_ = [
                tier for tier in tiering.topology.local_tiers() if tier.cloud is cloud
            ]
            if not locals_:
                raise ConfigurationError(
                    "the tiered offloader's local tier must execute on the "
                    "gateway's cloud"
                )
        self.world = world
        self.cloud = cloud
        self.name = name
        self.queue = BoundedPriorityQueue(queue_capacity)
        self.admission: AdmissionPolicy = admission if admission is not None else AdmitAll()
        self.shedders = list(shedders)
        self.breakers = breakers
        self.hedging = hedging
        self.paced = paced
        self.max_dispatch_concurrency = max_dispatch_concurrency
        self.tick_interval_s = tick_interval_s
        self.propagate_deadline = propagate_deadline
        self.batching = batching
        self.backlog = backlog
        self.tiering = tiering
        if backlog is not None:
            # The admission queue is backlog only this gateway knows
            # about; registering it lets the DAG redundancy planner see
            # the load the serving path is creating (and vice versa).
            backlog.add_backlog_source(lambda: self.queue.queued_work_mi)
        self.stats = ServeStats(
            races=RaceLedger(
                "hedge_cancelled",
                on_won=self._finalize_success,
                on_lost=self._finalize_failure,
                on_settled=self._on_attempt_settled,
            )
        )
        self.latency_tracker = LatencyQuantileTracker()
        self._inflight: Dict[str, _Dispatch] = {}  # primary task_id -> dispatch
        self._anti_affinity: Dict[str, set] = {}  # live hedge task_id -> banned workers
        self._tenant_inflight: Dict[str, int] = {}
        self._tick_task: Optional[PeriodicTask] = None
        self.dag = dag
        if dag is not None and dag.cloud is not cloud:
            raise ConfigurationError(
                "the DAG scheduler must execute on the gateway's cloud"
            )
        if breakers is not None or hedging is not None:
            cloud.gates.append(self._gate)
        if breakers is not None:
            cloud.on_lease_eviction(lambda worker_id: breakers.trip(worker_id, "lease_expiry"))
        if self.shedders or self.paced:
            self._tick_task = world.engine.call_every(
                tick_interval_s, self._tick, label=f"serve/{name}/tick"
            )

    # -- canned configurations ----------------------------------------------

    @staticmethod
    def unprotected(world: World, cloud: VehicularCloud, name: str = "gateway") -> "ServiceGateway":
        """Admit everything, dispatch immediately — the collapse baseline.

        Deadlines are *not* propagated to the cloud: deadline awareness
        is a protected-stack feature, so the baseline burns capacity on
        work that is already stale — the congestion-collapse mechanism.
        """
        return ServiceGateway(
            world, cloud, name=name, queue_capacity=None,
            admission=AdmitAll(), paced=False, propagate_deadline=False,
        )

    # -- capacity estimation -------------------------------------------------

    def worker_ids(self) -> List[str]:
        """Pool members eligible for work (the head does not self-assign)."""
        return list(self.cloud.worker_view().ids)

    def dispatch_slots(self) -> int:
        """Concurrent dispatches the gateway will keep in flight."""
        if self.max_dispatch_concurrency is not None:
            return self.max_dispatch_concurrency
        return max(1, len(self.cloud.worker_view().ids))

    def total_slots(self) -> Optional[int]:
        """Queue capacity plus dispatch slots (fair-share denominator).

        ``None`` when the queue is unbounded: total capacity is then
        effectively infinite, and the old behavior of counting the
        queue as 0 slots understated capacity for every consumer
        (fair-share admission would throttle tenants against a
        denominator missing the entire queue).
        """
        if self.queue.capacity is None:
            return None
        return self.queue.capacity + self.dispatch_slots()

    def aggregate_capacity_mips(self) -> float:
        """Offered compute across eligible workers."""
        return self.cloud.worker_view().capacity_mips

    def estimated_runtime_s(self, work_mi: float) -> float:
        """Expected runtime of one task on a typical worker."""
        return self.cloud.worker_view().runtime_s(work_mi)

    def estimated_queue_delay_s(self) -> float:
        """Standing delay implied by the queued work backlog."""
        capacity = self.aggregate_capacity_mips()
        if capacity <= 0:
            return float("inf") if len(self.queue) else 0.0
        return self.queue.queued_work_mi / capacity

    def tenant_outstanding(self, tenant: str) -> int:
        """Queued plus in-flight requests held by one tenant."""
        return self.queue.tenant_depth(tenant) + self._tenant_inflight.get(tenant, 0)

    # -- arrival path --------------------------------------------------------

    def submit(self, request: ServiceRequest) -> bool:
        """Offer one request; returns True when admitted."""
        request.arrived_at = self.world.now
        self.stats.offered += 1
        self.world.metrics.increment(f"serve/{self.name}/offered")
        reason = self.admission.review(request, self)
        if reason is None and self.paced and self.queue.full:
            reason = self._displace_for(request)
        if reason is not None:
            self._reject(request, reason)
            return False
        self.stats.admitted += 1
        self.world.metrics.increment(f"serve/{self.name}/admitted")
        if not self.paced:
            self._dispatch(request)
            return True
        self.queue.push(request)
        self._pump()
        self._update_gauges()
        return True

    def submit_graph(self, graph: TaskGraph, tenant: str = "") -> GraphRecord:
        """Offer one DAG job to the attached dependable scheduler.

        DAG jobs bypass the scalar request queue — the
        :class:`~repro.dag.scheduler.DagScheduler` owns their pacing,
        redundancy and recovery — but their outcomes are accounted on
        the gateway (``graphs_offered/completed/failed``) so a serving
        stack's dashboard sees both streams.
        """
        if self.dag is None:
            raise ConfigurationError(
                "gateway has no DAG scheduler attached (pass dag= at construction)"
            )
        self.stats.graphs_offered += 1
        self.world.metrics.increment(f"serve/{self.name}/graphs_offered")
        return self.dag.submit(graph, on_finish=functools.partial(self._on_graph_finish, tenant))

    def _on_graph_finish(self, tenant: str, record: GraphRecord, reason: str) -> None:
        if reason == "completed":
            self.stats.graphs_completed += 1
            self.world.metrics.increment(f"serve/{self.name}/graphs_completed")
            return
        self.stats.graphs_failed += 1
        self.world.metrics.increment(f"serve/{self.name}/graphs_failed/{reason}")
        events = self.world.events
        if events is not None:
            events.emit(
                "serve", "graph_failed", severity="warning",
                gateway=self.name, graph=record.graph.graph_id,
                tenant=tenant, reason=reason,
            )

    def _displace_for(self, request: ServiceRequest) -> Optional[str]:
        """Full queue: shed a strictly less urgent victim or reject."""
        victim = None
        for queued in self.queue.items():
            victim = queued  # items() is urgency-ordered; last is the tail
        if victim is not None and victim.priority > request.priority:
            evicted = self.queue.evict_tail()
            if evicted is not None:
                self._account_shed(evicted, "displaced")
                return None
        return "queue_full"

    def _reject(self, request: ServiceRequest, reason: str) -> None:
        self.stats.rejected += 1
        self.stats.rejection_reasons[reason] = (
            self.stats.rejection_reasons.get(reason, 0) + 1
        )
        self.world.metrics.increment(f"serve/{self.name}/rejected/{reason}")
        events = self.world.events
        if events is not None:
            events.emit(
                "serve", "request_rejected", severity="info",
                gateway=self.name, request=request.request_id,
                tenant=request.tenant, reason=reason,
            )

    # -- shedding ------------------------------------------------------------

    def shed_queued(self, request: ServiceRequest, reason: str) -> bool:
        """Shed one specific queued request with a typed reason."""
        if not self.queue.remove(request):
            return False
        self._account_shed(request, reason)
        return True

    def shed_tail(self, reason: str) -> bool:
        """Shed the least urgent, newest queued request."""
        victim = self.queue.evict_tail()
        if victim is None:
            return False
        self._account_shed(victim, reason)
        return True

    def _account_shed(self, request: ServiceRequest, reason: str) -> None:
        self.stats.shed += 1
        self.stats.shed_reasons[reason] = self.stats.shed_reasons.get(reason, 0) + 1
        self.world.metrics.increment(f"serve/{self.name}/shed/{reason}")
        events = self.world.events
        if events is not None:
            events.emit(
                "serve", "request_shed", severity="warning",
                gateway=self.name, request=request.request_id,
                tenant=request.tenant, reason=reason,
                waited_s=self.world.now - request.arrived_at,
            )

    # -- dispatch ------------------------------------------------------------

    def _gate(self, task: Task, worker_ids: Sequence[str]) -> Collection[str]:
        """Hedge anti-affinity and the breakers, once per assignment pass.

        ``worker_ids`` is the pass's view, which on a federation split
        belongs to the split's cloud, since a split copies its parent's
        gates.  Returns the task's banned workers plus the ids
        :meth:`CircuitBreakerBoard.ask` bars after asking the breakers
        of the view but the banned workers.  A barred id of the view
        that is not banned is OPEN and still cooling, or HALF_OPEN with
        a probe in flight, both of which
        :meth:`CircuitBreakerBoard.allows` refuses without a state
        change, so no breaker is asked twice.
        """
        banned = self._anti_affinity.get(task.task_id)
        breakers = self.breakers
        if breakers is None:
            return banned or ()
        barred = breakers.ask(worker_ids, banned)
        if banned:
            barred.update(banned)
        return barred

    def _pump(self) -> None:
        while len(self.queue) > 0 and len(self._inflight) < self.dispatch_slots():
            request = self.queue.pop()
            if request is None:
                break
            deadline = request.deadline_s
            if deadline is not None:
                remaining = request.arrived_at + deadline - self.world.now
                if remaining <= 0:
                    self._account_shed(request, "deadline_lapsed")
                    continue
            members = self._collect_batch(request)
            self._dispatch(request, members=members)

    def _collect_batch(self, anchor: ServiceRequest) -> List[ServiceRequest]:
        """Pull compatible small queued requests into the anchor's dispatch.

        Members come out of the queue in urgency order; requests whose
        deadline already lapsed are skipped (the pump's shed path owns
        them).  Returns the full member list, anchor first.
        """
        members = [anchor]
        if self.batching is None or not self.batching.eligible(anchor):
            return members
        policy = self.batching
        budget_mi = policy.max_batch_work_mi - anchor.task.work_mi
        joiners: List[ServiceRequest] = []
        for queued in self.queue.items():
            if len(members) + len(joiners) >= policy.max_batch_size:
                break
            if not policy.compatible(anchor, queued):
                continue
            if queued.task.work_mi > budget_mi:
                continue
            deadline = queued.deadline_s
            if deadline is not None and (
                queued.arrived_at + deadline - self.world.now <= 0
            ):
                continue
            joiners.append(queued)
            budget_mi -= queued.task.work_mi
        for joiner in joiners:
            if self.queue.remove(joiner):
                members.append(joiner)
        return members

    def _batch_task(self, members: List[ServiceRequest]) -> Task:
        """Combine batch members into one cloud task.

        Work and bytes sum; the deadline is the *tightest remaining*
        member budget (a batch must finish before its most urgent
        member lapses); sensors/submitter come from the anchor, which
        compatibility made identical across members.
        """
        anchor = members[0]
        remaining: Optional[float] = None
        if self.propagate_deadline:
            budgets = [
                m.arrived_at + m.deadline_s - self.world.now
                for m in members
                if m.deadline_s is not None
            ]
            if budgets:
                remaining = max(min(budgets), 1e-6)
        return Task(
            work_mi=sum(m.task.work_mi for m in members),
            input_bytes=sum(m.task.input_bytes for m in members),
            output_bytes=sum(m.task.output_bytes for m in members),
            deadline_s=remaining,
            required_sensors=anchor.task.required_sensors,
            submitter=anchor.tenant,
        )

    def _dispatch(
        self, request: ServiceRequest, members: Optional[List[ServiceRequest]] = None
    ) -> None:
        members = members if members else [request]
        if len(members) > 1:
            task = self._batch_task(members)
            self.stats.batches_dispatched += 1
            self.stats.batched_requests += len(members)
            self.world.metrics.increment(f"serve/{self.name}/batches_dispatched")
            events = self.world.events
            if events is not None:
                events.emit(
                    "serve", "batch_dispatched", severity="info",
                    gateway=self.name, tenant=request.tenant,
                    members=len(members), work_mi=task.work_mi,
                )
        else:
            task = request.task
            deadline = request.deadline_s
            if not self.propagate_deadline:
                if deadline is not None:
                    task = dataclasses.replace(task, deadline_s=None)
            elif deadline is not None:
                # The cloud enforces deadlines from *its* submission time;
                # hand it the remaining budget so queue wait still counts.
                remaining = max(request.arrived_at + deadline - self.world.now, 1e-6)
                task = dataclasses.replace(task, deadline_s=remaining)
        # Registered before submission: a dispatch may end inside it
        # (e.g. no tier at all), and its cleanup must find it in flight.
        dispatch = _Dispatch(request=request, task_id=task.task_id, members=members)
        self._inflight[task.task_id] = dispatch
        for member in members:
            self._tenant_inflight[member.tenant] = (
                self._tenant_inflight.get(member.tenant, 0) + 1
            )
        if self.tiering is not None:
            # Deadline-carrying requests speculate (local + remote
            # replicas, first acceptable result wins); the rest prefer
            # local execution with failover.
            policy = "speculate" if task.deadline_s is not None else "prefer_local"
            self.world.metrics.increment(f"serve/{self.name}/tiered/{policy}")
            on_resolved = functools.partial(self._on_tier_resolved, dispatch)
            self.tiering.submit(task, policy=policy, on_resolved=on_resolved)
            self._update_gauges()
            return
        dispatch.race = Race(self.stats.races, dispatch)
        primary = self._launch(dispatch.race, task)
        if self.breakers is not None and primary.worker_id is not None:
            self.breakers.note_dispatch(primary.worker_id)
        if self.hedging is not None and len(members) == 1:
            # Batches are never hedged: a hedge doubles the batch's full
            # work, exactly the load amplification batching exists to
            # avoid, and per-member accounting would double-count.
            delay = self.hedging.trigger_delay_s(
                self.latency_tracker, self.estimated_runtime_s(task.work_mi)
            )
            dispatch.hedge_check = self.world.engine.schedule(
                delay,
                lambda tid=task.task_id: self._maybe_hedge(tid),
                label="serve-hedge-check",
            )
        self._update_gauges()

    def _launch(self, race: Race, task: Task) -> TaskRecord:
        """Submit one primary or hedge attempt to the cloud."""
        race.launch([(self.cloud, lambda: self.cloud.submit(task, on_finish=race.settle))])
        return race.handles[-1]

    def _on_tier_resolved(self, dispatch: _Dispatch, spec: "SpeculativeTask", reason: str) -> None:
        if reason == "completed":
            # A datacenter win has no v-cloud worker for the breakers to credit.
            record = spec.race.winner.record
            self._finalize_success(dispatch, record if isinstance(record, TaskRecord) else None)
        else:
            self._finalize_failure(dispatch, reason)

    # -- hedging -------------------------------------------------------------

    def _maybe_hedge(self, primary_id: str) -> None:
        dispatch = self._inflight.get(primary_id)
        if dispatch is None or dispatch.race is None or self.hedging is None:
            return  # finalized meanwhile
        request = dispatch.request
        deadline = request.deadline_s
        remaining = (
            None
            if deadline is None
            else request.arrived_at + deadline - self.world.now
        )
        expected = self.estimated_runtime_s(request.task.work_mi)
        if not self.hedging.may_hedge(
            inflight_hedges=len(self._anti_affinity),
            queue_depth=len(self.queue),
            remaining_deadline_s=remaining,
            expected_runtime_s=expected,
        ):
            return
        primary_worker = dispatch.race.handles[0].worker_id
        if primary_worker is None or len(self.cloud.worker_view().ids) < 2:
            return
        hedge_task = request.task.replica(
            max(remaining, 1e-6) if remaining is not None else None
        )
        # Anti-affinity: the hedge must land on a *different* worker.
        self._anti_affinity[hedge_task.task_id] = {primary_worker}
        self._launch(dispatch.race, hedge_task)
        self.stats.hedges_launched += 1
        self.world.metrics.increment(f"serve/{self.name}/hedges_launched")
        events = self.world.events
        if events is not None:
            events.emit(
                "serve", "hedge_launched", severity="info",
                gateway=self.name, request=request.request_id,
                primary_worker=primary_worker, hedge_task=hedge_task.task_id,
            )

    # -- terminal outcomes ---------------------------------------------------

    def _on_attempt_settled(self, record: TaskRecord, outcome: str, reason: str) -> None:
        self._anti_affinity.pop(record.task.task_id, None)
        if outcome == CANCELLED:
            self.world.metrics.increment(f"serve/{self.name}/hedges_cancelled")
        elif (
            outcome == FAILED
            and reason == "retries_exhausted"
            and self.breakers is not None
            and record.worker_id is not None
        ):
            self.breakers.record_outcome(record.worker_id, ok=False)

    def _finalize_success(self, dispatch: _Dispatch, winner: Optional[TaskRecord]) -> None:
        """The request's first result is in; a racing loser was already cancelled."""
        # Every batch member completes with the shared cloud task, but
        # latency and SLO are judged per member against its own arrival.
        for member in dispatch.members:
            latency = self.world.now - member.arrived_at
            self.stats.completed += 1
            self.stats.latencies_s.append(latency)
            self.stats.tenant_latencies_s.setdefault(member.tenant, []).append(latency)
            self.latency_tracker.observe(latency)
            self.world.metrics.increment(f"serve/{self.name}/completed")
            self.world.metrics.observe(f"serve/{self.name}/latency_s", latency)
            self.world.metrics.observe(
                f"serve/{self.name}/latency_s/{member.tenant}", latency
            )
            deadline = member.deadline_s
            if deadline is None or latency <= deadline:
                self.stats.slo_hits += 1
            else:
                self.stats.slo_misses += 1
                self.world.metrics.increment(f"serve/{self.name}/slo_miss")
        if dispatch.race is not None and winner is not dispatch.race.handles[0]:
            self.stats.hedges_won += 1
            self.world.metrics.increment(f"serve/{self.name}/hedges_won")
        if (
            self.breakers is not None
            and winner is not None
            and winner.worker_id is not None
        ):
            self.breakers.record_outcome(winner.worker_id, ok=True)
        self._cleanup(dispatch)

    def _finalize_failure(self, dispatch: _Dispatch, reason: Optional[str]) -> None:
        events = self.world.events
        # A batch fails as a unit, but every member gets its own typed
        # failure so the conservation ledger never loses a request.
        for member in dispatch.members:
            self.stats.failed += 1
            self.world.metrics.increment(f"serve/{self.name}/failed/{reason}")
            if events is not None:
                events.emit(
                    "serve", "request_failed", severity="warning",
                    gateway=self.name, request=member.request_id,
                    tenant=member.tenant, reason=reason,
                )
        self._cleanup(dispatch)

    def _cleanup(self, dispatch: _Dispatch) -> None:
        self._inflight.pop(dispatch.task_id, None)
        for member in dispatch.members:
            left = self._tenant_inflight.get(member.tenant, 0) - 1
            if left <= 0:
                self._tenant_inflight.pop(member.tenant, None)
            else:
                self._tenant_inflight[member.tenant] = left
        if dispatch.hedge_check is not None:
            dispatch.hedge_check.cancel()
        if self.paced:
            self._pump()
        self._update_gauges()

    # -- periodic maintenance ------------------------------------------------

    def _tick(self) -> None:
        for shedder in self.shedders:
            shedder.shed(self)
        if self.paced:
            self._pump()
        self._update_gauges()

    def _update_gauges(self) -> None:
        metrics = self.world.metrics
        metrics.set_gauge(f"serve/{self.name}/queue_depth", float(len(self.queue)))
        metrics.set_gauge(f"serve/{self.name}/inflight", float(len(self._inflight)))

    def stop(self) -> None:
        """Stop the maintenance tick (end of experiment)."""
        if self._tick_task is not None:
            self._tick_task.stop()
            self._tick_task = None

    # -- introspection -------------------------------------------------------

    def accounting(self) -> Dict[str, int]:
        """Request-stream conservation counters, surfaced for invariants.

        At any sim instant ``offered == admitted + rejected`` and
        ``admitted == completed + failed + shed + queued + inflight``
        must hold; a mismatch means a request leaked out of the serving
        path without a typed outcome.  ``inflight`` counts *requests*,
        not dispatches — a coalesced batch holds one cloud task but
        every member is still an admitted request awaiting its outcome.
        """
        return {
            "offered": self.stats.offered,
            "admitted": self.stats.admitted,
            "rejected": self.stats.rejected,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "shed": self.stats.shed,
            "queued": len(self.queue),
            "inflight": sum(len(d.members) for d in self._inflight.values()),
        }
