"""The vehicular cloud orchestrator.

Ties membership, resource pooling, allocation, execution and handover
together on the simulation engine.  The three architecture variants of
Fig. 4 are this class configured with different coordination adapters
and dwell models (see ``repro.core.architectures``).

Execution model: assignment transfers the task input to the worker,
execution takes ``remaining_work / worker_mips`` virtual seconds, and
completion returns the output.  When a worker departs mid-task the
configured :class:`~repro.core.handover.HandoverPolicy` decides whether
its progress survives.  When an auth protocol is configured, admission
requires a successful mutual handshake with the coordinator and its
latency is charged to the join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from ..errors import QuorumUnreachableError, ResourceError
from ..faults.recovery import BackoffPolicy, WorkerLeases
from ..mobility.vehicle import Vehicle
from ..sim.engine import EventHandle, PeriodicTask
from ..sim.world import World
from .handover import CheckpointHandoverPolicy, HandoverPolicy
from .membership import MembershipManager
from .replication import (
    FileStore,
    QuorumConfig,
    ReadResult,
    ReplicationManager,
    StoredFile,
    WriteResult,
)
from .resources import Reservation, ResourceOffer, ResourcePool
from .scheduler import (
    Allocator,
    GreedyResourceAllocator,
    candidates_from_pool,
)
from .tasks import Task, TaskRecord, TaskState

if TYPE_CHECKING:
    from ..obs import Span

#: A placement policy: ``(task, worker_ids) -> ids the task may not use``.
AssignmentGate = Callable[[Task, Sequence[str]], Collection[str]]


class CoordinationAdapter:
    """How assignments and results move between coordinator and workers."""

    name = "v2v"
    #: Infrastructure messages per (assignment, result) pair.
    infra_messages_per_task = 0

    def available(self) -> bool:
        """Whether coordination is currently possible."""
        return True

    def coordination_latency_s(self, payload_bytes: int) -> float:
        """One-way coordinator<->worker latency for a payload."""
        return 0.004 + payload_bytes / 750_000.0

    def latency_for(
        self, head_id: Optional[str], worker_id: Optional[str], payload_bytes: int
    ) -> float:
        """Pair-aware latency; the default ignores the endpoints."""
        return self.coordination_latency_s(payload_bytes)


class V2VCoordination(CoordinationAdapter):
    """Pure vehicle-to-vehicle coordination (dynamic v-cloud)."""

    name = "v2v"
    infra_messages_per_task = 0


class GeometryCoordination(V2VCoordination):
    """V2V coordination priced by the live radio geometry.

    Transfer latency between the captain and a worker uses the channel's
    latency model at their *actual* distance and the captain's current
    contention level, so a worker at the zone edge really is slower to
    feed than one driving alongside — and a DoS flood near the captain
    slows every assignment.
    """

    name = "v2v-geometry"

    def __init__(self, channel) -> None:
        self.channel = channel

    def latency_for(
        self, head_id: Optional[str], worker_id: Optional[str], payload_bytes: int
    ) -> float:
        if (
            head_id is None
            or worker_id is None
            or not self.channel.is_attached(head_id)
            or not self.channel.is_attached(worker_id)
        ):
            return self.coordination_latency_s(payload_bytes)
        head = self.channel.node(head_id)
        worker = self.channel.node(worker_id)
        distance = head.position.distance_to(worker.position)
        contention = self.channel.neighbor_count(head_id)
        return self.channel.latency(distance, payload_bytes, contention)


class RsuCoordination(CoordinationAdapter):
    """Coordination relayed through a road-side unit.

    Each task costs infrastructure messages, pays the wired-backhaul
    delay, and fails outright while the RSU is damaged/offline — the
    availability cliff of infrastructure-based v-clouds.
    """

    name = "rsu"
    infra_messages_per_task = 4  # assign up/down + result up/down

    def __init__(self, rsu) -> None:
        self.rsu = rsu

    def available(self) -> bool:
        return self.rsu.online and not self.rsu.damaged

    def coordination_latency_s(self, payload_bytes: int) -> float:
        return (
            0.004
            + payload_bytes / 750_000.0
            + self.rsu.backhaul_delay_s
        )


@dataclass
class CloudStats:
    """Aggregate outcomes of one cloud's task stream."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Terminal failures broken down by typed reason (deadline,
    #: retries_exhausted, cancelled, hedge_cancelled, ...).
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    handovers: int = 0
    drops: int = 0
    infra_messages: int = 0
    auth_failures: int = 0
    wasted_work_mi: float = 0.0
    completion_latencies_s: List[float] = field(default_factory=list)
    deadline_hits: int = 0
    deadline_misses: int = 0
    worker_crashes: int = 0
    worker_stalls: int = 0
    worker_reboots: int = 0
    lease_evictions: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    storage_degraded: int = 0

    @property
    def completion_rate(self) -> float:
        """Completed over submitted (0 when nothing submitted)."""
        if self.submitted == 0:
            return 0.0
        return self.completed / self.submitted

    @property
    def mean_latency_s(self) -> float:
        """Mean completion latency (0 when nothing completed)."""
        if not self.completion_latencies_s:
            return 0.0
        return sum(self.completion_latencies_s) / len(self.completion_latencies_s)

    @property
    def deadline_hit_rate(self) -> float:
        """Deadline hits over deadline-carrying completions."""
        total = self.deadline_hits + self.deadline_misses
        if total == 0:
            return 0.0
        return self.deadline_hits / total


@dataclass(frozen=True)
class WorkerView:
    """The members eligible for work and their summed nameplate compute.

    ``ids`` keep pool order.  The coordinator does not assign work to
    itself while any other member exists, but a cloud reduced to its
    head still makes progress, so a lone head stays eligible.  A head
    id that is not a pool member (an RSU coordinator) excludes nobody.
    This is the one place that rule lives: the gateway, the backlog
    estimator, the local tier and every candidate scan read this view.
    """

    ids: Tuple[str, ...]
    capacity_mips: float
    #: The pool version and head this view was computed for.
    pool_version: int
    head_id: Optional[str]

    @staticmethod
    def of(pool: ResourcePool, head_id: Optional[str]) -> "WorkerView":
        """Compute the view of ``pool`` under ``head_id``."""
        workers = pool.member_ids()
        if head_id is not None and len(workers) > 1:
            workers = [m for m in workers if m != head_id]
        return WorkerView(
            ids=tuple(workers),
            capacity_mips=sum(pool.offer_of(worker).compute_mips for worker in workers),
            pool_version=pool.version,
            head_id=head_id,
        )

    def runtime_s(self, work_mi: float) -> float:
        """Runtime of ``work_mi`` on a mean worker (inf with no capacity)."""
        if not self.ids or self.capacity_mips <= 0:
            return float("inf")
        return work_mi / (self.capacity_mips / len(self.ids))


@dataclass
class _Execution:
    record: TaskRecord
    reservation: Reservation
    started_at: float
    runtime_s: float
    completion_handle: EventHandle
    crashed_at: Optional[float] = None
    span: Optional["Span"] = None


class VehicularCloud:
    """One vehicular cloud: members, pooled resources, task stream."""

    RETRY_INTERVAL_S = 1.0

    def __init__(
        self,
        world: World,
        cloud_id: str,
        allocator: Optional[Allocator] = None,
        handover_policy: Optional[HandoverPolicy] = None,
        coordination: Optional[CoordinationAdapter] = None,
        auth_protocol=None,
        dwell_lookup: Optional[Callable[[str], float]] = None,
        head_id: Optional[str] = None,
        max_members: int = 64,
        max_assignment_retries: int = 120,
        retry_backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        # Retries model queueing while workers are busy or coordination is
        # down; deadline-carrying tasks fail via their deadline first, so
        # the retry budget is a backstop for deadline-free tasks.
        # ``retry_backoff`` spaces the retries; None is the fixed
        # RETRY_INTERVAL_S timer.  ``max_assignment_retries`` bounds them,
        # whatever the policy's own ``max_retries``.
        self.world = world
        self.cloud_id = cloud_id
        self.allocator = allocator if allocator is not None else GreedyResourceAllocator()
        self.handover_policy = (
            handover_policy if handover_policy is not None else CheckpointHandoverPolicy()
        )
        self.coordination = coordination if coordination is not None else V2VCoordination()
        self.auth_protocol = auth_protocol
        self.dwell_lookup = dwell_lookup if dwell_lookup is not None else (lambda _vid: 1e9)
        self.head_id = head_id
        self.max_assignment_retries = max_assignment_retries
        self.membership = MembershipManager(cloud_id, max_members)
        self.pool = ResourcePool()
        # Matches no pool version, so the first read computes the view.
        self._worker_view = WorkerView((), 0.0, -1, None)
        self.stats = CloudStats()
        self.records: List[TaskRecord] = []
        self._executions: Dict[str, _Execution] = {}  # task_id -> execution
        self._retries: Dict[str, int] = {}
        self.retry_backoff = (
            retry_backoff
            if retry_backoff is not None
            else BackoffPolicy.fixed(self.RETRY_INTERVAL_S, max_assignment_retries)
        )
        self._retry_rng = world.rng.fork(f"{cloud_id}/retry")
        self.leases: Optional[WorkerLeases] = None
        self._lease_task: Optional[PeriodicTask] = None
        self._crashed: set = set()
        self.storage: Optional[ReplicationManager] = None
        self._storage_capacity_bytes = 0
        #: task_id -> root span of the task's causal trace (traced runs).
        self._task_spans: Dict[str, "Span"] = {}
        self._lease_eviction_listeners: List[Callable[[str], None]] = []
        #: Placement policies (breakers, anti-affinity).  Every assignment
        #: pass calls each once with its worker view's ids, whether or not
        #: a worker is free, and builds no candidate for an id any returns.
        self.gates: List[AssignmentGate] = []
        self.membership.on_leave(self._on_member_left)

    # -- lifecycle hooks -----------------------------------------------------------

    def on_lease_eviction(self, listener: Callable[[str], None]) -> None:
        """Register a listener fired when a worker's lease lapses.

        Fires before the eviction drives the member-departure path, so
        listeners (e.g. circuit breakers) see the worker id while its
        executions are still attributable to it.
        """
        self._lease_eviction_listeners.append(listener)

    def _fail_record(
        self, record: TaskRecord, reason: str, link_faults: bool = True
    ) -> None:
        """Terminally fail a task with a typed, ledgered reason.

        Every failure path funnels through here so no task can fail
        silently: the reason lands in ``stats.failure_reasons``, the
        metrics registry (``<cloud>/task_failures/<reason>``), the
        structured event log, the task's trace span, and the callback
        given at submit.
        """
        record.fail()
        self.stats.failed += 1
        self.stats.failure_reasons[reason] = self.stats.failure_reasons.get(reason, 0) + 1
        self.world.metrics.increment(f"{self.cloud_id}/task_failures/{reason}")
        self._end_task_span(record, "failed", link_faults=link_faults, reason=reason)
        self._emit(
            "task_failed", severity="warning",
            task_id=record.task.task_id, reason=reason,
        )
        self._report(record, reason)

    @staticmethod
    def _report(record: TaskRecord, reason: str) -> None:
        """Hand a terminal outcome to the submitter's callback, then drop it.

        ``records`` keeps every record for the cloud's lifetime, and a
        kept callback would keep the submitter's race alive with it.
        """
        on_finish, record.on_finish = record.on_finish, None
        if on_finish is not None:
            on_finish(record, reason)

    # -- observability hooks -------------------------------------------------------

    def _emit(self, name: str, severity: str = "info", **attrs: Any) -> None:
        """Emit a structured event for this cloud (no-op when untelemetered)."""
        events = self.world.events
        if events is not None:
            events.emit("vcloud", name, severity=severity, cloud=self.cloud_id, **attrs)

    def task_span(self, task_id: str) -> Optional["Span"]:
        """The root span of a task's trace, when the run is traced."""
        return self._task_spans.get(task_id)

    def _end_task_span(
        self, record: TaskRecord, status: str, link_faults: bool = False, **attrs: Any
    ) -> None:
        tracer = self.world.tracer
        span = self._task_spans.pop(record.task.task_id, None)
        if tracer is None or span is None:
            return
        if link_faults:
            tracer.link_active_faults(span)
        tracer.end_span(span, status, attrs)

    # -- membership ------------------------------------------------------------

    def admit(
        self,
        vehicle: Vehicle,
        offer: Optional[ResourceOffer] = None,
        lend_fraction: float = 0.8,
    ) -> bool:
        """Admit a vehicle as a member.

        With an auth protocol configured, the vehicle must mutually
        authenticate with the coordinator first; a failed handshake is a
        rejected join.  Returns True when admitted.  The offer is
        resolved first, so one that raises :class:`ResourceError` leaves
        membership, leases and pool untouched.
        """
        vehicle_id = vehicle.vehicle_id
        resolved_offer = (
            offer
            if offer is not None
            else ResourceOffer.from_equipment(vehicle_id, vehicle.equipment, lend_fraction)
        )
        if self.auth_protocol is not None and self.head_id is not None:
            if vehicle_id != self.head_id:
                result = self.auth_protocol.mutual_authenticate(
                    vehicle_id,
                    self.head_id,
                    self.world.now,
                    infra_available=self.coordination.available(),
                )
                self.world.metrics.observe(
                    f"{self.cloud_id}/auth_latency_s", result.latency_s
                )
                self.stats.infra_messages += result.infra_messages
                if not result.success:
                    self.stats.auth_failures += 1
                    return False
        self.membership.join(vehicle_id, self.world.now, vehicle.position)
        self._crashed.discard(vehicle_id)
        if self.leases is not None:
            self.leases.grant(vehicle_id, self.world.now)
        self.pool.add_offer(resolved_offer)
        if self.storage is not None and vehicle_id not in self.storage.member_ids():
            self.storage.add_store(FileStore(vehicle_id, self._storage_capacity_bytes))
        if self.head_id is None:
            self.head_id = vehicle_id
        return True

    def member_leave(self, vehicle_id: str) -> None:
        """Explicitly remove a member (drives the on-leave path)."""
        self.membership.leave(vehicle_id)

    def _on_member_left(self, vehicle_id: str) -> None:
        self.pool.remove_member(vehicle_id)
        if self.leases is not None:
            self.leases.revoke(vehicle_id)
        if self.storage is not None:
            self.storage.remove_store(vehicle_id)
        if vehicle_id == self.head_id:
            remaining = self.membership.member_ids()
            self.head_id = remaining[0] if remaining else None
        # Tasks running on the departed worker go through handover.
        affected = [
            execution
            for execution in self._executions.values()
            if execution.record.worker_id == vehicle_id
        ]
        for execution in affected:
            self._handle_worker_departure(execution)

    # -- task lifecycle ------------------------------------------------------------

    def submit(
        self,
        task: Task,
        trace_parent: Optional["Span"] = None,
        on_finish: Optional[Callable[[TaskRecord, str], None]] = None,
    ) -> TaskRecord:
        """Submit a task for execution in this cloud.

        ``on_finish`` is called exactly once, with ``(record, reason)``,
        when the task ends: ``reason`` is ``"completed"`` or the typed
        failure reason (``"deadline"``, ``"retries_exhausted"``,
        ``"cancelled"``, ...).  It may be called before ``submit``
        returns, when the task fails inside it.

        On a traced run the submission roots a new causal trace; every
        assignment, retry, handover and fault the task meets hangs off
        this span, so ``tracer.render_trace`` replays its whole journey.
        ``trace_parent`` nests the lifecycle under a caller-owned span
        instead (the DAG scheduler parents each replica's lifecycle
        under its ``dag.stage`` span).
        """
        record = TaskRecord(task=task, submitted_at=self.world.now, on_finish=on_finish)
        self.records.append(record)
        self.stats.submitted += 1
        tracer = self.world.tracer
        if tracer is not None:
            self._task_spans[task.task_id] = tracer.start_span(
                "task.lifecycle",
                subsystem="core",
                parent=trace_parent,
                attrs={
                    "task_id": task.task_id,
                    "cloud": self.cloud_id,
                    "work_mi": task.work_mi,
                    "deadline_s": task.deadline_s,
                },
            )
        self._emit("task_submitted", task_id=task.task_id)
        self._try_assign(record)
        return record

    def _deadline_at(self, record: TaskRecord) -> Optional[float]:
        if record.task.deadline_s is None:
            return None
        return record.submitted_at + record.task.deadline_s

    def _try_assign(self, record: TaskRecord) -> None:
        if record.state in (TaskState.COMPLETED, TaskState.FAILED):
            return
        deadline = self._deadline_at(record)
        if deadline is not None and self.world.now > deadline:
            self._fail_record(record, "deadline")
            return
        if not self.coordination.available():
            self._schedule_retry(record, reason="coordination unavailable")
            return
        task = record.task
        worker_ids = self.worker_view().ids
        excluded: set = set()
        for gate in self.gates:
            excluded.update(gate(task, worker_ids))
        candidates = candidates_from_pool(
            self.pool, task, self.dwell_lookup, worker_ids, excluded
        )
        choice = self.allocator.choose(task, candidates)
        if choice is None:
            self._schedule_retry(record, reason="no eligible worker")
            return
        try:
            reservation = self.pool.reserve(choice.vehicle_id, self.pool.free_mips(choice.vehicle_id))
        except ResourceError:
            self._schedule_retry(record, reason="reservation race")
            return
        record.assign(choice.vehicle_id, self.world.now)
        self.stats.infra_messages += self.coordination.infra_messages_per_task // 2
        transfer = self.coordination.latency_for(
            self.head_id, choice.vehicle_id, record.task.input_bytes
        )
        runtime = record.remaining_work_mi / reservation.mips
        start_at = self.world.now + transfer
        finish_at = start_at + runtime
        # Start before completion: a handover can leave so little work
        # that ``finish_at == start_at``, and of two events at one instant
        # the one scheduled first runs first.
        self.world.engine.schedule_at(
            start_at, lambda: self._start_if_assigned(record), label="task-start"
        )
        handle = self.world.engine.schedule_at(
            finish_at, lambda: self._complete(record.task.task_id), label="task-complete"
        )
        exec_span: Optional["Span"] = None
        tracer = self.world.tracer
        if tracer is not None:
            exec_span = tracer.start_span(
                "task.execute",
                subsystem="core",
                parent=self._task_spans.get(record.task.task_id),
                attrs={
                    "worker": choice.vehicle_id,
                    "transfer_s": transfer,
                    "runtime_s": runtime,
                },
            )
        self._executions[record.task.task_id] = _Execution(
            record=record,
            reservation=reservation,
            started_at=start_at,
            runtime_s=runtime,
            completion_handle=handle,
            span=exec_span,
        )

    def _start_if_assigned(self, record: TaskRecord) -> None:
        if record.state is TaskState.ASSIGNED:
            record.start()

    def _schedule_retry(self, record: TaskRecord, reason: str) -> None:
        retries = self._retries.get(record.task.task_id, 0)
        tracer = self.world.tracer
        if tracer is not None:
            span = self._task_spans.get(record.task.task_id)
            if span is not None:
                tracer.add_event(span, "assignment_retry", reason=reason, attempt=retries + 1)
        if retries >= self.max_assignment_retries:
            self._fail_record(record, "retries_exhausted")
            return
        self._retries[record.task.task_id] = retries + 1
        self.world.engine.schedule(
            self.retry_backoff.delay_for(retries, self._retry_rng),
            lambda: self._try_assign(record),
            label="task-retry",
        )

    def _complete(self, task_id: str) -> None:
        execution = self._executions.pop(task_id, None)
        if execution is None:
            return
        record = execution.record
        if record.state is not TaskState.RUNNING:
            # Raced with a departure that already handled this task.
            return
        self.pool.release(execution.reservation)
        # Output travels back to the coordinator before completion counts.
        return_latency = self.coordination.latency_for(
            self.head_id, record.worker_id, record.task.output_bytes
        )
        self.stats.infra_messages += self.coordination.infra_messages_per_task - (
            self.coordination.infra_messages_per_task // 2
        )

        tracer = self.world.tracer
        if tracer is not None and execution.span is not None:
            tracer.end_span(execution.span, "ok")

        def _finish() -> None:
            record.complete(self.world.now)
            self.stats.completed += 1
            latency = record.completion_latency_s
            if latency is not None:
                self.stats.completion_latencies_s.append(latency)
            met = record.met_deadline()
            if met is True:
                self.stats.deadline_hits += 1
            elif met is False:
                self.stats.deadline_misses += 1
            self._end_task_span(
                record, "ok", latency_s=latency, met_deadline=met
            )
            self._emit(
                "task_completed", task_id=record.task.task_id, latency_s=latency
            )
            self._report(record, "completed")

        self.world.engine.schedule(return_latency, _finish, label="task-result")

    def cancel(self, record: TaskRecord, reason: str = "cancelled") -> bool:
        """Cancel a submitted task before it finishes.

        Works on queued (pending/retrying) and executing tasks; returns
        False when the task is already terminal or its result frame is
        in flight back to the coordinator (too late to cancel).  The
        cancellation is a terminal failure with the given typed reason,
        so it lands in the failure ledger like any other failure —
        hedged offload uses this to retire the losing replica as
        ``hedge_cancelled`` rather than dropping it silently.
        """
        if record.state in (TaskState.COMPLETED, TaskState.FAILED):
            return False
        execution = self._executions.pop(record.task.task_id, None)
        if execution is None and record.state is TaskState.RUNNING:
            # Completion already fired; the output is travelling back.
            return False
        if execution is not None:
            execution.completion_handle.cancel()
            self.pool.release(execution.reservation)
            tracer = self.world.tracer
            if tracer is not None and execution.span is not None:
                tracer.end_span(execution.span, "cancelled", {"reason": reason})
        self._fail_record(record, reason, link_faults=False)
        return True

    def _handle_worker_departure(self, execution: _Execution) -> None:
        record = execution.record
        execution.completion_handle.cancel()
        self._executions.pop(record.task.task_id, None)
        self.pool.release(execution.reservation)
        # Progress achieved so far on this worker; a crashed worker
        # stopped making progress at the crash instant, not at detection.
        if record.state is TaskState.RUNNING:
            worked_until = (
                execution.crashed_at if execution.crashed_at is not None else self.world.now
            )
            elapsed = max(0.0, worked_until - execution.started_at)
            fraction_of_run = min(1.0, elapsed / execution.runtime_s) if execution.runtime_s > 0 else 1.0
            new_progress = record.progress + (1.0 - record.progress) * fraction_of_run
            record.checkpoint(min(1.0, new_progress))
        outcome = self.handover_policy.on_worker_departed(record, self.world.now)
        handed_over = record.state is TaskState.HANDED_OVER
        if handed_over:
            self.stats.handovers += 1
        else:
            self.stats.drops += 1
            self.stats.wasted_work_mi += record.task.work_mi * outcome.preserved_progress
        self.stats.wasted_work_mi += record.wasted_work_mi
        record.wasted_work_mi = 0.0
        tracer = self.world.tracer
        if tracer is not None and execution.span is not None:
            # The fault (crash, partition…) that felled the worker is
            # still an open window — link it so the trace answers
            # "which fault interrupted this execution".
            tracer.link_active_faults(execution.span)
            tracer.end_span(
                execution.span,
                "handover" if handed_over else "dropped",
                {
                    "preserved_progress": outcome.preserved_progress,
                    "requeue": outcome.requeue,
                },
            )
        self._emit(
            "task_handover" if handed_over else "task_dropped",
            severity="info" if handed_over else "warning",
            task_id=record.task.task_id,
            worker=record.worker_id,
        )
        if not outcome.requeue:
            self._end_task_span(record, "dropped", link_faults=True, reason="no_requeue")
        if outcome.requeue:
            delay = max(outcome.overhead_s, 1e-6)
            self.world.engine.schedule(
                delay, lambda: self._try_assign(record), label="task-requeue"
            )

    # -- process faults ------------------------------------------------------------

    def mark_worker_crashed(self, vehicle_id: str) -> int:
        """Crash-stop a worker: it silently stops computing.

        No departure event fires — the coordinator only learns of the
        crash when the worker's lease lapses (see
        :meth:`enable_worker_leases`).  Executions on the worker stop
        making progress and will never complete on their own.  Returns
        the number of executions frozen.
        """
        self._crashed.add(vehicle_id)
        tracer = self.world.tracer
        frozen = 0
        for execution in self._executions.values():
            if (
                execution.record.worker_id == vehicle_id
                and execution.crashed_at is None
            ):
                execution.crashed_at = self.world.now
                execution.completion_handle.cancel()
                frozen += 1
                if tracer is not None and execution.span is not None:
                    tracer.add_event(execution.span, "worker_crashed", worker=vehicle_id)
                    tracer.link_active_faults(execution.span)
        if self.storage is not None:
            self.storage.set_offline(vehicle_id)
        self.stats.worker_crashes += 1
        self.world.metrics.increment(f"{self.cloud_id}/worker_crashes")
        self._emit(
            "worker_crashed", severity="warning", worker=vehicle_id, frozen_tasks=frozen
        )
        return frozen

    def stall_worker(self, vehicle_id: str, duration_s: float) -> int:
        """Stall a worker (slow node): completions shift by ``duration_s``.

        Returns the number of executions postponed.
        """
        stalled = 0
        for execution in self._executions.values():
            record = execution.record
            if record.worker_id != vehicle_id or execution.crashed_at is not None:
                continue
            old = execution.completion_handle
            if old.cancelled:
                continue
            old.cancel()
            task_id = record.task.task_id
            execution.completion_handle = self.world.engine.schedule_at(
                max(old.time + duration_s, self.world.now),
                lambda tid=task_id: self._complete(tid),
                label="task-complete",
            )
            execution.runtime_s += duration_s
            stalled += 1
            tracer = self.world.tracer
            if tracer is not None and execution.span is not None:
                tracer.add_event(
                    execution.span, "worker_stalled",
                    worker=vehicle_id, extra_s=duration_s,
                )
        self.stats.worker_stalls += 1
        self.world.metrics.increment(f"{self.cloud_id}/worker_stalls")
        self._emit(
            "worker_stalled", severity="warning",
            worker=vehicle_id, duration_s=duration_s, stalled_tasks=stalled,
        )
        return stalled

    def reboot_worker(self, vehicle_id: str, downtime_s: float) -> int:
        """Reboot a worker with state loss: its in-flight work restarts.

        Tasks running there lose all progress (memory state is gone) and
        requeue into the allocator after ``downtime_s``.  The worker
        stays a member — a reboot is not a departure.  Returns the number
        of executions lost.
        """
        affected = [
            execution
            for execution in self._executions.values()
            if execution.record.worker_id == vehicle_id
        ]
        tracer = self.world.tracer
        for execution in affected:
            record = execution.record
            execution.completion_handle.cancel()
            self._executions.pop(record.task.task_id, None)
            self.pool.release(execution.reservation)
            if tracer is not None and execution.span is not None:
                tracer.link_active_faults(execution.span)
                tracer.end_span(
                    execution.span, "dropped", {"reason": "worker_reboot"}
                )
            if record.state in (TaskState.ASSIGNED, TaskState.RUNNING):
                record.drop()
                self.stats.drops += 1
                self.stats.wasted_work_mi += record.wasted_work_mi
                record.wasted_work_mi = 0.0
                self.world.engine.schedule(
                    max(downtime_s, 1e-6),
                    lambda r=record: self._try_assign(r),
                    label="task-requeue",
                )
        if self.storage is not None:
            self.storage.set_offline(vehicle_id)
            self.world.engine.schedule(
                max(downtime_s, 1e-6),
                lambda v=vehicle_id: self._storage_revive(v),
                label="storage-revive",
            )
        self.stats.worker_reboots += 1
        self.world.metrics.increment(f"{self.cloud_id}/worker_reboots")
        self._emit(
            "worker_rebooted", severity="warning",
            worker=vehicle_id, downtime_s=downtime_s, lost_tasks=len(affected),
        )
        return len(affected)

    # -- replicated storage --------------------------------------------------------

    def enable_replicated_storage(
        self,
        capacity_bytes: int = 512_000_000,
        quorum: Optional[QuorumConfig] = None,
        anti_entropy_period_s: Optional[float] = None,
        anti_entropy_backoff: Optional[BackoffPolicy] = None,
        hinted_handoff: bool = True,
    ) -> ReplicationManager:
        """Turn on quorum-replicated member storage (§III.A).

        Every current and future member contributes ``capacity_bytes``
        of storage; crashes take a member's replicas offline until the
        lease sweep evicts it (or a reboot revives it), departures
        trigger re-replication onto survivors.  With
        ``anti_entropy_period_s`` set, a periodic digest sweep repairs
        divergent replicas, retrying offline holders with
        ``anti_entropy_backoff``.
        """
        self._storage_capacity_bytes = capacity_bytes
        self.storage = ReplicationManager(
            rng=self.world.rng.fork(f"{self.cloud_id}/storage"),
            repair=True,
            quorum=quorum,
            clock=lambda: self.world.now,
            hinted_handoff=hinted_handoff,
            metrics=self.world.metrics,
            metric_prefix=f"{self.cloud_id}/storage",
        )
        for member_id in self.membership.member_ids():
            self.storage.add_store(FileStore(member_id, capacity_bytes))
        if anti_entropy_period_s is not None:
            self.storage.start_anti_entropy(
                self.world.engine,
                anti_entropy_period_s,
                backoff=anti_entropy_backoff,
                label=f"{self.cloud_id}/anti-entropy",
            )
        return self.storage

    def _storage_revive(self, vehicle_id: str) -> None:
        if (
            self.storage is not None
            and vehicle_id in self.membership
            and vehicle_id not in self._crashed
        ):
            self.storage.set_online(vehicle_id)

    def _storage_span(self, operation: str, file_id: str) -> Optional["Span"]:
        tracer = self.world.tracer
        if tracer is None:
            return None
        return tracer.start_span(
            f"storage.{operation}",
            subsystem="core",
            attrs={"cloud": self.cloud_id, "file_id": file_id},
        )

    def _storage_degraded(self, span: Optional["Span"], operation: str, file_id: str) -> None:
        """Ledger a quorum rejection: link the fault that caused it."""
        self.stats.storage_degraded += 1
        tracer = self.world.tracer
        if tracer is not None and span is not None:
            # The partition/crash window responsible is still open at
            # rejection time; linking it here is what lets an E12-style
            # post-mortem walk a stale/failed read back to its fault.
            tracer.link_active_faults(span)
            tracer.end_span(span, "degraded", {"reason": "quorum_unreachable"})
        self._emit(
            "storage_degraded", severity="error", operation=operation, file_id=file_id
        )

    def store_put(
        self, file_id: str, size_bytes: int, target_replicas: int = 3
    ) -> int:
        """Place a new shared file; returns the replica count achieved."""
        if self.storage is None:
            raise ResourceError("replicated storage not enabled")
        span = self._storage_span("put", file_id)
        replicas = self.storage.store_file(
            StoredFile(file_id=file_id, size_bytes=size_bytes, target_replicas=target_replicas)
        )
        tracer = self.world.tracer
        if tracer is not None and span is not None:
            tracer.end_span(
                span, "ok", {"replicas": replicas, "target": target_replicas}
            )
        return replicas

    def store_write(
        self, file_id: str, writer: str, origin: Optional[str] = None
    ) -> Optional[WriteResult]:
        """Quorum-write a shared file; degrades to None when unreachable.

        A write that cannot assemble its quorum (partition, mass crash,
        coordination loss) is *rejected*, not half-applied: the caller
        sees None, ``stats.storage_degraded`` counts the rejection, and
        no replica state changes — the degradation contract that keeps
        the store consistent while the cloud is impaired.  On traced
        runs the rejection span links to the active fault window, so
        the trace answers *which* partition or crash caused it.
        """
        if self.storage is None:
            raise ResourceError("replicated storage not enabled")
        span = self._storage_span("write", file_id)
        try:
            result = self.storage.write(file_id, writer, origin=origin)
        except QuorumUnreachableError:
            self._storage_degraded(span, "write", file_id)
            return None
        self.stats.storage_writes += 1
        tracer = self.world.tracer
        if tracer is not None and span is not None:
            tracer.end_span(
                span,
                "ok",
                {
                    "version": result.stamp.counter,
                    "replicas_updated": result.replicas_updated,
                    "hinted": result.hinted,
                },
            )
        return result

    def store_read(
        self, file_id: str, origin: Optional[str] = None
    ) -> Optional[ReadResult]:
        """Quorum-read a shared file; degrades to None when unreachable."""
        if self.storage is None:
            raise ResourceError("replicated storage not enabled")
        span = self._storage_span("read", file_id)
        try:
            result = self.storage.read_file(file_id, origin=origin)
        except QuorumUnreachableError:
            self._storage_degraded(span, "read", file_id)
            return None
        self.stats.storage_reads += 1
        tracer = self.world.tracer
        if tracer is not None and span is not None:
            tracer.end_span(
                span,
                "ok",
                {
                    "holder": result.holder,
                    "version": result.stamp.counter,
                    "contacted": len(result.contacted),
                    "repaired": result.repaired,
                },
            )
        return result

    # -- lease-based liveness ------------------------------------------------------

    def enable_worker_leases(
        self, lease_duration_s: float = 5.0, sweep_interval_s: float = 1.0
    ) -> WorkerLeases:
        """Turn on lease-based worker liveness.

        Members renew automatically each sweep while alive; a crashed
        worker stops renewing, its lease lapses, and its tasks flow into
        the configured :class:`~repro.core.handover.HandoverPolicy` via
        the normal member-departure path.  Detection latency is bounded
        by ``lease_duration_s``.
        """
        self.leases = WorkerLeases(lease_duration_s)
        now = self.world.now
        for member_id in self.membership.member_ids():
            self.leases.grant(member_id, now)
        if self._lease_task is None:
            self._lease_task = self.world.engine.call_every(
                sweep_interval_s, self._lease_sweep, label=f"{self.cloud_id}/lease-sweep"
            )
        return self.leases

    def disable_worker_leases(self) -> None:
        """Stop the liveness sweep and drop all leases."""
        if self._lease_task is not None:
            self._lease_task.stop()
            self._lease_task = None
        self.leases = None

    def heartbeat(self, vehicle_id: str) -> None:
        """Explicitly renew one member's lease (external liveness signal)."""
        if self.leases is not None and vehicle_id in self.membership:
            self.leases.renew(vehicle_id, self.world.now)

    def _lease_sweep(self) -> None:
        if self.leases is None:
            return
        now = self.world.now
        for member_id in self.membership.member_ids():
            if member_id not in self._crashed:
                self.leases.renew(member_id, now)
        for member_id in self.leases.expired(now):
            self.leases.revoke(member_id)
            if member_id in self.membership:
                self.stats.lease_evictions += 1
                self.world.metrics.increment(f"{self.cloud_id}/lease_evictions")
                self._emit("lease_evicted", severity="warning", worker=member_id)
                for listener in self._lease_eviction_listeners:
                    listener(member_id)
                self.member_leave(member_id)

    # -- introspection -------------------------------------------------------------

    def member_count(self) -> int:
        """Current member count."""
        return len(self.membership)

    def worker_view(self) -> WorkerView:
        """The eligible workers and their capacity, cached.

        Recomputed only when the pool's membership or the head changes,
        whoever made the write; reservations leave it alone, since it
        holds nameplate capacity and candidates read free compute live.
        """
        view = self._worker_view
        if view.pool_version != self.pool.version or view.head_id != self.head_id:
            view = self._worker_view = WorkerView.of(self.pool, self.head_id)
        return view

    def busy_workers(self) -> List[str]:
        """Workers currently holding a live execution (deduplicated).

        Lease exclusivity keeps this at most one execution per worker,
        so the result is bounded by the member count.
        """
        return sorted(
            {
                execution.record.worker_id
                for execution in self._executions.values()
                if execution.record.worker_id is not None
            }
        )

    def inflight_remaining_s(self, now: float) -> float:
        """Total residual busy time of live executions, in seconds.

        A crash-frozen execution stopped making progress but still
        occupies its worker until lease eviction, so it counts at its
        full scheduled residual — pessimistic, which is the right bias
        for a load signal feeding admission and redundancy decisions.
        """
        return sum(
            max(0.0, execution.started_at + execution.runtime_s - now)
            for execution in self._executions.values()
        )

    def accounting(self) -> Dict[str, int]:
        """Task-stream conservation counters, surfaced for invariants.

        ``stats`` counters and record states are updated atomically in
        the same callbacks, so at any sim instant
        ``submitted == records`` and
        ``submitted == completed + failed + in_flight`` must hold; a
        mismatch means a task was double-counted or silently lost.
        Every call recounts every record from its state, so the record
        counts stay independent of ``stats``; ``list.count`` compares
        the enum members by identity, in one C-level pass.
        """
        states = list(map(attrgetter("state"), self.records))
        completed = states.count(TaskState.COMPLETED)
        failed = states.count(TaskState.FAILED)
        return {
            "submitted": self.stats.submitted,
            "records": len(self.records),
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "records_completed": completed,
            "records_failed": failed,
            "records_in_flight": len(self.records) - completed - failed,
            "executions": len(self._executions),
        }

    def execution_view(self) -> List[Tuple[str, str, str]]:
        """``(task_id, worker_id, state)`` per live execution, sorted.

        Live executions always have a bound worker; records in the
        result-return window (completion output travelling back to the
        coordinator) are RUNNING but no longer appear here.
        """
        return sorted(
            (task_id, execution.record.worker_id or "", execution.record.state.value)
            for task_id, execution in self._executions.items()
        )

    def crashed_executions(self) -> List[Tuple[str, str, float]]:
        """``(task_id, worker_id, crashed_at)`` for crash-frozen executions.

        These stopped making progress and will never complete on their
        own; a recovery mechanism (lease eviction → handover) must pick
        them up, which the chaos stranded-task invariant enforces.
        """
        return sorted(
            (task_id, execution.record.worker_id or "", execution.crashed_at)
            for task_id, execution in self._executions.items()
            if execution.crashed_at is not None
        )
