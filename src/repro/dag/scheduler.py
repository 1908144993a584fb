"""Dependable DAG execution on a vehicular cloud.

The :class:`DagScheduler` runs :class:`~repro.dag.graph.TaskGraph` jobs
on a :class:`~repro.core.vcloud.VehicularCloud` through the existing
allocator/lease machinery, and makes the execution survive worker churn:

* **Reliability-aware redundancy** — each dispatching stage asks the
  :class:`~repro.dag.reliability.ReliabilityEstimator` for candidate
  survival probabilities and the
  :class:`~repro.dag.redundancy.RedundancyPlanner` for a k-of-n replica
  count; replicas are anti-affine (a gate on the cloud returns, once
  per assignment pass, the workers a replica's live siblings hold, so
  the cloud builds no candidate for them) and race in a
  :class:`~repro.core.race.Race`: first result wins, and losers retire
  through the cloud's typed ``cancel`` path as ``replica_cancelled``.
* **Checkpointed recovery** — a completed stage's intermediate output is
  checkpointed into the cloud's replicated quorum store, so a crashed or
  departed worker costs re-execution of only the lost frontier (the
  stages actually running there), never the stages already finished.
  With checkpointing off, outputs stay resident on the worker that
  produced them and a later departure silently loses them — the
  failure-aware re-execution path then walks the graph and re-runs
  exactly the stages whose outputs are gone.
* **Typed terminal states** — a graph either completes or fails with a
  typed reason (``deadline``, ``stage_exhausted``, ``cancelled``) that
  is ledgered into :attr:`DagStats.failure_reasons`, the metrics
  registry (``dag/<name>/graph_failures/<reason>``), the structured
  event log, and the graph's ``dag.lifecycle`` trace (per-stage
  ``dag.stage`` child spans parent the cloud's ``task.lifecycle``
  spans, so a trace walks submit → stage → replica → fault).

Conservation contract (checked by the chaos
``DagConservation`` invariant): at any sim instant
``graphs_submitted == graphs_completed + graphs_failed + running``, and
the replica races obey the :class:`~repro.core.race.RaceLedger` law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from ..core.capacity import BacklogEstimator
from ..core.race import Race, RaceLedger, ledger_count
from ..core.scheduler import candidates_from_pool
from ..core.tasks import Task, TaskRecord, TaskState
from ..core.vcloud import VehicularCloud
from ..errors import ConfigurationError, ResourceError
from ..sim.world import World
from .graph import GraphState, StageSpec, StageStatus, TaskGraph
from .redundancy import RedundancyPlan, RedundancyPlanner
from .reliability import ReliabilityEstimator

if TYPE_CHECKING:
    from ..obs import Span

#: Typed reason carried by replicas retired after a sibling won.
REPLICA_CANCELLED = "replica_cancelled"


@dataclass
class _StageRun:
    """Mutable bookkeeping for one stage of one submitted graph."""

    spec: StageSpec
    status: StageStatus = StageStatus.PENDING
    attempts: int = 0
    #: The replicas racing for the current attempt.
    race: Optional[Race] = None
    #: Worker holding the (un-checkpointed) output, None when durable.
    output_home: Optional[str] = None
    output_checkpointed: bool = False
    completed_at: Optional[float] = None
    span: Optional["Span"] = None
    last_plan: Optional[RedundancyPlan] = None


@dataclass
class GraphRecord:
    """Execution bookkeeping for one submitted task graph."""

    graph: TaskGraph
    submitted_at: float
    state: GraphState = GraphState.PENDING
    stages: Dict[str, _StageRun] = field(default_factory=dict)
    completed_at: Optional[float] = None
    failure_reason: Optional[str] = None
    #: Whole-graph restarts (checkpointing off) and stage re-executions
    #: forced by lost intermediate outputs.
    restarts: int = 0
    stages_reexecuted: int = 0
    span: Optional["Span"] = None
    #: Called once with ``(record, reason)`` at the terminal outcome.
    on_finish: Optional[Callable[["GraphRecord", str], None]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def completion_latency_s(self) -> Optional[float]:
        """Submission-to-completion delay, None until completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def met_deadline(self) -> Optional[bool]:
        """Whether the graph deadline held; None if no deadline/unfinished."""
        if self.graph.deadline_s is None or self.completed_at is None:
            return None
        latency = self.completion_latency_s
        return latency is not None and latency <= self.graph.deadline_s

    def deadline_at(self) -> Optional[float]:
        """Absolute deadline instant, None when deadline-free."""
        if self.graph.deadline_s is None:
            return None
        return self.submitted_at + self.graph.deadline_s


@dataclass
class DagStats:
    """Aggregate outcomes of one scheduler's graph stream."""

    #: Every stage attempt's replica race.
    races: RaceLedger
    graphs_submitted: int = 0
    graphs_completed: int = 0
    graphs_failed: int = 0
    #: Terminal graph failures broken down by typed reason.
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    stages_completed: int = 0
    stages_reexecuted: int = 0
    graph_restarts: int = 0
    #: Replicas the survival-only rule wanted but load pressure withheld.
    replicas_load_shed: int = 0
    redundant_dispatches: int = 0
    checkpoint_writes: int = 0
    checkpoint_degraded: int = 0
    outputs_lost: int = 0
    deadline_hits: int = 0
    deadline_misses: int = 0
    graph_latencies_s: List[float] = field(default_factory=list)

    replicas_submitted = ledger_count("launched")
    replicas_cancelled = ledger_count("cancelled")

    @property
    def completion_rate(self) -> float:
        """Completed over submitted (0 when nothing submitted)."""
        if self.graphs_submitted == 0:
            return 0.0
        return self.graphs_completed / self.graphs_submitted

    @property
    def deadline_hit_rate(self) -> float:
        """Deadline hits over deadline-carrying submissions that ended."""
        total = self.deadline_hits + self.deadline_misses
        if total == 0:
            return 0.0
        return self.deadline_hits / total


class DagScheduler:
    """Executes task graphs on a vehicular cloud, dependably.

    ``sequential=True`` is the naive baseline E17 contrasts against:
    one stage at a time in topological order, no redundancy, and —
    combined with ``checkpointing=False`` — a stage failure restarts
    the *whole* graph because nothing durable survives.

    ``checkpointing=True`` requires the cloud's replicated storage
    (:meth:`~repro.core.vcloud.VehicularCloud.enable_replicated_storage`);
    a quorum write that degrades mid-churn falls back to worker-resident
    output and is counted in :attr:`DagStats.checkpoint_degraded`.
    """

    def __init__(
        self,
        world: World,
        cloud: VehicularCloud,
        name: str = "dag",
        reliability: Optional[ReliabilityEstimator] = None,
        redundancy: Optional[RedundancyPlanner] = None,
        checkpointing: bool = False,
        sequential: bool = False,
        max_stage_attempts: int = 3,
        checkpoint_replicas: int = 3,
        backlog: Optional[BacklogEstimator] = None,
    ) -> None:
        if max_stage_attempts < 1:
            raise ConfigurationError("max_stage_attempts must be >= 1")
        if redundancy is not None and reliability is None:
            raise ConfigurationError(
                "a RedundancyPlanner needs a ReliabilityEstimator to rank workers"
            )
        self.world = world
        self.cloud = cloud
        self.name = name
        self.reliability = reliability
        self.redundancy = redundancy
        self.checkpointing = checkpointing
        self.sequential = sequential
        self.max_stage_attempts = max_stage_attempts
        self.checkpoint_replicas = checkpoint_replicas
        self.backlog = backlog
        if backlog is not None:
            # Replicas the cloud has accepted but not yet placed on a
            # worker are queued work only this scheduler knows about.
            backlog.add_backlog_source(self._pending_replica_work_mi)
        self.stats = DagStats(
            races=RaceLedger(
                REPLICA_CANCELLED,
                on_won=self._complete_stage,
                on_lost=self._on_stage_exhausted,
                on_settled=self._on_replica_settled,
            )
        )
        self.records: List[GraphRecord] = []
        #: live replica task_id -> the race it runs in, for the sibling gate
        self._replica_index: Dict[str, Race] = {}
        # Sibling replicas must land on distinct workers; the cloud's own
        # allocator ranks every worker the gate leaves in.
        cloud.gates.append(self._gate)
        cloud.membership.on_leave(self._on_worker_left)

    # -- observability -------------------------------------------------------

    def _emit(self, event: str, severity: str = "info", **attrs: Any) -> None:
        events = self.world.events
        if events is not None:
            events.emit("dag", event, severity=severity, scheduler=self.name, **attrs)

    def _metric(self, suffix: str) -> None:
        self.world.metrics.increment(f"dag/{self.name}/{suffix}")

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        graph: TaskGraph,
        on_finish: Optional[Callable[[GraphRecord, str], None]] = None,
    ) -> GraphRecord:
        """Submit a graph for dependable execution.

        ``on_finish`` is called exactly once, with ``(record, reason)``,
        when the graph ends: ``reason`` is ``"completed"`` or the typed
        failure reason.  It may be called before ``submit`` returns.

        On a traced run the submission roots a ``dag.lifecycle`` trace;
        every stage dispatch, replica, checkpoint and re-execution hangs
        off it.
        """
        if self.checkpointing and self.cloud.storage is None:
            raise ConfigurationError(
                "checkpointing requires the cloud's replicated storage "
                "(call enable_replicated_storage first)"
            )
        record = GraphRecord(
            graph=graph,
            submitted_at=self.world.now,
            state=GraphState.RUNNING,
            stages={spec.name: _StageRun(spec=spec) for spec in graph.stages},
            on_finish=on_finish,
        )
        self.records.append(record)
        self.stats.graphs_submitted += 1
        self._metric("graphs_submitted")
        tracer = self.world.tracer
        if tracer is not None:
            record.span = tracer.start_span(
                "dag.lifecycle",
                subsystem="dag",
                attrs={
                    "graph_id": graph.graph_id,
                    "scheduler": self.name,
                    "stages": len(graph.stages),
                    "total_work_mi": graph.total_work_mi,
                    "deadline_s": graph.deadline_s,
                },
            )
        self._emit("graph_submitted", graph_id=graph.graph_id, stages=len(graph.stages))
        deadline_at = record.deadline_at()
        if deadline_at is not None:
            # Watchdog: whatever the stages are doing, the graph reaches
            # a typed terminal state no later than its deadline.
            self.world.engine.schedule_at(
                deadline_at,
                lambda r=record: self._deadline_watchdog(r),
                label="dag-deadline",
            )
        self._dispatch_ready(record)
        return record

    def cancel(self, record: GraphRecord, reason: str = "cancelled") -> bool:
        """Cancel a running graph; every live replica retires typed."""
        if record.state in (GraphState.COMPLETED, GraphState.FAILED):
            return False
        self._fail_graph(record, reason)
        return True

    def _deadline_watchdog(self, record: GraphRecord) -> None:
        if record.state in (GraphState.COMPLETED, GraphState.FAILED):
            return
        self._fail_graph(record, "deadline")

    # -- dispatch ------------------------------------------------------------

    def _gate(self, task: Task, worker_ids: Sequence[str]) -> Collection[str]:
        """The workers a replica's live, placed siblings hold."""
        race = self._replica_index.get(task.task_id)
        if race is None:
            return ()
        return {
            sibling.worker_id
            for sibling in race.live
            if sibling.task is not task
            and sibling.state in (TaskState.ASSIGNED, TaskState.RUNNING)
        }

    def _remaining_budget_s(self, record: GraphRecord) -> Optional[float]:
        deadline_at = record.deadline_at()
        if deadline_at is None:
            return None
        return deadline_at - self.world.now

    def _stage_ready(self, record: GraphRecord, stage: _StageRun) -> bool:
        if stage.status is not StageStatus.PENDING:
            return False
        return all(
            record.stages[dep].status is StageStatus.COMPLETED
            for dep in stage.spec.deps
        )

    def _dispatch_ready(self, record: GraphRecord) -> None:
        if record.state is not GraphState.RUNNING:
            return
        if self.sequential and any(
            run.status is StageStatus.RUNNING for run in record.stages.values()
        ):
            return
        for name in record.graph.topological_order():
            if record.state is not GraphState.RUNNING:
                return
            stage = record.stages[name]
            if not self._stage_ready(record, stage):
                continue
            self._dispatch_stage(record, stage)
            if self.sequential:
                return

    def _pending_replica_work_mi(self) -> float:
        """Work of live replicas the cloud has not placed on a worker yet.

        Backlog source for the shared :class:`BacklogEstimator`: these
        replicas sit in the cloud's retry loop waiting for a free
        worker, so they are queued load the serving gateway would
        otherwise never see.
        """
        return sum(
            replica.task.work_mi
            for record in self.records
            if record.state is GraphState.RUNNING
            for run in record.stages.values()
            if run.race is not None
            for replica in run.race.live
            if replica.worker_id is None
        )

    def _replica_plan(self, record: GraphRecord, stage: _StageRun, task: Task) -> int:
        if self.redundancy is None or self.reliability is None:
            return 1
        candidates = candidates_from_pool(
            self.cloud.pool, task, self.cloud.dwell_lookup, self.cloud.worker_view().ids
        )
        now = self.world.now
        survival = [
            self.reliability.survival_probability(
                vehicle_id, task.runtime_on(free_mips), now, dwell_s=dwell_s
            )
            for vehicle_id, free_mips, dwell_s, _ in candidates
        ]
        if self.backlog is not None and candidates:
            # Load-aware objective: survival gain per extra replica is
            # discounted by the queue delay it induces, so under combined
            # churn and load the plan sheds redundancy (E18).
            budget_s = self._remaining_budget_s(record)
            runtime_s = min(task.runtime_on(row[1]) for row in candidates)  # row[1]: free MIPS
            plan = self.redundancy.plan(
                survival,
                budget_s=budget_s if budget_s is not None else float("inf"),
                runtime_s=runtime_s,
                load=self.backlog.signal(now, task.work_mi),
            )
        else:
            plan = self.redundancy.plan(survival)
        stage.last_plan = plan
        if plan.load_shed > 0:
            self.stats.replicas_load_shed += plan.load_shed
            self._metric("replicas_load_shed")
        if plan.replicas == 0:
            # No eligible worker right now: dispatch a single replica and
            # let the cloud's retry loop wait out the drought.
            return 1
        return plan.replicas

    def _dispatch_stage(self, record: GraphRecord, stage: _StageRun) -> None:
        remaining = self._remaining_budget_s(record)
        if remaining is not None and remaining <= 0:
            self._fail_graph(record, "deadline")
            return
        stage.attempts += 1
        stage.status = StageStatus.RUNNING
        stage.output_home = None
        stage.output_checkpointed = False
        tracer = self.world.tracer
        if tracer is not None:
            stage.span = tracer.start_span(
                "dag.stage",
                subsystem="dag",
                parent=record.span,
                attrs={
                    "graph_id": record.graph.graph_id,
                    "stage": stage.spec.name,
                    "attempt": stage.attempts,
                    "work_mi": stage.spec.work_mi,
                },
            )
        probe = self._stage_task(record, stage, remaining)
        replicas = self._replica_plan(record, stage, probe)
        if replicas > 1:
            self.stats.redundant_dispatches += 1
            self._metric("redundant_dispatches")
        if tracer is not None and stage.span is not None and stage.last_plan is not None:
            stage.span.attrs["replicas"] = replicas
            stage.span.attrs["predicted_success"] = round(
                stage.last_plan.predicted_success, 6
            )
            if stage.last_plan.predicted_deadline_hit is not None:
                stage.span.attrs["predicted_deadline_hit"] = round(
                    stage.last_plan.predicted_deadline_hit, 6
                )
            if stage.last_plan.load_shed:
                stage.span.attrs["load_shed"] = stage.last_plan.load_shed
        tasks = [probe] + [
            self._stage_task(record, stage, remaining) for _ in range(replicas - 1)
        ]
        race = stage.race = Race(self.stats.races, (record, stage))
        race.launch(
            (self.cloud, lambda task=task: self._submit_replica(race, task, stage.span))
            for task in tasks
        )
        self._emit(
            "stage_dispatched",
            graph_id=record.graph.graph_id,
            stage=stage.spec.name,
            attempt=stage.attempts,
            replicas=replicas,
        )

    def _submit_replica(self, race: Race, task: Task, span: Optional["Span"]) -> TaskRecord:
        self._replica_index[task.task_id] = race
        self._metric("replicas_submitted")
        return self.cloud.submit(task, trace_parent=span, on_finish=race.settle)

    def _stage_task(
        self, record: GraphRecord, stage: _StageRun, remaining_s: Optional[float]
    ) -> Task:
        return Task(
            work_mi=stage.spec.work_mi,
            input_bytes=stage.spec.input_bytes,
            output_bytes=stage.spec.output_bytes,
            deadline_s=remaining_s,
            required_sensors=stage.spec.required_sensors,
            submitter=f"{record.graph.graph_id}/{stage.spec.name}",
        )

    # -- replica outcomes ----------------------------------------------------

    def _on_replica_settled(self, replica: TaskRecord, outcome: str, reason: str) -> None:
        del self._replica_index[replica.task.task_id]
        self._metric("replicas_completed" if reason == "completed" else "replicas_failed")

    def _complete_stage(
        self, run: Tuple[GraphRecord, _StageRun], winner: TaskRecord
    ) -> None:
        """First result wins; the race already asked the losers to cancel."""
        record, stage = run
        stage.status = StageStatus.COMPLETED
        stage.completed_at = self.world.now
        self.stats.stages_completed += 1
        self._metric("stages_completed")
        self._checkpoint_output(record, stage, winner)
        tracer = self.world.tracer
        if tracer is not None and stage.span is not None:
            tracer.end_span(
                stage.span,
                "ok",
                {
                    "worker": winner.worker_id,
                    "checkpointed": stage.output_checkpointed,
                    "attempt": stage.attempts,
                },
            )
            stage.span = None
        self._emit(
            "stage_completed",
            graph_id=record.graph.graph_id,
            stage=stage.spec.name,
            checkpointed=stage.output_checkpointed,
        )
        if all(
            run.status is StageStatus.COMPLETED for run in record.stages.values()
        ):
            self._complete_graph(record)
        else:
            self._dispatch_ready(record)

    def _checkpoint_output(
        self, record: GraphRecord, stage: _StageRun, winner: TaskRecord
    ) -> None:
        """Make the stage output durable, or remember where it lives.

        Checkpointing writes the intermediate output into the replicated
        quorum store under a per-attempt file id.  A degraded quorum
        (partition, mass crash) falls back to worker-resident output —
        the graph keeps running, but that output is now exposed to the
        producer's departure like an un-checkpointed one.
        """
        if not self.checkpointing or self.cloud.storage is None:
            stage.output_home = winner.worker_id
            return
        file_id = (
            f"ckpt/{record.graph.graph_id}/{stage.spec.name}#{stage.attempts}"
        )
        writer = self.cloud.head_id or (winner.worker_id or "")
        try:
            self.cloud.store_put(
                file_id,
                size_bytes=max(1, stage.spec.output_bytes),
                target_replicas=self.checkpoint_replicas,
            )
            result = self.cloud.store_write(file_id, writer)
        except ResourceError:
            result = None
        if result is None:
            self.stats.checkpoint_degraded += 1
            self._metric("checkpoint_degraded")
            stage.output_home = winner.worker_id
            self._emit(
                "checkpoint_degraded", severity="warning",
                graph_id=record.graph.graph_id, stage=stage.spec.name,
            )
            return
        stage.output_checkpointed = True
        stage.output_home = None
        self.stats.checkpoint_writes += 1
        self._metric("checkpoint_writes")

    # -- failure handling ----------------------------------------------------

    def _on_stage_exhausted(
        self, run: Tuple[GraphRecord, _StageRun], reason: Optional[str]
    ) -> None:
        """Every replica of a running stage failed without a winner."""
        record, stage = run
        remaining = self._remaining_budget_s(record)
        if reason == "deadline" or (remaining is not None and remaining <= 0):
            self._end_stage_span(stage, "failed", reason="deadline")
            self._fail_graph(record, "deadline")
            return
        if stage.attempts >= self.max_stage_attempts:
            self._end_stage_span(stage, "failed", reason="stage_exhausted")
            self._fail_graph(record, "stage_exhausted")
            return
        self._end_stage_span(stage, "retry", reason=reason)
        self._emit(
            "stage_retry", severity="warning",
            graph_id=record.graph.graph_id, stage=stage.spec.name,
            reason=reason, attempt=stage.attempts,
        )
        if self.checkpointing:
            # Predecessor outputs are durable: re-execute only this stage.
            stage.status = StageStatus.PENDING
            self._dispatch_ready(record)
        else:
            self._restart_graph(record, stage)

    def _restart_graph(self, record: GraphRecord, failed: _StageRun) -> None:
        """Nothing durable survives a stage failure: re-run from zero.

        The naive baseline's collapse mechanism — completed stages are
        thrown away because their outputs were never made durable.
        """
        record.restarts += 1
        self.stats.graph_restarts += 1
        self._metric("graph_restarts")
        for run in record.stages.values():
            if run.race is not None:
                run.race.abort()
            if run.status is StageStatus.COMPLETED:
                record.stages_reexecuted += 1
                self.stats.stages_reexecuted += 1
            self._end_stage_span(run, "restart", reason="graph_restart")
            run.status = StageStatus.PENDING
            run.output_home = None
            run.output_checkpointed = False
            run.completed_at = None
        self._emit(
            "graph_restarted", severity="warning",
            graph_id=record.graph.graph_id, restarts=record.restarts,
        )
        self._dispatch_ready(record)

    def _end_stage_span(self, stage: _StageRun, status: str, **attrs: Any) -> None:
        tracer = self.world.tracer
        if tracer is not None and stage.span is not None:
            tracer.link_active_faults(stage.span)
            tracer.end_span(stage.span, status, attrs)
        stage.span = None

    def _fail_graph(self, record: GraphRecord, reason: str) -> None:
        """Terminally fail a graph with a typed, ledgered reason."""
        record.state = GraphState.FAILED
        record.failure_reason = reason
        self.stats.graphs_failed += 1
        self.stats.failure_reasons[reason] = (
            self.stats.failure_reasons.get(reason, 0) + 1
        )
        self._metric(f"graph_failures/{reason}")
        for run in record.stages.values():
            if run.race is not None:
                run.race.abort()
            if run.status is StageStatus.RUNNING:
                run.status = StageStatus.FAILED
            self._end_stage_span(run, "failed", reason=reason)
        if record.graph.deadline_s is not None:
            self.stats.deadline_misses += 1
        tracer = self.world.tracer
        if tracer is not None and record.span is not None:
            tracer.link_active_faults(record.span)
            tracer.end_span(record.span, "failed", {"reason": reason})
            record.span = None
        self._emit(
            "graph_failed", severity="warning",
            graph_id=record.graph.graph_id, reason=reason,
        )
        if record.on_finish is not None:
            record.on_finish(record, reason)

    def _complete_graph(self, record: GraphRecord) -> None:
        record.state = GraphState.COMPLETED
        record.completed_at = self.world.now
        self.stats.graphs_completed += 1
        self._metric("graphs_completed")
        latency = record.completion_latency_s
        if latency is not None:
            self.stats.graph_latencies_s.append(latency)
            self.world.metrics.observe(f"dag/{self.name}/graph_latency_s", latency)
        met = record.met_deadline()
        if met is True:
            self.stats.deadline_hits += 1
        elif met is False:
            self.stats.deadline_misses += 1
        tracer = self.world.tracer
        if tracer is not None and record.span is not None:
            tracer.end_span(
                record.span, "ok", {"latency_s": latency, "met_deadline": met}
            )
            record.span = None
        self._emit(
            "graph_completed", graph_id=record.graph.graph_id, latency_s=latency
        )
        if record.on_finish is not None:
            record.on_finish(record, "completed")

    # -- failure-aware re-execution ------------------------------------------

    def _output_needed(self, record: GraphRecord, stage: _StageRun) -> bool:
        successors = record.graph.successors(stage.spec.name)
        if not successors:
            return True  # terminal output is the graph result
        return any(
            record.stages[s].status is not StageStatus.COMPLETED for s in successors
        )

    def _on_worker_left(self, worker_id: str) -> None:
        """A member left (departure or lease eviction): find lost outputs.

        Runs after the cloud's own departure handling (listener order),
        so in-flight executions have already been handed over; what is
        left to recover is intermediate outputs resident on the departed
        worker.  Checkpointed outputs survive in the quorum store; the
        rest force re-execution of exactly the producing stages — the
        lost frontier, not the whole graph.
        """
        for record in self.records:
            if record.state is not GraphState.RUNNING:
                continue
            lost = False
            for run in record.stages.values():
                if (
                    run.status is StageStatus.COMPLETED
                    and not run.output_checkpointed
                    and run.output_home == worker_id
                    and self._output_needed(record, run)
                ):
                    run.status = StageStatus.PENDING
                    run.output_home = None
                    run.completed_at = None
                    record.stages_reexecuted += 1
                    self.stats.stages_reexecuted += 1
                    self.stats.outputs_lost += 1
                    self._metric("outputs_lost")
                    self._emit(
                        "stage_output_lost", severity="warning",
                        graph_id=record.graph.graph_id,
                        stage=run.spec.name, worker=worker_id,
                    )
                    lost = True
            if lost:
                self._dispatch_ready(record)

    # -- introspection -------------------------------------------------------

    def accounting(self) -> Dict[str, int]:
        """Graph/replica conservation counters, surfaced for invariants.

        At any sim instant ``graphs_submitted == records`` and
        ``graphs_submitted == completed + failed + running`` (counters
        agreeing with record states), and every replica ever submitted
        is completed, failed, or live — the DAG extension of the cloud's
        task-conservation law.  Like
        :meth:`~repro.core.vcloud.VehicularCloud.accounting`, every call
        recounts every record's state in one C-level pass.
        """
        states = list(map(attrgetter("state"), self.records))
        completed = states.count(GraphState.COMPLETED)
        failed = states.count(GraphState.FAILED)
        races = self.stats.races
        return {
            "graphs_submitted": self.stats.graphs_submitted,
            "graph_records": len(self.records),
            "graphs_completed": self.stats.graphs_completed,
            "graphs_failed": self.stats.graphs_failed,
            "records_completed": completed,
            "records_failed": failed,
            "records_running": len(self.records) - completed - failed,
            "replicas_submitted": races.launched,
            "replicas_completed": races.won + races.late,
            "replicas_failed": races.failed + races.cancelled,
            "replicas_live": races.live(),
        }
