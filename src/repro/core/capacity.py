"""Shared backlog/utilization estimation over one vehicular cloud.

E17 exposed a positive feedback loop in the dependable DAG layer: the
redundancy planner grew replica sets purely from survival probabilities,
so exactly when churn had shrunk the fleet it multiplied queued work and
deadline misses.  Breaking that loop needs one consistent answer to
"how loaded is this cloud right now?" that both the serving gateway and
the DAG scheduler can read — queued work they have not dispatched yet
plus the in-flight work already occupying workers.

The :class:`BacklogEstimator` is that shared answer.  It is strictly
read-only over cloud state (no RNG draws, no engine events, no metrics
writes — the same determinism contract the reliability estimator and
the observability layer follow), so attaching it never perturbs a
seeded run.  Producers of *queued* work register backlog sources (the
gateway registers its admission queue's ``queued_work_mi``, the DAG
scheduler its pending un-assigned replicas); *in-flight* work is read
directly from the cloud's live executions.  The fleet's shape, its
eligible workers and their summed compute, is read from the cloud's
cached :meth:`~repro.core.vcloud.VehicularCloud.worker_view`, which is
recomputed only when membership or the head changes, so an estimate
never rescans the pool.

"Decomposition Theory Meets Reliability Analysis" (PAPERS.md) plans
dependent-task redundancy jointly over reliability and dynamic resource
availability; the :class:`LoadSignal` snapshot this module produces is
the "dynamic resource availability" half of that joint decision,
consumed by :class:`~repro.dag.redundancy.RedundancyPlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

if TYPE_CHECKING:
    from .vcloud import VehicularCloud


@dataclass(frozen=True)
class LoadSignal:
    """One plan-time snapshot of fleet load.

    ``queue_delay_s`` is the standing delay a new dispatch already
    faces (queued work draining through the aggregate capacity plus the
    mean residual busy time of occupied workers); ``marginal_delay_s``
    is the extra fleet-wide delay each *additional* replica of the work
    being planned would induce; ``utilization`` is the busy fraction of
    eligible workers in [0, 1].
    """

    queue_delay_s: float = 0.0
    marginal_delay_s: float = 0.0
    utilization: float = 0.0
    workers: int = 0

    @property
    def loaded(self) -> bool:
        """Whether the fleet shows any queueing pressure at all."""
        return self.queue_delay_s > 0.0 or self.utilization > 0.0


class BacklogEstimator:
    """Queued + in-flight work per worker, shared across subsystems.

    One estimator per cloud; the serving gateway and the DAG scheduler
    each register the backlog only they know about (admission queue,
    pending replicas) and both read the same aggregate picture, so the
    redundancy planner sees the load the serving path is creating and
    vice versa.
    """

    def __init__(self, cloud: "VehicularCloud") -> None:
        self.cloud = cloud
        self._sources: List[Callable[[], float]] = []

    # -- backlog sources -----------------------------------------------------

    def add_backlog_source(self, source: Callable[[], float]) -> None:
        """Register a producer of queued (not yet dispatched) work.

        ``source`` returns the producer's current queued work in
        million instructions; it is polled at estimation time, never
        cached, so the estimate is always live.
        """
        self._sources.append(source)

    def queued_work_mi(self) -> float:
        """Total queued work across every registered source."""
        return sum(source() for source in self._sources)

    # -- fleet shape ---------------------------------------------------------

    def worker_ids(self) -> List[str]:
        """Pool members eligible for work (the head does not self-assign)."""
        return list(self.cloud.worker_view().ids)

    def aggregate_capacity_mips(self) -> float:
        """Offered compute across eligible workers."""
        return self.cloud.worker_view().capacity_mips

    def utilization(self) -> float:
        """Busy fraction of eligible workers, in [0, 1]."""
        workers = self.cloud.worker_view().ids
        if not workers:
            return 1.0
        eligible = set(workers)
        busy = sum(
            1 for worker in self.cloud.busy_workers() if worker in eligible
        )
        return min(1.0, busy / len(workers))

    # -- delay estimates -----------------------------------------------------

    def inflight_delay_s(self, now: float) -> float:
        """Mean residual busy time the occupied workers still owe.

        Spread over the whole eligible fleet: a new dispatch can land on
        any free worker, so the expected wait contributed by in-flight
        work is the total residual runtime divided by the fleet size.
        """
        workers = len(self.cloud.worker_view().ids)
        if not workers:
            return 0.0
        return self.cloud.inflight_remaining_s(now) / workers

    def queue_delay_s(self, now: float) -> float:
        """Standing delay a new dispatch faces right now.

        Queued work draining through the aggregate capacity, plus the
        residual in-flight busy time spread over the fleet.  Infinite
        when work is queued against zero capacity.
        """
        capacity = self.aggregate_capacity_mips()
        queued = self.queued_work_mi()
        if capacity <= 0:
            return float("inf") if queued > 0 else 0.0
        return queued / capacity + self.inflight_delay_s(now)

    def marginal_delay_s(self, work_mi: float) -> float:
        """Fleet-wide delay one extra dispatch of ``work_mi`` induces.

        Each additional replica adds its full work to the shared
        backlog; drained through the aggregate capacity that is the
        delay it imposes on everything queued behind it.
        """
        capacity = self.aggregate_capacity_mips()
        if capacity <= 0:
            return float("inf") if work_mi > 0 else 0.0
        return work_mi / capacity

    def signal(self, now: float, work_mi: float) -> LoadSignal:
        """Snapshot the load relevant to planning one ``work_mi`` stage."""
        return LoadSignal(
            queue_delay_s=self.queue_delay_s(now),
            marginal_delay_s=self.marginal_delay_s(work_mi),
            utilization=self.utilization(),
            workers=len(self.cloud.worker_view().ids),
        )
