"""Execution tiers: the existing layers registered under one topology.

The paper's three architectures exist side by side in this repo —
dynamic/parking vehicular clouds (``repro.core``), RSU-anchored edge
clouds, and the conventional :class:`~repro.infra.central_cloud.CentralCloud`.
:class:`TierTopology` registers each as an *execution tier* at one of
three levels (``local`` / ``edge`` / ``cloud``) behind a uniform
dispatch contract, so the :class:`~repro.tier.offloader.TieredOffloader`
can speculate across them without knowing which concrete engine sits
underneath.

Two adapters cover every layer we have:

* :class:`VCloudTier` wraps a :class:`~repro.core.vcloud.VehicularCloud`
  — the local dynamic/parking micro-cloud, or an RSU-anchored edge
  cloud when placed behind a :class:`~repro.tier.backhaul.BackhaulLink`;
* :class:`CentralCloudTier` wraps the datacenter endpoint, always
  behind a backhaul link.

Each dispatch produces a :class:`TierAttempt` that moves through
uplink → execution → downlink and terminates with exactly one typed
reason (``completed``, ``speculation_cancelled``, ``backhaul_lost``,
``deadline``, ...), reported through a single ``on_finish`` callback.
Remote attempts build a *fresh replica task* after the uplink delivers,
with the deadline shrunk by the elapsed transit — the same
fresh-task-per-replica idiom the DAG scheduler and gateway hedging use,
so replica ids never collide and per-cloud conservation stays exact.

Cancellation mirrors the v-cloud contract: ``cancel`` returns False
when the attempt is already terminal or its result frame is in flight
back over the link (too late — the completion will arrive flagged
``cancelled`` and the offloader counts it as *late* rather than a
second winner).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..core.capacity import BacklogEstimator
from ..core.tasks import Task, TaskRecord
from ..core.vcloud import VehicularCloud
from ..errors import ConfigurationError
from ..infra.central_cloud import CentralCloud, CloudResponse
from ..sim.world import World
from .backhaul import BackhaulLink

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Span

#: Recognised tier levels, nearest to farthest.
TIER_LEVELS = ("local", "edge", "cloud")

#: Typed reason recorded when a losing speculative replica is cancelled.
SPECULATION_CANCELLED = "speculation_cancelled"
#: Typed reason when a request or its result dies on the WAN.
BACKHAUL_LOST = "backhaul_lost"

#: Callback fired exactly once per attempt with its terminal reason.
AttemptFinish = Callable[["TierAttempt", str], None]


@dataclass
class TierAttempt:
    """One speculative replica of a task on one tier."""

    tier_name: str
    level: str
    task: Task
    deadline_at: Optional[float]
    dispatched_at: float
    #: Set when the offloader asked for cancellation; a flagged attempt
    #: can still complete late if its result frame was already in flight.
    cancelled: bool = False
    terminal_reason: Optional[str] = None
    #: The local execution record (v-cloud tiers only, post-uplink).
    record: Optional[TaskRecord] = None
    span: Optional["Span"] = None
    meta: Dict[str, object] = field(default_factory=dict)
    _on_finish: Optional[AttemptFinish] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.terminal_reason is not None


class ExecutionTier:
    """Uniform dispatch contract one level of the hierarchy implements."""

    name: str
    level: str
    link: Optional[BackhaulLink]

    def reachable(self) -> bool:
        """Whether dispatches can reach the tier right now."""
        raise NotImplementedError

    def queue_delay_estimate(self, now: float) -> float:
        """Standing queueing delay a new dispatch would face."""
        raise NotImplementedError

    def estimated_runtime_s(self, work_mi: float) -> float:
        """Expected processing time once assigned (inf when no capacity)."""
        raise NotImplementedError

    def estimated_completion_s(self, task: Task, now: float) -> float:
        """End-to-end estimate: uplink + queue + run + downlink (no RNG)."""
        total = self.queue_delay_estimate(now) + self.estimated_runtime_s(task.work_mi)
        if self.link is not None:
            total += self.link.latency_estimate_s(task.input_bytes)
            total += self.link.latency_estimate_s(task.output_bytes)
        return total

    def dispatch(
        self,
        task: Task,
        deadline_at: Optional[float],
        on_finish: AttemptFinish,
        span: Optional["Span"] = None,
    ) -> TierAttempt:
        """Launch one replica; ``on_finish`` fires exactly once."""
        raise NotImplementedError

    def cancel(self, attempt: TierAttempt, reason: str = SPECULATION_CANCELLED) -> bool:
        """Cancel a live attempt; False when its result is already in flight."""
        raise NotImplementedError


class _LinkedTier(ExecutionTier):
    """Shared uplink/downlink plumbing for tiers behind a backhaul."""

    def __init__(
        self, world: World, name: str, level: str, link: Optional[BackhaulLink]
    ) -> None:
        if level not in TIER_LEVELS:
            raise ConfigurationError(
                f"unknown tier level {level!r}, expected one of {TIER_LEVELS}"
            )
        self.world = world
        self.name = name
        self.level = level
        self.link = link

    def reachable(self) -> bool:
        return self.link is None or self.link.available()

    def _new_attempt(
        self,
        task: Task,
        deadline_at: Optional[float],
        on_finish: AttemptFinish,
        span: Optional["Span"] = None,
    ) -> TierAttempt:
        return TierAttempt(
            tier_name=self.name,
            level=self.level,
            task=task,
            deadline_at=deadline_at,
            dispatched_at=self.world.now,
            span=span,
            _on_finish=on_finish,
        )

    # -- attempt termination -------------------------------------------------

    def _finish(self, attempt: TierAttempt, reason: str) -> None:
        """Terminate an attempt exactly once (later outcomes are dropped)."""
        if attempt.terminal:
            return
        attempt.terminal_reason = reason
        if attempt._on_finish is not None:
            attempt._on_finish(attempt, reason)

    def _send_up(self, attempt: TierAttempt, submit: Callable[[], None]) -> None:
        """Route the request over the link (if any) to ``submit``."""
        if self.link is None:
            submit()
            return

        def _deliver() -> None:
            if not attempt.terminal:
                submit()

        self.link.transmit(
            attempt.task.input_bytes,
            deliver=_deliver,
            on_lost=lambda _reason: self._finish(attempt, BACKHAUL_LOST),
        )

    def _send_down(self, attempt: TierAttempt) -> None:
        """Route a completed result back over the link (if any)."""
        if self.link is None:
            self._finish(attempt, "completed")
            return
        self.link.transmit(
            attempt.task.output_bytes,
            deliver=lambda: self._finish(attempt, "completed"),
            on_lost=lambda _reason: self._finish(attempt, BACKHAUL_LOST),
        )

    @staticmethod
    def _remaining_s(attempt: TierAttempt, now: float) -> Optional[float]:
        if attempt.deadline_at is None:
            return None
        return attempt.deadline_at - now

    @staticmethod
    def _replica_of(task: Task, deadline_s: Optional[float]) -> Task:
        """Fresh task (fresh id) carrying the residual deadline."""
        return Task(
            work_mi=task.work_mi,
            input_bytes=task.input_bytes,
            output_bytes=task.output_bytes,
            deadline_s=deadline_s,
            required_sensors=task.required_sensors,
            submitter=task.submitter,
        )


class VCloudTier(_LinkedTier):
    """A vehicular cloud (dynamic, parking, or RSU-anchored edge) as a tier."""

    def __init__(
        self,
        world: World,
        name: str,
        level: str,
        cloud: VehicularCloud,
        link: Optional[BackhaulLink] = None,
    ) -> None:
        super().__init__(world, name, level, link)
        self.cloud = cloud
        self.estimator = BacklogEstimator(cloud)

    def reachable(self) -> bool:
        if not super().reachable():
            return False
        return len(self.cloud.worker_view().ids) > 0

    def queue_delay_estimate(self, now: float) -> float:
        return self.estimator.queue_delay_s(now)

    def estimated_runtime_s(self, work_mi: float) -> float:
        view = self.cloud.worker_view()
        workers, capacity = view.ids, view.capacity_mips
        if not workers or capacity <= 0:
            return float("inf")
        return work_mi / (capacity / len(workers))

    def dispatch(
        self,
        task: Task,
        deadline_at: Optional[float],
        on_finish: AttemptFinish,
        span: Optional["Span"] = None,
    ) -> TierAttempt:
        attempt = self._new_attempt(task, deadline_at, on_finish, span)
        self._send_up(attempt, lambda: self._submit(attempt))
        return attempt

    def _submit(self, attempt: TierAttempt) -> None:
        remaining = self._remaining_s(attempt, self.world.now)
        if remaining is not None and remaining <= 0:
            self._finish(attempt, "deadline")
            return
        replica = self._replica_of(attempt.task, remaining)
        on_finish = functools.partial(self._on_replica_finish, attempt)
        attempt.record = self.cloud.submit(replica, trace_parent=attempt.span, on_finish=on_finish)

    def _on_replica_finish(self, attempt: TierAttempt, record: TaskRecord, reason: str) -> None:
        if reason == "completed":
            self._send_down(attempt)
        else:
            self._finish(attempt, reason)

    def cancel(self, attempt: TierAttempt, reason: str = SPECULATION_CANCELLED) -> bool:
        if attempt.terminal:
            return False
        attempt.cancelled = True
        if attempt.record is None:
            # Request still on the uplink; kill it before it lands.
            self._finish(attempt, reason)
            return True
        # Routes through the cloud's typed-cancel path; on success the
        # replica's callback fires synchronously and terminates the attempt.
        return self.cloud.cancel(attempt.record, reason)


class CentralCloudTier(_LinkedTier):
    """The conventional datacenter endpoint as the ``cloud`` tier."""

    def __init__(
        self,
        world: World,
        name: str,
        cloud: CentralCloud,
        link: BackhaulLink,
        level: str = "cloud",
    ) -> None:
        super().__init__(world, name, level, link)
        self.cloud = cloud
        self._request_seq = 0

    def queue_delay_estimate(self, now: float) -> float:
        return self.cloud.queue_delay_estimate()

    def estimated_runtime_s(self, work_mi: float) -> float:
        return work_mi / self.cloud.compute_mips

    def dispatch(
        self,
        task: Task,
        deadline_at: Optional[float],
        on_finish: AttemptFinish,
        span: Optional["Span"] = None,
    ) -> TierAttempt:
        attempt = self._new_attempt(task, deadline_at, on_finish, span)
        self._request_seq += 1
        request_id = f"{self.name}:{task.task_id}:{self._request_seq}"
        attempt.meta["request_id"] = request_id
        self._send_up(attempt, lambda: self._submit(attempt, request_id))
        return attempt

    def _submit(self, attempt: TierAttempt, request_id: str) -> None:
        remaining = self._remaining_s(attempt, self.world.now)
        if remaining is not None and remaining <= 0:
            self._finish(attempt, "deadline")
            return
        attempt.meta["submitted"] = True

        def _on_complete(_response: CloudResponse) -> None:
            if not attempt.terminal:
                self._send_down(attempt)

        def _on_failure(reason: str) -> None:
            self._finish(attempt, reason)

        self.cloud.submit(
            request_id,
            attempt.task.work_mi,
            on_complete=_on_complete,
            on_failure=_on_failure,
        )

    def cancel(self, attempt: TierAttempt, reason: str = SPECULATION_CANCELLED) -> bool:
        if attempt.terminal:
            return False
        attempt.cancelled = True
        if not attempt.meta.get("submitted"):
            # Request still on the uplink; it is dropped on arrival.
            self._finish(attempt, reason)
            return True
        request_id = str(attempt.meta["request_id"])
        return self.cloud.cancel(request_id, reason)


class TierTopology:
    """Registry of execution tiers, one submit surface for the offloader."""

    def __init__(self) -> None:
        self._tiers: Dict[str, ExecutionTier] = {}
        self._order: List[str] = []

    def register(self, tier: ExecutionTier) -> ExecutionTier:
        """Add a tier; names must be unique, levels must be known."""
        if tier.level not in TIER_LEVELS:
            raise ConfigurationError(
                f"unknown tier level {tier.level!r}, expected one of {TIER_LEVELS}"
            )
        if tier.name in self._tiers:
            raise ConfigurationError(f"tier {tier.name!r} already registered")
        self._tiers[tier.name] = tier
        self._order.append(tier.name)
        return tier

    def tier(self, name: str) -> ExecutionTier:
        if name not in self._tiers:
            raise ConfigurationError(f"unknown tier {name!r}")
        return self._tiers[name]

    def tiers(self) -> List[ExecutionTier]:
        """All tiers in registration order."""
        return [self._tiers[name] for name in self._order]

    def local_tiers(self) -> List[ExecutionTier]:
        return [tier for tier in self.tiers() if tier.level == "local"]

    def remote_tiers(self) -> List[ExecutionTier]:
        """Edge and cloud tiers, nearest level first."""
        remote = [tier for tier in self.tiers() if tier.level != "local"]
        return sorted(remote, key=lambda t: TIER_LEVELS.index(t.level))

    def describe(self) -> str:
        """Stable one-line-per-tier rendering."""
        lines = []
        for tier in self.tiers():
            linked = f" via {tier.link.name}" if tier.link is not None else ""
            lines.append(f"{tier.level}: {tier.name}{linked}")
        return "\n".join(lines)
