"""Execution tiers: the existing layers registered under one topology.

The paper's three architectures exist side by side in this repo —
dynamic/parking vehicular clouds (``repro.core``), RSU-anchored edge
clouds, and the conventional :class:`~repro.infra.central_cloud.CentralCloud`.
:class:`TierTopology` registers each as an *execution tier* at one of
three levels (``local`` / ``edge`` / ``cloud``) behind a uniform
dispatch contract, so the :class:`~repro.tier.offloader.TieredOffloader`
can speculate across them without knowing which concrete engine sits
underneath.

Both executors keep one contract: ``submit`` returns a record and calls
the ``on_finish`` given with it once with ``(record, reason)``, and
``cancel(record, reason)`` ends the work as a typed failure.  So one
base, :class:`ExecutionTier`, owns every attempt's path.  Each dispatch
produces a :class:`TierAttempt` that moves through uplink → execution →
downlink and terminates with exactly one typed reason (``completed``,
``speculation_cancelled``, ``backhaul_lost``, ``deadline``, ...),
reported through a single ``on_finish`` callback.  A subclass supplies
its estimates and ``_start``, which submits the work once the uplink
delivers:

* :class:`VCloudTier` wraps a :class:`~repro.core.vcloud.VehicularCloud`
  — the local dynamic/parking micro-cloud, or an RSU-anchored edge
  cloud when placed behind a :class:`~repro.tier.backhaul.BackhaulLink`.
  It submits a *fresh replica task* with the deadline shrunk by the
  elapsed transit — the same fresh-task-per-replica idiom the DAG
  scheduler and gateway hedging use, so replica ids never collide and
  per-cloud conservation stays exact;
* :class:`CentralCloudTier` wraps the datacenter endpoint, always
  behind a backhaul link.

Cancellation mirrors the v-cloud contract: ``cancel`` returns False
when the attempt is already terminal or its result frame is in flight
back over the link (too late — the completion will arrive flagged
``cancelled`` and the offloader counts it as *late* rather than a
second winner).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Union

from ..core.capacity import BacklogEstimator
from ..core.tasks import Task, TaskRecord
from ..core.vcloud import VehicularCloud
from ..errors import ConfigurationError
from ..infra.central_cloud import CentralCloud, CloudRequest
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

#: What an executor's ``submit`` returns for one unit of work.
ExecutorRecord = Union[TaskRecord, CloudRequest]
#: The callback an executor calls once with ``(record, reason)``.
ExecutorFinish = Callable[[Any, str], None]


class Executor(Protocol):
    """What a tier runs its work on: a v-cloud or the datacenter."""

    def cancel(self, record: Any, reason: str) -> bool:
        """Typed cancel of the record ``submit`` returned."""


@dataclass
class TierAttempt:
    """One speculative replica of a task on one tier."""

    tier_name: str
    task: Task
    deadline_at: Optional[float]
    #: Set when the offloader asked for cancellation; a flagged attempt
    #: can still complete late if its result frame was already in flight.
    cancelled: bool = False
    terminal_reason: Optional[str] = None
    #: The executor's record of the work (a v-cloud tier's replica
    #: ``TaskRecord``, the datacenter's ``CloudRequest``); None while
    #: the request is on the uplink.
    record: Optional[ExecutorRecord] = None
    span: Optional["Span"] = None
    _on_finish: Optional[AttemptFinish] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.terminal_reason is not None


class ExecutionTier:
    """One level of the hierarchy: an executor, maybe behind a backhaul.

    The base owns the whole attempt path: uplink, residual-deadline
    check, the executor's callback, downlink, termination and cancel.
    """

    cloud: Executor

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
        """Whether dispatches can reach the tier right now."""
        return self.link is None or self.link.available()

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

    def _start(
        self, attempt: TierAttempt, remaining_s: Optional[float], on_finish: ExecutorFinish
    ) -> ExecutorRecord:
        """Submit the attempt's work to the executor; returns its record.

        ``remaining_s`` is the deadline left once the uplink delivered
        (None without one); the executor reports to ``on_finish``.
        """
        raise NotImplementedError

    def dispatch(
        self,
        task: Task,
        deadline_at: Optional[float],
        on_finish: AttemptFinish,
        span: Optional["Span"] = None,
    ) -> TierAttempt:
        """Launch one replica; ``on_finish`` fires exactly once."""
        attempt = TierAttempt(self.name, task, deadline_at, span=span, _on_finish=on_finish)
        if self.link is None:
            self._submit(attempt)
        else:
            self.link.transmit(
                task.input_bytes,
                deliver=lambda: self._submit(attempt),
                on_lost=lambda _reason: self._finish(attempt, BACKHAUL_LOST),
            )
        return attempt

    def _submit(self, attempt: TierAttempt) -> None:
        """The request has arrived: hand it to the executor unless stale."""
        if attempt.terminal:
            return  # cancelled on the uplink
        remaining = None if attempt.deadline_at is None else attempt.deadline_at - self.world.now
        if remaining is not None and remaining <= 0:
            self._finish(attempt, "deadline")
            return
        on_finish = functools.partial(self._on_executed, attempt)
        attempt.record = self._start(attempt, remaining, on_finish)

    def _on_executed(self, attempt: TierAttempt, _record: object, reason: str) -> None:
        """The executor's outcome: send a result down, else end the attempt."""
        if reason != "completed" or self.link is None:
            self._finish(attempt, reason)
            return
        self.link.transmit(
            attempt.task.output_bytes,
            deliver=lambda: self._finish(attempt, "completed"),
            on_lost=lambda _reason: self._finish(attempt, BACKHAUL_LOST),
        )

    def _finish(self, attempt: TierAttempt, reason: str) -> None:
        """Terminate an attempt exactly once (later outcomes are dropped)."""
        if attempt.terminal:
            return
        attempt.terminal_reason = reason
        if attempt._on_finish is not None:
            attempt._on_finish(attempt, reason)

    def cancel(self, attempt: TierAttempt, reason: str = SPECULATION_CANCELLED) -> bool:
        """Cancel a live attempt; False when its result is already in flight."""
        if attempt.terminal:
            return False
        attempt.cancelled = True
        if attempt.record is None:
            # Request still on the uplink; it is dropped on arrival.
            self._finish(attempt, reason)
            return True
        # Routes through the executor's typed-cancel path; on success
        # its callback fires synchronously and terminates the attempt.
        return self.cloud.cancel(attempt.record, reason)


class VCloudTier(ExecutionTier):
    """A vehicular cloud (dynamic, parking, or RSU-anchored edge) as a tier."""

    cloud: VehicularCloud

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
        return super().reachable() and len(self.cloud.worker_view().ids) > 0

    def queue_delay_estimate(self, now: float) -> float:
        return self.estimator.queue_delay_s(now)

    def estimated_runtime_s(self, work_mi: float) -> float:
        return self.cloud.worker_view().runtime_s(work_mi)

    def _start(
        self, attempt: TierAttempt, remaining_s: Optional[float], on_finish: ExecutorFinish
    ) -> TaskRecord:
        replica = attempt.task.replica(remaining_s)
        return self.cloud.submit(replica, trace_parent=attempt.span, on_finish=on_finish)


class CentralCloudTier(ExecutionTier):
    """The conventional datacenter endpoint as the ``cloud`` tier."""

    cloud: CentralCloud

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

    def queue_delay_estimate(self, now: float) -> float:
        return self.cloud.queue_delay_estimate()

    def estimated_runtime_s(self, work_mi: float) -> float:
        return work_mi / self.cloud.compute_mips

    def _start(
        self, attempt: TierAttempt, remaining_s: Optional[float], on_finish: ExecutorFinish
    ) -> CloudRequest:
        return self.cloud.submit(attempt.task.work_mi, on_finish=on_finish)


class TierTopology:
    """Registry of execution tiers, one submit surface for the offloader."""

    def __init__(self) -> None:
        self._tiers: Dict[str, ExecutionTier] = {}
        self._order: List[str] = []

    def register(self, tier: ExecutionTier) -> ExecutionTier:
        """Add a tier; names must be unique (its constructor checked the level)."""
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
