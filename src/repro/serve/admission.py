"""Admission control and load shedding policies.

Admission decides at the door; shedding revisits the queue as
conditions change.  Both return *typed reasons* — a request is never
turned away silently, because the gateway ledgers every reason into its
stats, the metrics registry and the event log (the serving-path
equivalent of the task failure ledger).

The policies are deliberately small and composable:

* :class:`AdmitAll` — the unprotected baseline;
* :class:`DeadlineFeasibilityAdmission` — reject work that cannot meet
  its deadline even if dispatched after the current backlog drains;
* :class:`QueueDelayAdmission` — bound the estimated standing queue
  delay (utilization-based overload control);
* :class:`TenantFairShareAdmission` — per-tenant backpressure: no
  tenant may hold more than its weighted share of queue + in-flight
  slots while others are waiting;
* :class:`CompositeAdmission` — first rejection wins;
* :class:`DeadlineLapseShedder` / :class:`QueueDelayShedder` — queue
  revisitation under overload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from ..errors import ConfigurationError
from .request import ServiceRequest

if TYPE_CHECKING:
    from .gateway import ServiceGateway


class AdmissionPolicy(Protocol):
    """Reviews one request at the door."""

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        """Return a typed rejection reason, or None to admit."""
        ...


class SheddingPolicy(Protocol):
    """Sheds queued requests once conditions have degraded."""

    def shed(self, gateway: "ServiceGateway") -> int:
        """Shed victims via the gateway's typed shed path; return count."""
        ...


class AdmitAll:
    """No admission control — the congestion-collapse baseline."""

    name = "admit-all"

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        return None


class DeadlineFeasibilityAdmission:
    """Reject requests whose deadline is already infeasible at arrival.

    Feasibility estimate: the request must wait for the standing
    backlog to drain (queued work / aggregate capacity), then run on a
    typical worker (work / mean per-worker MIPS), plus a configurable
    dispatch overhead.  If that exceeds the deadline with the safety
    margin applied, admitting it would only burn capacity on work that
    is going to miss — the definition of goodput-destroying load.
    """

    name = "deadline-feasibility"

    def __init__(self, margin: float = 1.0, overhead_s: float = 0.1) -> None:
        if margin <= 0:
            raise ConfigurationError("margin must be positive")
        if overhead_s < 0:
            raise ConfigurationError("overhead_s must be non-negative")
        self.margin = margin
        self.overhead_s = overhead_s

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        deadline = request.deadline_s
        if deadline is None:
            return None
        expected = (
            gateway.estimated_queue_delay_s()
            + gateway.estimated_runtime_s(request.task.work_mi)
            + self.overhead_s
        )
        if expected * self.margin > deadline:
            return "deadline_infeasible"
        return None


class QueueDelayAdmission:
    """Reject when the estimated standing queue delay exceeds a bound."""

    name = "queue-delay"

    def __init__(self, max_delay_s: float) -> None:
        if max_delay_s <= 0:
            raise ConfigurationError("max_delay_s must be positive")
        self.max_delay_s = max_delay_s

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        if gateway.estimated_queue_delay_s() > self.max_delay_s:
            return "queue_delay"
        return None


class TenantFairShareAdmission:
    """Per-tenant fair backpressure on outstanding (queued + in-flight) work.

    A tenant may hold at most ``max(floor(share * total_slots), min_slots)``
    outstanding requests, where ``total_slots`` is the queue capacity
    plus the dispatch capacity.  A single hot tenant therefore saturates
    its own share and gets ``tenant_backpressure`` rejections while
    other tenants keep being admitted — overload isolation, not global
    fairness scheduling.
    """

    name = "tenant-fair-share"

    def __init__(self, share: float = 0.5, min_slots: int = 2) -> None:
        if not 0.0 < share <= 1.0:
            raise ConfigurationError("share must be in (0, 1]")
        if min_slots < 1:
            raise ConfigurationError("min_slots must be >= 1")
        self.share = share
        self.min_slots = min_slots

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        total_slots = gateway.total_slots()
        if total_slots is None:
            # Unbounded queue: there is no finite denominator to share,
            # so fair-share backpressure cannot bind — admit.
            return None
        allowance = max(int(self.share * total_slots), self.min_slots)
        if gateway.tenant_outstanding(request.tenant) >= allowance:
            return "tenant_backpressure"
        return None


class CompositeAdmission:
    """Chains policies; the first rejection wins."""

    name = "composite"

    def __init__(self, policies: Sequence[AdmissionPolicy]) -> None:
        self.policies = list(policies)

    def review(self, request: ServiceRequest, gateway: "ServiceGateway") -> Optional[str]:
        for policy in self.policies:
            reason = policy.review(request, gateway)
            if reason is not None:
                return reason
        return None


class DeadlineLapseShedder:
    """Shed queued requests whose deadline has become infeasible.

    Admission feasibility was judged at arrival; churn or breaker trips
    can shrink capacity afterwards.  Requests that can no longer make
    their deadline are dead weight: shedding them (typed reason
    ``deadline_lapsed``) frees their queue slot for work that can still
    succeed.
    """

    name = "deadline-lapse"

    def shed(self, gateway: "ServiceGateway") -> int:
        now = gateway.world.now
        victims: List[ServiceRequest] = []
        for request in gateway.queue.items():
            deadline = request.deadline_s
            if deadline is None:
                continue
            runtime = gateway.estimated_runtime_s(request.task.work_mi)
            if now + runtime > request.arrived_at + deadline:
                victims.append(request)
        for request in victims:
            gateway.shed_queued(request, "deadline_lapsed")
        return len(victims)


class QueueDelayShedder:
    """Shed from the tail while the estimated queue delay is too high.

    The utilization/queue-delay signal: when the backlog implies more
    standing delay than ``max_delay_s``, requests are evicted in
    deterministic tail order (worst priority, newest first) until the
    estimate is back under the bound.
    """

    name = "queue-delay-shed"

    def __init__(self, max_delay_s: float) -> None:
        if max_delay_s <= 0:
            raise ConfigurationError("max_delay_s must be positive")
        self.max_delay_s = max_delay_s

    def shed(self, gateway: "ServiceGateway") -> int:
        shed = 0
        while (
            len(gateway.queue) > 0
            and gateway.estimated_queue_delay_s() > self.max_delay_s
            and gateway.shed_tail("queue_delay")
        ):
            shed += 1
        return shed
