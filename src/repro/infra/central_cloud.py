"""The conventional central cloud endpoint.

Used as the *conventional cloud* arm of the Fig. 2 comparison (E1), as
the upstream the infrastructure-based v-cloud offloads to, and as the
``cloud`` tier of the tiered federation (``repro.tier``).  Requests
reach it through an RSU or base station, pay WAN latency both ways, and
are processed with ample-but-not-infinite capacity.

It keeps the :class:`~repro.core.vcloud.VehicularCloud` executor
contract: :meth:`CentralCloud.submit` returns the request's record and
calls the ``on_finish`` given with it exactly once, with
``"completed"`` or the typed reason :meth:`CentralCloud.cancel` was
given.  A cancelled request lands in the failure ledger
(``failure_reasons``) instead of vanishing, so tier-level conservation
checks can reconcile remote work exactly.  The queue is not opaque —
:meth:`queue_delay_estimate` exposes the standing delay a new arrival
would face, which the tier health tracker and
:class:`~repro.core.capacity.BacklogEstimator` consumers read instead of
guessing from response latencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..errors import ConfigurationError
from ..sim.engine import EventHandle
from ..sim.world import World


@dataclass(eq=False)
class CloudRequest:
    """One accepted request, from :meth:`CentralCloud.submit` to its outcome."""

    work_mi: float
    #: Wait behind earlier work once the uplink has delivered the request.
    queue_delay_s: float
    #: When processing ends; the response then pays the downlink.
    finish_at: float
    #: Set when the response fires; None while pending or once cancelled.
    completed_at: Optional[float] = None
    #: Called once with ``(request, reason)`` at the terminal outcome.
    on_finish: Optional[Callable[["CloudRequest", str], None]] = field(
        default=None, repr=False
    )
    response_handle: EventHandle = field(init=False, repr=False)


class CentralCloud:
    """A datacenter with a WAN in front and a work queue inside."""

    def __init__(
        self,
        world: World,
        compute_mips: float = 500_000.0,
        wan_delay_s: Optional[float] = None,
    ) -> None:
        if compute_mips <= 0:
            raise ConfigurationError("compute_mips must be positive")
        self.world = world
        self.compute_mips = compute_mips
        self.wan_delay_s = (
            wan_delay_s if wan_delay_s is not None else world.config.channel.wan_delay_s
        )
        #: Virtual time at which the last queued job finishes.
        self._busy_until = 0.0
        self.requests_served = 0
        self.requests_failed = 0
        #: Terminal failures broken down by typed reason (``cancelled``,
        #: ``speculation_cancelled``, ...), mirroring ``CloudStats``.
        self.failure_reasons: Dict[str, int] = {}
        self._pending: Set[CloudRequest] = set()

    def submit(
        self,
        work_mi: float,
        on_finish: Optional[Callable[[CloudRequest, str], None]] = None,
    ) -> CloudRequest:
        """Process ``work_mi`` million instructions; returns the request.

        The response fires after uplink WAN delay, queueing, processing,
        and downlink WAN delay.  ``on_finish`` is called exactly once,
        with ``(request, reason)``: ``"completed"`` when the response
        fires, or the reason the request was cancelled with.
        """
        if work_mi < 0:
            raise ConfigurationError("work_mi must be non-negative")
        arrival = self.world.now + self.wan_delay_s
        start = max(arrival, self._busy_until)
        finish = start + work_mi / self.compute_mips
        self._busy_until = finish
        self.world.metrics.increment("central_cloud/requests")
        request = CloudRequest(work_mi, start - arrival, finish, on_finish=on_finish)
        request.response_handle = self.world.engine.schedule_at(
            finish + self.wan_delay_s,
            functools.partial(self._respond, request),
            label="cloud-response",
        )
        self._pending.add(request)
        return request

    def _respond(self, request: CloudRequest) -> None:
        self._pending.remove(request)
        self.requests_served += 1
        request.completed_at = self.world.now
        if request.on_finish is not None:
            request.on_finish(request, "completed")

    def cancel(self, request: CloudRequest, reason: str = "cancelled") -> bool:
        """Cancel an accepted request before its response fires.

        The cancellation is a terminal, typed failure: it lands in
        ``failure_reasons`` and the metrics ledger, and the request's
        ``on_finish`` is called with the reason — the same contract
        :meth:`~repro.core.vcloud.VehicularCloud.cancel` gives
        speculative replicas.  Returns False when the request is not
        pending here (already responded, cancelled, or another cloud's).
        Reserved processing time is reclaimed when the job had not
        started yet.
        """
        if request not in self._pending:
            return False
        self._pending.remove(request)
        request.response_handle.cancel()
        # Reclaim the queue slot if processing had not begun; work
        # already underway (or done, awaiting the downlink) is sunk.
        start = request.finish_at - request.work_mi / self.compute_mips
        if start >= self.world.now and request.finish_at >= self._busy_until:
            self._busy_until = max(self.world.now, start)
        self.requests_failed += 1
        self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1
        self.world.metrics.increment(f"central_cloud/failures/{reason}")
        if request.on_finish is not None:
            request.on_finish(request, reason)
        return True

    @property
    def backlog_s(self) -> float:
        """Seconds of work currently queued ahead of a new arrival."""
        return max(0.0, self._busy_until - self.world.now)

    def queue_delay_estimate(self) -> float:
        """Queueing delay a request submitted *now* would experience.

        The WAN transit absorbs ``wan_delay_s`` of the backlog before
        the request arrives, so the estimate is the backlog in excess of
        the uplink — exactly the ``queue_delay_s`` the request's
        :class:`CloudRequest` would record.  Tier health trackers and
        backlog estimators read this instead of inferring load from
        response latencies.
        """
        return max(0.0, self._busy_until - (self.world.now + self.wan_delay_s))

    def pending_requests(self) -> int:
        """Accepted requests whose responses have not fired yet."""
        return len(self._pending)
