"""Message-driven task offloading over the live channel.

The orchestrator (`repro.core.vcloud`) prices coordination analytically;
this module runs the same exchange as *real channel traffic* — a TASK
assignment frame carrying the input payload, worker-side execution, and
a TASK result frame back — so the analytic adapters can be validated
against measured message latency, loss and retries.

Flow per offload::

    head --TASK(assign, input_bytes)--> worker      (may be lost)
    worker: compute remaining_work / mips seconds
    worker --TASK(result, output_bytes)--> head     (may be lost)

Losses are handled with a bounded retransmission timer, as a deployed
protocol would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import TaskError
from ..faults.recovery import BackoffPolicy
from ..ids import next_id
from ..net.messages import Message, MessageKind
from ..net.node import NetworkNode
from ..sim.world import World
from .tasks import Task


@dataclass
class OffloadResult:
    """Outcome of one networked offload exchange."""

    exchange_id: str
    task: Task
    started_at: float
    completed_at: Optional[float] = None
    assign_transmissions: int = 0
    result_transmissions: int = 0
    failed: bool = False
    #: Typed reason for a failed exchange (None while live/successful).
    failure_reason: Optional[str] = None

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end offload latency, None until completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def done(self) -> bool:
        """True once the result frame reached the head."""
        return self.completed_at is not None


class NetworkedTaskExchange:
    """Runs TASK assignment/result frames between two channel nodes."""

    def __init__(
        self,
        world: World,
        head: NetworkNode,
        retry_interval_s: float = 0.5,
        max_retries: int = 5,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if retry_interval_s <= 0 or max_retries < 0:
            raise TaskError("retry_interval_s > 0 and max_retries >= 0 required")
        self.world = world
        self.head = head
        self.retry_interval_s = retry_interval_s
        # Default is a degenerate fixed-interval policy reproducing the
        # historical retry timing exactly (no rng draws, no growth).
        self.backoff = (
            backoff
            if backoff is not None
            else BackoffPolicy.fixed(retry_interval_s, max_retries=max_retries)
        )
        self.max_retries = self.backoff.max_retries
        self._retry_rng = world.rng.fork(f"offload-retry/{head.node_id}")
        self._exchanges: Dict[str, OffloadResult] = {}
        self._workers: Dict[str, NetworkNode] = {}
        self._worker_mips: Dict[str, float] = {}
        head.on(MessageKind.TASK, self._head_handler)

    # -- worker registration ----------------------------------------------

    def register_worker(self, node: NetworkNode, mips: float) -> None:
        """Attach the worker-side protocol handler to a node."""
        if mips <= 0:
            raise TaskError("worker mips must be positive")
        self._workers[node.node_id] = node
        self._worker_mips[node.node_id] = mips
        seen: set = set()
        finished: Dict[str, Message] = {}

        def _send_result(exchange_id: str) -> None:
            result = finished[exchange_id]
            record = self._exchanges.get(exchange_id)
            if record is not None:
                record.result_transmissions += 1
            node.send(self.head.node_id, result)

        def _worker_handler(message: Message, from_id: str) -> None:
            if message.payload.get("phase") != "assign":
                return
            exchange_id = message.payload["exchange_id"]
            if exchange_id in seen:
                # Retransmitted assignment.  If the compute already
                # finished, the earlier result frame must have been lost:
                # resend it.  Otherwise execution is still in flight.
                if exchange_id in finished:
                    _send_result(exchange_id)
                return
            seen.add(exchange_id)
            work_mi = message.payload["work_mi"]
            output_bytes = message.payload["output_bytes"]
            runtime = work_mi / mips

            def _finish() -> None:
                finished[exchange_id] = Message(
                    kind=MessageKind.TASK,
                    src=node.node_id,
                    dst=self.head.node_id,
                    payload={"phase": "result", "exchange_id": exchange_id},
                    size_bytes=max(1, output_bytes),
                    created_at=self.world.now,
                    ttl_hops=0,
                )
                _send_result(exchange_id)

            self.world.engine.schedule(runtime, _finish, label="offload-compute")

        node.on(MessageKind.TASK, _worker_handler)

    # -- head side -----------------------------------------------------------

    def _head_handler(self, message: Message, from_id: str) -> None:
        if message.payload.get("phase") != "result":
            return
        exchange_id = message.payload["exchange_id"]
        record = self._exchanges.get(exchange_id)
        if record is None or record.done:
            return
        record.completed_at = self.world.now

    def offload(self, worker_id: str, task: Task) -> OffloadResult:
        """Start one offload exchange to a registered worker."""
        if worker_id not in self._workers:
            raise TaskError(f"worker not registered: {worker_id!r}")
        exchange_id = f"xchg-{next_id('exchange')}"
        record = OffloadResult(
            exchange_id=exchange_id, task=task, started_at=self.world.now
        )
        self._exchanges[exchange_id] = record
        self._send_assign(record, worker_id, attempt=0)
        return record

    def _send_assign(self, record: OffloadResult, worker_id: str, attempt: int) -> None:
        if record.done or record.failed:
            return
        if attempt > self.max_retries:
            record.failed = True
            record.failure_reason = "retries_exhausted"
            self.world.metrics.increment("offload/retries_exhausted")
            events = self.world.events
            if events is not None:
                events.emit(
                    "task_protocol", "offload_failed", severity="warning",
                    exchange_id=record.exchange_id, worker=worker_id,
                    reason="retries_exhausted", attempts=record.assign_transmissions,
                )
            return
        assign = Message(
            kind=MessageKind.TASK,
            src=self.head.node_id,
            dst=worker_id,
            payload={
                "phase": "assign",
                "exchange_id": record.exchange_id,
                "work_mi": record.task.work_mi,
                "output_bytes": record.task.output_bytes,
            },
            size_bytes=max(1, record.task.input_bytes),
            created_at=self.world.now,
            ttl_hops=0,
        )
        record.assign_transmissions += 1
        self.head.send(worker_id, assign)
        # Retransmit unless the result arrives in time.  The timer spans
        # the expected compute on *this* worker's registered MIPS plus a
        # backoff-governed wait, so only genuinely lost frames retry and
        # repeated losses space out.  A fixed divisor here made fast
        # workers wait far too long and slow workers retransmit while
        # the compute was still legitimately running.
        wait = self.backoff.delay_for(attempt, self._retry_rng)
        expected = record.task.work_mi / self._worker_mips[worker_id] + wait
        self.world.engine.schedule(
            expected,
            lambda: self._send_assign(record, worker_id, attempt + 1),
            label="offload-retry",
        )
