"""Task model for vehicular cloud computing.

A :class:`Task` is a unit of offloadable work with a deadline, input and
output transfer sizes, and optional sensor requirements ("what kind of
sensors this vehicle has", §V.A).  A :class:`TaskRecord` tracks one
task's life cycle, including the checkpoint fraction used by handover —
the paper's alternative to "simply dropping unfinished tasks".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..errors import TaskError
from ..ids import next_id
from ..mobility.equipment import SensorKind


class TaskState(enum.Enum):
    """Life-cycle states of a cloud task."""

    PENDING = "pending"
    ASSIGNED = "assigned"
    RUNNING = "running"
    COMPLETED = "completed"
    HANDED_OVER = "handed_over"
    DROPPED = "dropped"
    FAILED = "failed"


@dataclass(frozen=True)
class Task:
    """An offloadable computation."""

    work_mi: float  # million instructions
    input_bytes: int = 10_000
    output_bytes: int = 2_000
    deadline_s: Optional[float] = None  # relative to submission
    required_sensors: FrozenSet[SensorKind] = frozenset()
    submitter: str = ""
    task_id: str = field(default_factory=lambda: f"task-{next_id('task')}")

    def __post_init__(self) -> None:
        if self.work_mi <= 0:
            raise TaskError("work_mi must be positive")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise TaskError("transfer sizes must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise TaskError("deadline_s must be positive when given")

    def runtime_on(self, mips: float) -> float:
        """Pure compute time on a worker with the given rate."""
        if mips <= 0:
            raise TaskError("mips must be positive")
        return self.work_mi / mips


@dataclass
class TaskRecord:
    """Mutable execution bookkeeping for one task."""

    task: Task
    submitted_at: float
    state: TaskState = TaskState.PENDING
    worker_id: Optional[str] = None
    assigned_at: Optional[float] = None
    completed_at: Optional[float] = None
    progress: float = 0.0  # completed fraction, preserved across handover
    handovers: int = 0
    reassignments: int = 0
    wasted_work_mi: float = 0.0  # progress discarded by drops
    workers_history: List[str] = field(default_factory=list)

    @property
    def remaining_work_mi(self) -> float:
        """Work still to do given the preserved progress.

        Clamped at zero: float rounding near full progress (e.g. a
        checkpoint at ``1.0 - 1e-17``) must never surface as negative
        remaining work, which would corrupt downstream runtime math.
        """
        return max(0.0, self.task.work_mi * (1.0 - self.progress))

    @property
    def completion_latency_s(self) -> Optional[float]:
        """Submission-to-completion delay, None until completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def met_deadline(self) -> Optional[bool]:
        """Whether the deadline held; None if no deadline or unfinished."""
        if self.task.deadline_s is None or self.completed_at is None:
            return None
        return self.completion_latency_s <= self.task.deadline_s

    # -- transitions ---------------------------------------------------------

    def assign(self, worker_id: str, now: float) -> None:
        """Bind the task to a worker."""
        if self.state not in (TaskState.PENDING, TaskState.HANDED_OVER, TaskState.DROPPED):
            raise TaskError(f"cannot assign task in state {self.state}")
        if self.state is not TaskState.PENDING:
            self.reassignments += 1
        self.state = TaskState.ASSIGNED
        self.worker_id = worker_id
        self.assigned_at = now
        self.workers_history.append(worker_id)

    def start(self) -> None:
        """Worker begins executing."""
        if self.state is not TaskState.ASSIGNED:
            raise TaskError(f"cannot start task in state {self.state}")
        self.state = TaskState.RUNNING

    def checkpoint(self, progress: float) -> None:
        """Record completed fraction (monotone non-decreasing)."""
        if not 0.0 <= progress <= 1.0:
            raise TaskError("progress must be in [0, 1]")
        if progress < self.progress:
            raise TaskError("progress cannot go backwards")
        self.progress = progress

    def complete(self, now: float) -> None:
        """Mark the task finished."""
        if self.state is not TaskState.RUNNING:
            raise TaskError(f"cannot complete task in state {self.state}")
        self.state = TaskState.COMPLETED
        self.progress = 1.0
        self.completed_at = now

    def hand_over(self) -> None:
        """Preserve progress and detach from the departing worker."""
        if self.state not in (TaskState.ASSIGNED, TaskState.RUNNING):
            raise TaskError(f"cannot hand over task in state {self.state}")
        self.state = TaskState.HANDED_OVER
        self.handovers += 1
        self.worker_id = None

    def drop(self) -> None:
        """Discard progress (the conventional-cloud behaviour)."""
        if self.state not in (TaskState.ASSIGNED, TaskState.RUNNING):
            raise TaskError(f"cannot drop task in state {self.state}")
        self.wasted_work_mi += self.task.work_mi * self.progress
        self.progress = 0.0
        self.state = TaskState.DROPPED
        self.worker_id = None

    def fail(self) -> None:
        """Terminal failure (deadline blown, no eligible worker, ...)."""
        self.state = TaskState.FAILED
        self.worker_id = None
