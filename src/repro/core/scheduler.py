"""Task allocation strategies (§III.A, §V.A).

The paper frames allocation as a dwell-estimation problem: "If under
estimated, the computing resources will be under-utilized.  If over
estimated, the vehicle may not be able to finish the task before leaving
the group."  Three allocators bracket the design space:

* :class:`RandomAllocator` — the naive baseline;
* :class:`GreedyResourceAllocator` — fastest free worker, mobility-blind;
* :class:`DwellAwareAllocator` — requires the worker's estimated
  remaining dwell to cover the task's estimated runtime (with a safety
  factor), which is the survey's prescribed fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..errors import TaskError
from ..sim.rng import SeededRng
from .resources import ResourcePool
from .tasks import Task


@dataclass(frozen=True)
class WorkerCandidate:
    """One member considered for an assignment."""

    vehicle_id: str
    free_mips: float
    estimated_dwell_s: float  # estimated remaining time in the cloud
    has_required_sensors: bool = True


@dataclass(frozen=True)
class AllocationChoice:
    """The allocator's pick, with its reasoning surface."""

    vehicle_id: str
    expected_runtime_s: float
    estimated_dwell_s: float

    @property
    def dwell_margin_s(self) -> float:
        """Estimated slack between dwell and runtime."""
        return self.estimated_dwell_s - self.expected_runtime_s


class Allocator:
    """Base allocation strategy."""

    name = "base"

    def choose(
        self, task: Task, candidates: Sequence[WorkerCandidate]
    ) -> Optional[AllocationChoice]:
        """Pick a worker, or None if no candidate is acceptable."""
        raise NotImplementedError

    @staticmethod
    def _eligible(task: Task, candidates: Sequence[WorkerCandidate]) -> List[WorkerCandidate]:
        return [
            c
            for c in candidates
            if c.free_mips > 0 and c.has_required_sensors
        ]

    @staticmethod
    def _choice(task: Task, candidate: WorkerCandidate) -> AllocationChoice:
        return AllocationChoice(
            vehicle_id=candidate.vehicle_id,
            expected_runtime_s=task.runtime_on(candidate.free_mips),
            estimated_dwell_s=candidate.estimated_dwell_s,
        )


class RandomAllocator(Allocator):
    """Uniformly random eligible worker."""

    name = "random"

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng

    def choose(
        self, task: Task, candidates: Sequence[WorkerCandidate]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        return self._choice(task, self.rng.choice(eligible))


class GreedyResourceAllocator(Allocator):
    """Most free compute wins; mobility is ignored."""

    name = "greedy-resource"

    def choose(
        self, task: Task, candidates: Sequence[WorkerCandidate]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        best = max(eligible, key=lambda c: (c.free_mips, c.vehicle_id))
        return self._choice(task, best)


class DwellAwareAllocator(Allocator):
    """Only workers whose dwell covers the runtime; prefer best margin.

    ``safety_factor`` scales the required dwell (1.5 means the worker
    must be expected to stay 50% longer than the task needs).  When no
    candidate passes the dwell gate, behaviour depends on
    ``fallback_to_fastest``: fall back to the greedy pick (optimistic) or
    refuse the assignment (conservative).
    """

    name = "dwell-aware"

    def __init__(self, safety_factor: float = 1.5, fallback_to_fastest: bool = True) -> None:
        if safety_factor <= 0:
            raise TaskError("safety_factor must be positive")
        self.safety_factor = safety_factor
        self.fallback_to_fastest = fallback_to_fastest

    def choose(
        self, task: Task, candidates: Sequence[WorkerCandidate]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        safe = [
            c
            for c in eligible
            if c.estimated_dwell_s >= task.runtime_on(c.free_mips) * self.safety_factor
        ]
        if safe:
            # Among safe workers prefer the fastest (shortest runtime).
            best = min(
                safe, key=lambda c: (task.runtime_on(c.free_mips), c.vehicle_id)
            )
            return self._choice(task, best)
        if not self.fallback_to_fastest:
            return None
        best = max(eligible, key=lambda c: (c.free_mips, c.vehicle_id))
        return self._choice(task, best)


class GatedAllocator(Allocator):
    """Wraps an allocator, filtering candidates through a predicate gate.

    The gate receives ``(task, candidate)`` and returns whether the
    candidate may be considered for this assignment.  This is how
    serving-layer policies (circuit breakers, hedge anti-affinity)
    constrain dispatch without re-implementing allocation: the inner
    allocator still ranks whatever survives the gate.
    """

    name = "gated"

    def __init__(
        self,
        inner: Allocator,
        gate: Callable[[Task, WorkerCandidate], bool],
    ) -> None:
        self.inner = inner
        self.gate = gate

    def choose(
        self, task: Task, candidates: Sequence[WorkerCandidate]
    ) -> Optional[AllocationChoice]:
        admitted = [c for c in candidates if self.gate(task, c)]
        if not admitted:
            return None
        return self.inner.choose(task, admitted)


def candidates_from_pool(
    pool: ResourcePool,
    task: Task,
    dwell_lookup: Callable[[str], float],
    worker_ids: Sequence[str],
) -> List[WorkerCandidate]:
    """One candidate per eligible worker, built in one pass.

    ``worker_ids`` are the members eligible for work, in pool order:
    a cloud passes the ids of its
    :meth:`~repro.core.vcloud.VehicularCloud.worker_view`, which already
    leaves the head out.  Each worker's pool state is read once, and
    ``dwell_lookup`` (vehicle id -> estimated remaining dwell in
    seconds) is called once per worker, in that order.  Free compute
    is read live, so reservations show up at once.
    """
    required = task.required_sensors
    # Positional fields: (vehicle_id, free_mips, estimated_dwell_s,
    # has_required_sensors); keywords cost a quarter of this hot loop.
    return [
        WorkerCandidate(
            vehicle_id, free_mips, dwell_lookup(vehicle_id), required.issubset(offer.sensors)
        )
        for vehicle_id, offer, free_mips in pool.availability(worker_ids)
    ]
