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
from operator import itemgetter
from typing import Callable, Collection, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import TaskError
from ..sim.rng import SeededRng
from .resources import ResourcePool
from .tasks import Task


class WorkerCandidate(NamedTuple):
    """One member considered for an assignment, with its fields named.

    A :class:`typing.NamedTuple`, so a candidate is a tuple: its fields
    are read-only, and it equals (and hashes like) any tuple of the same
    values.  An assignment pass builds none: :func:`candidates_from_pool`
    returns plain tuples in this field order (a :data:`CandidateRow`),
    and every allocator reads a candidate by position, so a hand-built
    candidate and a pass's row choose the same worker.
    """

    vehicle_id: str
    free_mips: float
    estimated_dwell_s: float  # estimated remaining time in the cloud
    has_required_sensors: bool = True


#: A candidate as allocators read it: a :class:`WorkerCandidate` or a
#: plain ``(vehicle_id, free_mips, estimated_dwell_s,
#: has_required_sensors)`` tuple in the same order.
CandidateRow = Tuple[str, float, float, bool]


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
        self, task: Task, candidates: Sequence[CandidateRow]
    ) -> Optional[AllocationChoice]:
        """Pick a worker, or None if no candidate is acceptable."""
        raise NotImplementedError

    @staticmethod
    def _eligible(task: Task, candidates: Sequence[CandidateRow]) -> List[CandidateRow]:
        # Positions 1 and 3: free compute and the task's sensors.
        return [c for c in candidates if c[1] > 0 and c[3]]

    @staticmethod
    def _choice(task: Task, candidate: CandidateRow) -> AllocationChoice:
        vehicle_id, free_mips, dwell_s, _ = candidate
        return AllocationChoice(vehicle_id, task.runtime_on(free_mips), dwell_s)


class RandomAllocator(Allocator):
    """Uniformly random eligible worker."""

    name = "random"

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng

    def choose(
        self, task: Task, candidates: Sequence[CandidateRow]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        return self._choice(task, self.rng.choice(eligible))


#: The greedy rank of candidates: most free compute, ties to the greater id.
_BY_FREE_MIPS = itemgetter(1, 0)
#: Rank of the ``(runtime_s, vehicle_id, estimated_dwell_s)`` rows of
#: dwell-safe candidates: shortest runtime, ties to the smaller id.
_BY_RUNTIME = itemgetter(0, 1)


class GreedyResourceAllocator(Allocator):
    """Most free compute wins; mobility is ignored."""

    name = "greedy-resource"

    def choose(
        self, task: Task, candidates: Sequence[CandidateRow]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        return self._choice(task, max(eligible, key=_BY_FREE_MIPS))


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
        if not safety_factor > 0:  # NaN fails too
            raise TaskError("safety_factor must be positive")
        self.safety_factor = safety_factor
        self.fallback_to_fastest = fallback_to_fastest

    def choose(
        self, task: Task, candidates: Sequence[CandidateRow]
    ) -> Optional[AllocationChoice]:
        eligible = self._eligible(task, candidates)
        if not eligible:
            return None
        factor = self.safety_factor
        # One runtime per candidate, for both the dwell gate and the rank.
        safe = [
            (runtime_s, vehicle_id, dwell_s)
            for vehicle_id, free_mips, dwell_s, _ in eligible
            for runtime_s in (task.runtime_on(free_mips),)
            if dwell_s >= runtime_s * factor
        ]
        if safe:
            # Among safe workers prefer the fastest (shortest runtime).
            runtime_s, vehicle_id, dwell_s = min(safe, key=_BY_RUNTIME)
            return AllocationChoice(vehicle_id, runtime_s, dwell_s)
        if not self.fallback_to_fastest:
            return None
        return self._choice(task, max(eligible, key=_BY_FREE_MIPS))


def candidates_from_pool(
    pool: ResourcePool,
    task: Task,
    dwell_lookup: Callable[[str], float],
    worker_ids: Sequence[str],
    excluded: Collection[str] = (),
) -> List[CandidateRow]:
    """The assignable workers of one pass, as candidate rows.

    ``worker_ids`` are the members eligible for work, in pool order:
    a cloud passes the ids of its
    :meth:`~repro.core.vcloud.VehicularCloud.worker_view`, which already
    leaves the head out.  One scan: a single pool read returns every
    worker's state (and raises for an id without an offer, before any
    lookup runs), and each worker's offer and reservation are then read
    from its state.  ``dwell_lookup`` (vehicle id -> estimated remaining
    dwell in seconds) is the only call made per worker, once for
    *every* worker, in that order, since a lookup may draw from a
    seeded stream.  A row is returned only for a worker with free
    compute that carries the task's sensors and is not ``excluded``
    (the ids the cloud's gates bar for this task); the rest could never
    be chosen.  Each row is a plain tuple in :class:`WorkerCandidate`'s
    field order, ``(vehicle_id, free_mips, estimated_dwell_s, True)``,
    so a pass builds no :class:`WorkerCandidate`.  Free compute is read
    live, so reservations show up at once.
    """
    required = task.required_sensors
    return [
        (vehicle_id, free_mips, dwell_s, True)
        for vehicle_id, state, dwell_s in zip(
            worker_ids, pool.member_states(worker_ids), map(dwell_lookup, worker_ids)
        )
        if (free_mips := state.offer.compute_mips - state.reserved_mips) > 0
        and (not required or required.issubset(state.offer.sensors))
        and vehicle_id not in excluded
    ]
