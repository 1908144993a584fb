"""DAG-structured task graphs (ROADMAP item 2, §V.A).

A :class:`TaskGraph` models one job as stages with data dependencies:
each :class:`StageSpec` names the stages whose outputs it consumes, and
every edge carries an intermediate output (sized by the producer's
``output_bytes``) that must survive vehicle churn for the successor to
run.  The graph itself carries the job-level deadline; per-stage tasks
inherit whatever budget remains when they dispatch.

Validation happens at construction: stage names must be unique,
dependencies must reference earlier-declared stages, and the dependency
relation must be acyclic — a malformed graph fails loudly before any
resources are committed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..ids import next_id
from ..mobility.equipment import SensorKind


class GraphState(enum.Enum):
    """Life-cycle states of a whole graph."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class StageStatus(enum.Enum):
    """Life-cycle states of one stage inside a running graph."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class StageSpec:
    """One stage of a task graph: a unit of work plus its inputs."""

    name: str
    work_mi: float
    deps: Tuple[str, ...] = ()
    input_bytes: int = 10_000
    output_bytes: int = 2_000
    required_sensors: FrozenSet[SensorKind] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("stage name must be non-empty")
        if self.work_mi <= 0:
            raise ConfigurationError(f"stage {self.name!r}: work_mi must be positive")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ConfigurationError(
                f"stage {self.name!r}: transfer sizes must be non-negative"
            )
        if len(set(self.deps)) != len(self.deps):
            raise ConfigurationError(f"stage {self.name!r}: duplicate dependency")


@dataclass(frozen=True)
class TaskGraph:
    """An immutable DAG of stages forming one offloadable job."""

    stages: Tuple[StageSpec, ...]
    deadline_s: Optional[float] = None  # relative to submission
    submitter: str = ""
    graph_id: str = field(default_factory=lambda: f"graph-{next_id('graph')}")

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("a task graph needs at least one stage")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive when given")
        names = [spec.name for spec in self.stages]
        if len(set(names)) != len(names):
            raise ConfigurationError("stage names must be unique")
        known = set(names)
        for spec in self.stages:
            for dep in spec.deps:
                if dep not in known:
                    raise ConfigurationError(
                        f"stage {spec.name!r} depends on unknown stage {dep!r}"
                    )
                if dep == spec.name:
                    raise ConfigurationError(f"stage {spec.name!r} depends on itself")
        # Kahn's algorithm detects cycles; the order is cached lazily.
        self._topological_order()

    # -- structure -----------------------------------------------------------

    def stage(self, name: str) -> StageSpec:
        """Look up one stage by name."""
        for spec in self.stages:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"unknown stage {name!r}")

    def stage_names(self) -> List[str]:
        """Stage names in declaration order."""
        return [spec.name for spec in self.stages]

    def predecessors(self, name: str) -> Tuple[str, ...]:
        """Stages whose outputs the named stage consumes."""
        return self.stage(name).deps

    def successors(self, name: str) -> List[str]:
        """Stages that consume the named stage's output, in declaration order."""
        return [spec.name for spec in self.stages if name in spec.deps]

    def roots(self) -> List[str]:
        """Stages with no dependencies (the initial frontier)."""
        return [spec.name for spec in self.stages if not spec.deps]

    def terminals(self) -> List[str]:
        """Stages nothing depends on (their outputs are the graph result)."""
        consumed = {dep for spec in self.stages for dep in spec.deps}
        return [spec.name for spec in self.stages if spec.name not in consumed]

    def _topological_order(self) -> List[str]:
        in_degree: Dict[str, int] = {spec.name: len(spec.deps) for spec in self.stages}
        order: List[str] = []
        # Declaration order breaks ties, keeping the result deterministic.
        ready = [name for name, degree in in_degree.items() if degree == 0]
        while ready:
            name = ready.pop(0)
            order.append(name)
            for succ in self.successors(name):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.stages):
            cyclic = sorted(name for name, degree in in_degree.items() if degree > 0)
            raise ConfigurationError(f"dependency cycle through stages {cyclic}")
        return order

    def topological_order(self) -> List[str]:
        """Stage names in a deterministic dependency-respecting order."""
        return self._topological_order()

    # -- sizing --------------------------------------------------------------

    @property
    def total_work_mi(self) -> float:
        """Sum of all stage work."""
        return sum(spec.work_mi for spec in self.stages)

    def critical_path_mi(self) -> float:
        """Work along the heaviest dependency chain.

        The lower bound on compute time for fully parallel execution:
        no schedule finishes before the critical path does.
        """
        longest: Dict[str, float] = {}
        for name in self.topological_order():
            spec = self.stage(name)
            upstream = max((longest[dep] for dep in spec.deps), default=0.0)
            longest[name] = upstream + spec.work_mi
        return max(longest.values())


def chain(stage_work_mi: Sequence[float], **kwargs) -> TaskGraph:
    """A linear pipeline: each stage feeds the next."""
    stages = []
    prev: Tuple[str, ...] = ()
    for index, work in enumerate(stage_work_mi):
        name = f"s{index}"
        stages.append(StageSpec(name=name, work_mi=work, deps=prev))
        prev = (name,)
    return TaskGraph(stages=tuple(stages), **kwargs)
