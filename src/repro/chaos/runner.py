"""Chaos campaign runner: seeded runs, campaigns, reproducer capture.

:func:`run_scenario` is the one run loop for chaos and campaign runs:
it arms a built :class:`Scenario`'s fault plans (member faults through a
:class:`~repro.faults.injector.FaultInjector`, WAN faults through a
:class:`~repro.faults.backhaul.BackhaulFaultDriver`), checks the
invariant suite on a fixed cadence while the world runs, and checks it
once more at the end.

:class:`ChaosRunner` drives it per seed.  A *scenario factory* builds a
fresh scenario for a seed; the runner generates a fault campaign for
that seed (:mod:`.generator`), runs it, and reports a
:class:`RunResult`.

On violation, :meth:`ChaosRunner.capture_reproducer` delta-debugs the
fault schedule (:mod:`.minimize`) down to a 1-minimal failing subset —
re-running the whole scenario deterministically for each candidate —
and packages seed, plan, first violation, minimal fault set and a
causal-trace excerpt into a :class:`~.bundle.ReproducerBundle`.

Cross-run determinism: every id comes from the process-global counters
of :mod:`repro.ids`, so the runner rewinds them all before every run
(:func:`~repro.ids.reset_global_ids`).  Two calls to
:meth:`run_seed` with the same arguments are therefore byte-identical
even within one process — the property replay depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ChaosError
from ..faults.backhaul import BackhaulFaultDriver
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..ids import reset_global_ids
from ..sim.world import World
from .bundle import ReproducerBundle
from .generator import ChaosProfile, ChaosTargets, generate_plan
from .invariants import Invariant, InvariantSuite, Violation
from .minimize import ddmin

if TYPE_CHECKING:
    from ..core import VehicularCloud
    from ..dag import DagScheduler
    from ..serve import ServiceGateway
    from ..tier import BackhaulLink, TieredOffloader

#: Span statuses that mark a span as "something went wrong here".
_SUSPECT_STATUSES = ("failed", "error", "dropped", "degraded", "handover")


@dataclass
class Scenario:
    """Everything a run needs from one freshly built world."""

    world: World
    cloud: VehicularCloud
    invariants: List[Invariant]
    channel: Any = None
    infrastructure: Sequence = ()
    node_lookup: Optional[Callable[[str], Optional[object]]] = None
    label: str = "scenario"
    #: Workload wiring a campaign cell adds (None where absent).
    gateway: Optional[ServiceGateway] = None
    dag_scheduler: Optional[DagScheduler] = None
    offloader: Optional[TieredOffloader] = None
    backhaul_link: Optional[BackhaulLink] = None
    #: Metric extractors a campaign cell's vector is read from.
    vector_sources: List[Callable[[], Dict[str, float]]] = field(default_factory=list)

    def targets(self) -> ChaosTargets:
        """Derive the fault-target inventory for plan generation."""
        return ChaosTargets(
            members=self.cloud.member_count(),
            has_channel=self.channel is not None,
            infrastructure=len(self.infrastructure),
        )


@dataclass
class ScenarioRun:
    """The fault ledgers and the invariant suite of one finished run."""

    suite: InvariantSuite
    armed: int
    injected: int
    skipped: int


def run_scenario(
    scenario: Scenario,
    duration_s: float,
    check_interval_s: float,
    plan: Optional[FaultPlan] = None,
    only_indices: Optional[Sequence[int]] = None,
    backhaul_plan: Optional[FaultPlan] = None,
) -> ScenarioRun:
    """Arm the fault plans, run with periodic invariant checks, check once more.

    ``plan`` (optionally only the schedule entries in ``only_indices``)
    targets the fleet, the channel and the RSUs; ``backhaul_plan``
    targets the scenario's WAN link.  A plan left None arms nothing.
    """
    world = scenario.world
    armed = injected = skipped = 0
    injector = None
    if plan is not None:
        injector = FaultInjector(
            world,
            plan,
            cloud=scenario.cloud,
            channel=scenario.channel,
            infrastructure=scenario.infrastructure,
            node_lookup=scenario.node_lookup,
        )
        armed = injector.arm(only_indices)
    driver = None
    if backhaul_plan is not None:
        assert scenario.backhaul_link is not None
        driver = BackhaulFaultDriver(world.engine, scenario.backhaul_link, backhaul_plan)
        driver.arm()
    suite = InvariantSuite(scenario.invariants, metrics=world.metrics)
    suite.attach(world, check_interval_s)
    world.run_for(duration_s)
    suite.check_now(world.now)
    if injector is not None:
        injected += len(injector.ledger)
        skipped += injector.skipped
    if driver is not None:
        injected += len(driver.ledger)
        skipped += len(driver.skipped)
    return ScenarioRun(suite=suite, armed=armed, injected=injected, skipped=skipped)


@dataclass
class RunResult:
    """Outcome of one seeded chaos run."""

    seed: int
    label: str
    schedule_size: int
    armed: int
    injected: int
    skipped: int
    checks_run: int
    violations: List[Violation]
    plan: FaultPlan
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    storage_degraded: int = 0
    scenario: Optional[Scenario] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


@dataclass
class CampaignResult:
    """Aggregate outcome of a multi-seed campaign."""

    label: str
    results: List[RunResult] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def clean_runs(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failing_seeds(self) -> List[int]:
        return [r.seed for r in self.results if not r.ok]

    @property
    def total_injected(self) -> int:
        return sum(r.injected for r in self.results)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    def describe(self) -> str:
        return (
            f"{self.label}: {self.clean_runs}/{self.runs} clean, "
            f"{self.total_injected} faults injected, "
            f"{self.total_violations} violation(s)"
            + (f", failing seeds {self.failing_seeds}" if self.failing_seeds else "")
        )


#: A scenario factory builds a fresh, unstarted scenario for one seed.
ScenarioFactory = Callable[[int], Scenario]


class ChaosRunner:
    """Runs seeded chaos campaigns against a scenario factory."""

    def __init__(
        self,
        factory: ScenarioFactory,
        run_length_s: float = 60.0,
        check_interval_s: float = 1.0,
        profile: Optional[ChaosProfile] = None,
    ) -> None:
        # Written so NaN fails: every comparison with NaN is False.
        if not 0 < run_length_s < math.inf:
            raise ChaosError("run_length_s must be finite and > 0")
        if not 0 < check_interval_s < math.inf:
            raise ChaosError("check_interval_s must be finite and > 0")
        self.factory = factory
        self.run_length_s = run_length_s
        self.check_interval_s = check_interval_s
        self.profile = profile if profile is not None else ChaosProfile()

    # -- single runs ---------------------------------------------------------

    def run_seed(
        self,
        seed: int,
        only_indices: Optional[Sequence[int]] = None,
        observe: bool = False,
    ) -> RunResult:
        """Execute one seeded run; optionally arm only a schedule subset."""
        reset_global_ids()
        scenario = self.factory(seed)
        if observe:
            scenario.world.enable_observability(trace=True, events=True)
        plan = generate_plan(
            seed, self.run_length_s, scenario.targets(), self.profile
        )
        run = run_scenario(
            scenario,
            self.run_length_s,
            self.check_interval_s,
            plan=plan,
            only_indices=only_indices,
        )
        stats = scenario.cloud.stats
        return RunResult(
            seed=seed,
            label=scenario.label,
            schedule_size=len(plan.schedule()),
            armed=run.armed,
            injected=run.injected,
            skipped=run.skipped,
            checks_run=run.suite.checks_run,
            violations=list(run.suite.violations),
            plan=plan,
            submitted=stats.submitted,
            completed=stats.completed,
            failed=stats.failed,
            storage_degraded=stats.storage_degraded,
            scenario=scenario,
        )

    def run_campaign(self, seeds: Sequence[int], label: str = "") -> CampaignResult:
        """Run one seed after another, collecting every result."""
        campaign = CampaignResult(label=label or "campaign")
        for seed in seeds:
            result = self.run_seed(seed)
            if not campaign.label or campaign.label == "campaign":
                campaign.label = result.label
            campaign.results.append(result)
        return campaign

    # -- reproducer capture --------------------------------------------------

    def capture_reproducer(self, seed: int) -> ReproducerBundle:
        """Minimize a failing seed into a replayable reproducer bundle.

        Raises :class:`~repro.errors.ChaosError` if the seed does not
        violate any invariant in the first place.
        """
        base = self.run_seed(seed)
        first = base.first_violation
        if first is None:
            raise ChaosError(
                f"seed {seed} violates no invariant; nothing to minimize"
            )
        target = first.invariant

        def reproduces(subset: Tuple[int, ...]) -> bool:
            result = self.run_seed(seed, only_indices=subset)
            return any(v.invariant == target for v in result.violations)

        minimal, runs = ddmin(range(base.schedule_size), reproduces)
        schedule = base.plan.schedule()
        minimized_specs = tuple(schedule[i] for i in minimal)

        # One final traced replay of the minimal subset for the causal chain.
        traced = self.run_seed(seed, only_indices=minimal, observe=True)
        traced_first = next(
            (v for v in traced.violations if v.invariant == target), first
        )
        excerpt = self._trace_excerpt(traced, traced_first)

        return ReproducerBundle(
            seed=seed,
            run_length_s=self.run_length_s,
            invariant=target,
            violation=traced_first,
            schedule_size=base.schedule_size,
            minimized_indices=tuple(minimal),
            minimized_specs=minimized_specs,
            minimize_runs=runs,
            trace_excerpt=excerpt,
        )

    @staticmethod
    def _trace_excerpt(result: RunResult, violation: Violation) -> Tuple[str, ...]:
        """Render the causal chain nearest the violation, if traced."""
        scenario = result.scenario
        if scenario is None or scenario.world.tracer is None:
            return ()
        tracer = scenario.world.tracer
        suspects = [
            span
            for span in tracer.spans()
            if span.status in _SUSPECT_STATUSES and span.start <= violation.time
        ]
        if not suspects:
            suspects = [
                span for span in tracer.find("fault.") if span.start <= violation.time
            ]
        if not suspects:
            return ()
        anchor = max(suspects, key=lambda span: span.start)
        lines = []
        for span in tracer.explain(anchor):
            status = span.status or "open"
            lines.append(
                f"{span.start:8.3f}s {span.subsystem}/{span.name} [{status}]"
            )
        return tuple(lines)
