"""Memory lifetime: the simulation loop leaves no cyclic garbage.

Whatever a request, a tier attempt, a datacenter request or an engine
event allocates must be freed by reference counting once its owner is
done with it, not left in a reference cycle for the cyclic collector.
The audit builds a scene, runs it once so that lazy imports happen
outside the audit (importing a module can itself leave cyclic garbage),
builds it again, collects, and runs it with the collector disabled:
``gc.collect()`` must then find nothing while the scene is still alive.

The release pins check, through weakrefs, the four references whose
drop breaks the cycles: a spent event's callback, a decided race's
context, a finished tier attempt's callback and a finished datacenter
request's callback.
"""

from __future__ import annotations

import gc
import weakref
from typing import Any, Callable, Dict

import pytest

from repro.campaign import RunSpec
from repro.campaign.scenarios import build_scenario, fault_plans
from repro.campaign.spec import ARCHITECTURES, COMPATIBLE_MOBILITY, WORKLOADS
from repro.chaos import run_scenario
from repro.core import Task
from repro.core.race import COMPLETED, Race, RaceLedger
from repro.ids import reset_global_ids
from repro.infra.central_cloud import CentralCloud
from repro.serve import HedgePolicy, ServiceGateway
from repro.sim.engine import Engine
from repro.tier import VCloudTier

from tests.test_serve import build_cloud, request
from tests.test_tier import OUTAGE_HORIZON_S, build_outage_scenario


def cyclic_garbage(scene: Callable[[], Any]) -> int:
    """Objects only the cyclic collector frees after one audited ``scene()``.

    ``scene`` builds and runs a scene and returns what keeps it alive.
    It runs once as a warm-up, then again with the collector disabled;
    the count is taken while the second scene is still alive.
    """
    scene()
    reset_global_ids()
    gc.collect()
    gc.disable()
    try:
        alive = scene()
        found = gc.collect()
        del alive
        return found
    finally:
        gc.enable()


def campaign_cell(architecture: str, workload: str) -> Callable[[], Any]:
    """A traced campaign cell under its harshest fault profile, ~12 s long."""
    spec = RunSpec(
        campaign="memory-lifetime",
        architecture=architecture,
        workload=workload,
        fault_profile="backhaul" if architecture == "tiered" else "heavy",
        mobility=COMPATIBLE_MOBILITY[architecture][0],
        seed=1,
        members=8,
        run_length_s=8.0,
        drain_s=4.0,
    )

    def scene() -> Any:
        reset_global_ids()
        scenario = build_scenario(spec)
        scenario.world.enable_observability(trace=True, events=True)
        plan, wan_plan = fault_plans(spec, scenario)
        run_scenario(
            scenario,
            spec.run_length_s + spec.drain_s,
            spec.check_interval_s,
            plan=plan,
            backhaul_plan=wan_plan,
        )
        return scenario

    return scene


class TestNoCyclicGarbage:
    # One test per architecture audits all three of its workloads, so
    # every test runs a serving cell, where races and hedge checks live.
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_campaign_cells(self, architecture):
        found: Dict[str, int] = {
            workload: cyclic_garbage(campaign_cell(architecture, workload))
            for workload in WORKLOADS
        }
        assert found == {workload: 0 for workload in WORKLOADS}

    def test_a_hedge_that_fires(self):
        def scene() -> Any:
            reset_global_ids()
            world, _vehicles, cloud = build_cloud(members=3)
            gateway = ServiceGateway(
                world, cloud, name="gw", queue_capacity=8,
                hedging=HedgePolicy(quantile=0.9, fallback_factor=1.5),
            )
            gateway.submit(request(work_mi=400.0, deadline_s=60.0))
            world.run_until(0.5)
            primary = next(iter(gateway._inflight.values())).race.handles[0]
            cloud.stall_worker(primary.worker_id, 30.0)
            world.run_until(30.0)
            assert gateway.stats.hedges_won == 1
            return world, gateway

        assert cyclic_garbage(scene) == 0

    def test_tier_outage_scenario(self):
        def scene() -> Any:
            reset_global_ids()
            world, offloader, suite, driver = build_outage_scenario(77)
            world.run_until(OUTAGE_HORIZON_S)
            assert offloader.stats.submitted > 0
            return world, offloader, suite, driver

        assert cyclic_garbage(scene) == 0


class Probe:
    """A weakly referenceable callback that notes its calls elsewhere."""

    def __init__(self, calls: list) -> None:
        self.calls = calls

    def __call__(self, *args: Any) -> None:
        self.calls.append(args)


class Context:
    """A weakly referenceable race context."""


class Executor:
    """Cancels any attempt at once, settling it in its race."""

    def __init__(self) -> None:
        self.race: Any = None

    def cancel(self, handle: Any, reason: str) -> bool:
        self.race.settle(handle, reason)
        return True


class TestReleasePins:
    def test_a_fired_event_drops_its_callback(self):
        engine, calls = Engine(), []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        handle = engine.schedule(1.0, probe, label="probe")
        del probe
        engine.run_until(2.0)
        assert calls == [()]
        assert pin() is None and handle.time == 1.0

    def test_a_stepped_event_drops_its_callback(self):
        engine, calls = Engine(), []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        handle = engine.schedule(1.0, probe)
        del probe
        assert engine.step()
        assert calls == [()] and pin() is None
        handle.cancel()  # a no-op once fired
        assert not handle.cancelled and engine.pending_events == 0

    def test_a_cancelled_event_drops_its_callback_while_queued(self):
        engine, calls = Engine(), []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        handle = engine.schedule(1.0, probe, label="probe")
        del probe
        handle.cancel()
        assert pin() is None
        assert handle.cancelled and engine.pending_events == 0
        assert engine.pending_labeled("probe") == 0
        engine.run_until(2.0)
        assert calls == []

    def _race(self, calls: list):
        executor = Executor()
        ledger = RaceLedger(
            "test_cancelled",
            on_won=lambda context, winner: calls.append(("won", type(context))),
            on_lost=lambda context, reason: calls.append(("lost", type(context), reason)),
            on_settled=lambda handle, outcome, reason: None,
        )
        context = Context()
        race = executor.race = Race(ledger, context)
        return race, executor, context

    def test_a_won_race_drops_its_context(self):
        calls: list = []
        race, executor, context = self._race(calls)
        pin = weakref.ref(context)
        del context
        first, second = object(), object()
        race.launch([(executor, lambda: first), (executor, lambda: second)])
        race.settle(first, COMPLETED)
        assert calls == [("won", Context)]
        assert race.winner is first and race.live == []
        assert pin() is None

    def test_a_lost_race_drops_its_context(self):
        calls: list = []
        race, executor, context = self._race(calls)
        pin = weakref.ref(context)
        del context
        only = object()
        race.launch([(executor, lambda: only)])
        race.settle(only, "crashed")
        assert calls == [("lost", Context, "crashed")]
        assert pin() is None

    def test_an_aborted_race_drops_its_context(self):
        calls: list = []
        race, executor, context = self._race(calls)
        pin = weakref.ref(context)
        del context
        only = object()
        race.launch([(executor, lambda: only)])
        race.abort()
        assert race.decided and race.live == [] and calls == []
        assert pin() is None

    def test_a_finished_tier_attempt_drops_its_callback(self):
        world, _vehicles, cloud = build_cloud(members=3)
        tier = VCloudTier(world, "local-vc", "local", cloud)
        calls: list = []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        attempt = tier.dispatch(Task(work_mi=200.0), None, probe)
        del probe
        world.run_until(30.0)
        assert calls == [(attempt, "completed")]
        assert attempt.terminal_reason == "completed"
        assert pin() is None

    def test_a_responded_cloud_request_drops_its_callback(self, world):
        cloud, calls = CentralCloud(world), []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        request_ = cloud.submit(500.0, on_finish=probe)
        del probe
        world.run_until(5.0)
        assert calls == [(request_, "completed")]
        assert pin() is None

    def test_a_cancelled_cloud_request_drops_its_callback(self, world):
        cloud, calls = CentralCloud(world), []
        probe = Probe(calls)
        pin = weakref.ref(probe)
        request_ = cloud.submit(500.0, on_finish=probe)
        del probe
        assert cloud.cancel(request_, "speculation_cancelled")
        assert calls == [(request_, "speculation_cancelled")]
        assert pin() is None
        assert not cloud.cancel(request_, "again")
        assert calls == [(request_, "speculation_cancelled")]
