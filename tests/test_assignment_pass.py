"""What one assignment pass costs, and what it must leave unchanged.

An assignment pass asks its cloud's gates once which ids of its worker
view the task may not use, asks the circuit breakers once for the whole
view, and returns plain rows only for the workers that can take the
task, building no ``WorkerCandidate``.  The guards at the bottom pin
that cost.  The state machine runs two identically seeded worlds
through the same rules: one places work through the cloud's gates, the
other through the per-candidate gate they replaced, written out here
(one candidate per worker of the view, the gateway's old gate on each,
then the DAG's, then the inner allocator).
Every pass, every breaker's history and every task's worker sequence
must stay equal between the two.  Two differential tests on hand-built
input follow: the gateway's excluded ids against the per-candidate gate,
with breakers in every state, and the allocators, fed each input both as
named ``WorkerCandidate`` tuples and as plain rows, against their ranks
written as lambda keys.  A split made by the federation keeps its
parent's gates.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    AllocationChoice,
    Allocator,
    CheckpointHandoverPolicy,
    DwellAwareAllocator,
    GreedyResourceAllocator,
    RandomAllocator,
    ResourceOffer,
    ResourcePool,
    Task,
    VehicularCloud,
    WorkerCandidate,
)
from repro.core import vcloud as vcloud_module
from repro.core.federation import CloudFederation
from repro.core.tasks import TaskState
from repro.dag import DagScheduler, RedundancyPlanner, ReliabilityEstimator
from repro.dag.graph import StageSpec, TaskGraph
from repro.faults import BackoffPolicy
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.mobility import SensorKind, StationaryModel, Vehicle
from repro.serve import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerBoard,
    HedgePolicy,
    ServiceGateway,
    ServiceRequest,
)
from repro.sim import ScenarioConfig, SeededRng, World

SEED = 23
#: The gateway's cloud: its head, then five workers.  Equal speeds make
#: a primary outrun the runtime estimate, so hedges fire.
CLOUD_MIPS = (100.0,) * 6
#: A cloud split off the first one: its head, then two workers.
SPLIT_MIPS = (100.0, 90.0, 140.0)
CAMERA = frozenset({SensorKind.CAMERA})
#: Gateway requests run for 2 to 15 s, past a first breaker cooldown.
REQUEST_WORK = st.floats(min_value=200.0, max_value=1500.0)


# -- the per-candidate gate, as it was ----------------------------------------


def per_worker_candidates(pool, task, dwell_lookup, worker_ids):
    """One candidate per worker of the view, assignable or not."""
    return [
        WorkerCandidate(
            worker,
            pool.free_mips(worker),
            dwell_lookup(worker),
            task.required_sensors.issubset(pool.offer_of(worker).sensors),
        )
        for worker in worker_ids
    ]


def per_candidate_gateway_gate(gateway):
    def gate(task, candidate):
        banned = gateway._anti_affinity.get(task.task_id)
        if banned is not None and candidate.vehicle_id in banned:
            return False
        if gateway.breakers is not None and not gateway.breakers.allows(candidate.vehicle_id):
            return False
        return True

    return gate


def per_candidate_dag_gate(scheduler):
    def gate(task, candidate):
        race = scheduler._replica_index.get(task.task_id)
        if race is None:
            return True
        return not any(
            sibling.task is not task
            and sibling.worker_id == candidate.vehicle_id
            and sibling.state in (TaskState.ASSIGNED, TaskState.RUNNING)
            for sibling in race.live
        )

    return gate


class FilteringAllocator(Allocator):
    """An allocator behind a per-candidate predicate, as the gates were."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate

    def choose(self, task, candidates):
        admitted = [c for c in candidates if self.gate(task, c)]
        if not admitted:
            return None
        return self.inner.choose(task, admitted)


class PassLog(Allocator):
    """Outermost on each cloud of both worlds: each pass's view, choice and
    breaker histories.  For the per-candidate gates it first builds the
    candidate list a pass used to build, one per worker of the view."""

    def __init__(self, inner, side, cloud, per_worker):
        self.inner = inner
        self.side = side
        self.cloud = cloud
        self.per_worker = per_worker

    def choose(self, task, candidates):
        cloud = self.cloud
        view = cloud.worker_view().ids
        if self.per_worker:
            candidates = per_worker_candidates(cloud.pool, task, cloud.dwell_lookup, view)
        choice = self.inner.choose(task, candidates)
        self.side.passes.append(
            (view, None if choice is None else choice.vehicle_id, self.side.breaker_histories())
        )
        return choice


# -- one world ----------------------------------------------------------------


def breaker_histories(board):
    return {
        worker: (b.state, b.trips, b._reopen_at, b._probe_inflight)
        for worker, b in board._breakers.items()
    }


def assert_unsettled_tracked(board):
    """An ask walks exactly the board's breakers that are not CLOSED."""
    assert set(board._unsettled) == {
        worker for worker, b in board._breakers.items() if b.state is not BreakerState.CLOSED
    }


class Side:
    """A gateway (breakers and hedging), maybe a DAG scheduler, and a split."""

    def __init__(self, dag: bool, per_candidate: bool) -> None:
        reset_global_ids()
        self.world = world = World(ScenarioConfig(seed=SEED))
        count = len(CLOUD_MIPS) + len(SPLIT_MIPS)
        vehicles = StationaryModel(
            world, positions=[Vec2(i * 30.0, 0.0) for i in range(count)]
        ).populate(count)
        self.ids = [v.vehicle_id for v in vehicles]
        # Some dwells fall short of long stages, so plans ask for replicas.
        dwell = {vid: 4.0 + 3.0 * i for i, vid in enumerate(self.ids)}
        self.cloud = VehicularCloud(
            world,
            "pass-vc",
            handover_policy=CheckpointHandoverPolicy(),
            dwell_lookup=dwell.__getitem__,
        )
        for index, (vehicle, mips) in enumerate(zip(vehicles, CLOUD_MIPS)):
            sensors = CAMERA if index % 2 else frozenset()
            self.cloud.admit(
                vehicle, offer=ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6, sensors)
            )
        self.cloud.enable_worker_leases(lease_duration_s=2.0, sweep_interval_s=0.5)
        self.scheduler = None
        if dag:
            self.scheduler = DagScheduler(
                world,
                self.cloud,
                name="pass",
                reliability=ReliabilityEstimator(self.cloud),
                redundancy=RedundancyPlanner(target_success=0.999, max_replicas=3),
            )
        # Cooldowns shorter than most tasks: breakers come out of their
        # cooldown while their workers are busy.
        self.board = CircuitBreakerBoard(
            world,
            "pass",
            backoff=BackoffPolicy(base_delay_s=0.5, max_delay_s=4.0, max_retries=1_000_000),
        )
        self.gateway = ServiceGateway(
            world,
            self.cloud,
            name="pass",
            queue_capacity=16,
            breakers=self.board,
            hedging=HedgePolicy(fallback_factor=1.0),
            dag=self.scheduler,
        )
        if per_candidate:
            # The gates as they were: inside the allocator, per candidate.
            self.cloud.gates.clear()
            inner = GreedyResourceAllocator()
            if self.scheduler is not None:
                inner = FilteringAllocator(inner, per_candidate_dag_gate(self.scheduler))
            self.cloud.allocator = FilteringAllocator(
                inner, per_candidate_gateway_gate(self.gateway)
            )
        # As CloudFederation._split builds it: the allocator is shared and
        # the gates are copied.
        self.split = VehicularCloud(
            world,
            "pass-vc-split",
            allocator=self.cloud.allocator,
            handover_policy=self.cloud.handover_policy,
            coordination=self.cloud.coordination,
            dwell_lookup=self.cloud.dwell_lookup,
        )
        self.split.gates = list(self.cloud.gates)
        for vehicle, mips in zip(vehicles[len(CLOUD_MIPS):], SPLIT_MIPS):
            self.split.membership.join(vehicle.vehicle_id, world.now, vehicle.position)
            self.split.pool.add_offer(ResourceOffer(vehicle.vehicle_id, mips, 10**9, 1e6))
        self.split.head_id = vehicles[len(CLOUD_MIPS)].vehicle_id
        for cloud in (self.cloud, self.split):
            cloud.allocator = PassLog(cloud.allocator, self, cloud, per_candidate)
        self.passes = []
        self.held = []

    def pool_of(self, worker_id):
        for cloud in (self.cloud, self.split):
            if worker_id in cloud.pool:
                return cloud.pool
        return None

    def breaker_histories(self):
        return breaker_histories(self.board)

    def busy_workers(self):
        return self.cloud.busy_workers() + self.split.busy_workers()

    def assignments(self):
        return [
            [(tuple(r.workers_history), r.state) for r in cloud.records]
            for cloud in (self.cloud, self.split)
        ]


class PassDifferential(RuleBasedStateMachine):
    DAG = False

    def __init__(self) -> None:
        super().__init__()
        self.sides = (Side(self.DAG, per_candidate=False), Side(self.DAG, per_candidate=True))

    def each(self, action):
        for side in self.sides:
            action(side)

    # -- load ----------------------------------------------------------------

    @initialize(works=st.lists(REQUEST_WORK, min_size=1, max_size=3))
    def start_loaded(self, works):
        for work in works:
            self.submit(work, None, 1)

    @rule(
        work=REQUEST_WORK,
        deadline=st.one_of(st.none(), st.floats(min_value=2.0, max_value=40.0)),
        priority=st.integers(min_value=0, max_value=2),
    )
    def submit(self, work, deadline, priority):
        self.each(
            lambda side: side.gateway.submit(
                ServiceRequest.build(work_mi=work, priority=priority, deadline_s=deadline)
            )
        )

    @rule(
        work=st.floats(min_value=50.0, max_value=2500.0),
        camera=st.booleans(),
        split=st.booleans(),
    )
    def submit_direct(self, work, camera, split):
        """A task straight to one cloud; the split's offers carry no camera."""
        sensors = CAMERA if camera else frozenset()
        self.each(
            lambda side: (side.split if split else side.cloud).submit(
                Task(work_mi=work, required_sensors=sensors)
            )
        )

    @precondition(lambda self: self.sides[0].gateway._inflight)
    @rule(data=st.data())
    def hedge_check(self, data):
        """Fire one in-flight request's hedge timer now, as a warm tracker may."""
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.sides[0].gateway._inflight) - 1)
        )
        self.each(lambda side: side.gateway._maybe_hedge(list(side.gateway._inflight)[index]))

    @precondition(lambda self: self.DAG)
    @rule(works=st.lists(st.floats(min_value=100.0, max_value=1500.0), min_size=1, max_size=3))
    def submit_graph(self, works):
        def graph():
            stages = [StageSpec("s0", works[0])]
            stages += [StageSpec(f"s{i}", w, deps=("s0",)) for i, w in enumerate(works[1:], 1)]
            return TaskGraph(stages=tuple(stages))

        self.each(lambda side: side.gateway.submit_graph(graph()))

    # -- breakers ------------------------------------------------------------

    @rule(data=st.data())
    def trip(self, data):
        """Trip any worker, or one that is running a task."""
        side = self.sides[0]
        workers = st.sampled_from(side.ids)
        if side.busy_workers():
            workers = st.one_of(st.sampled_from(side.busy_workers()), workers)
        worker = data.draw(workers)
        self.each(lambda side: side.board.trip(worker, "test"))

    @rule(
        index=st.integers(min_value=0, max_value=len(CLOUD_MIPS) + len(SPLIT_MIPS) - 1),
        ok=st.booleans(),
    )
    def record_outcome(self, index, ok):
        self.each(lambda side: side.board.record_outcome(side.ids[index], ok))

    # -- workers -------------------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=len(CLOUD_MIPS) + len(SPLIT_MIPS) - 1))
    def hold_busy(self, index):
        def hold(side):
            worker = side.ids[index]
            pool = side.pool_of(worker)
            if pool is not None and pool.free_mips(worker) > 0:
                side.held.append(pool.reserve(worker, pool.free_mips(worker)))

        self.each(hold)

    @rule(split=st.booleans())
    def hold_cloud(self, split):
        """Hold every free worker of one cloud, so its passes find none."""

        def hold(side):
            pool = (side.split if split else side.cloud).pool
            for worker in pool.member_ids():
                if pool.free_mips(worker) > 0:
                    side.held.append(pool.reserve(worker, pool.free_mips(worker)))

        self.each(hold)

    @precondition(lambda self: self.sides[0].held)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(min_value=0, max_value=len(self.sides[0].held) - 1))

        def release(side):
            reservation = side.held.pop(index)
            pool = side.pool_of(reservation.vehicle_id)
            if pool is not None:
                pool.release(reservation)

        self.each(release)

    @precondition(lambda self: self.sides[0].cloud.worker_view().ids)
    @rule(data=st.data())
    def crash(self, data):
        """Crash-stop a worker; its lease lapses and trips its breaker."""
        worker = data.draw(st.sampled_from(self.sides[0].cloud.worker_view().ids))
        self.each(lambda side: side.cloud.mark_worker_crashed(worker))

    @rule(
        seconds=st.one_of(
            st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=3.0, max_value=16.0)
        )
    )
    def advance(self, seconds):
        self.each(lambda side: side.world.run_for(seconds))

    # -- the oracle ----------------------------------------------------------

    @invariant()
    def histories_match(self):
        new, old = self.sides
        assert new.passes == old.passes
        assert new.breaker_histories() == old.breaker_histories()
        assert new.assignments() == old.assignments()
        new.passes.clear()
        old.passes.clear()
        assert_unsettled_tracked(new.board)


class PassDifferentialWithDag(PassDifferential):
    DAG = True


SETTINGS = settings(max_examples=80, stateful_step_count=40, deadline=None)
PassDifferential.TestCase.settings = SETTINGS
PassDifferentialWithDag.TestCase.settings = SETTINGS
TestGatewayPassDifferential = PassDifferential.TestCase
TestGatewayDagPassDifferential = PassDifferentialWithDag.TestCase


# -- the gate on hand-built input ----------------------------------------------

GATE_WORKERS = tuple(f"w{i}" for i in range(6))
#: Workers that left: their breakers stay on the board, outside every view.
DEPARTED_WORKERS = ("gone0", "gone1", "gone2")
#: How a worker's breaker stands when a pass reaches it: no breaker,
#: CLOSED, OPEN before or after its cooldown, HALF_OPEN with or without
#: a probe in flight.
BREAKER_SETUPS = (
    "none",
    "closed",
    "open_cooling",
    "open_cooled",
    "half_open_probing",
    "half_open_idle",
)


def gate_gateways(setups):
    """Two breaker gateways on one world whose boards stand identically."""
    world = World(ScenarioConfig(seed=SEED))
    gateways = [
        ServiceGateway(
            world,
            VehicularCloud(world, f"gate-vc-{index}"),
            name=f"gate-{index}",
            # One board name, so both boards fork the same cooldown streams.
            breakers=CircuitBreakerBoard(world, "gate"),
            paced=False,
        )
        for index in range(2)
    ]
    boards = [gateway.breakers for gateway in gateways]
    workers = GATE_WORKERS + DEPARTED_WORKERS
    for board in boards:
        for worker, setup in zip(workers, setups):
            if setup != "none":
                board.breaker_for(worker)
            if setup in ("open_cooled", "half_open_probing", "half_open_idle"):
                board.trip(worker, "test")
    world.run_for(60.0)  # past every first cooldown
    for board in boards:
        for worker, setup in zip(workers, setups):
            if setup.startswith("half_open"):
                assert board.allows(worker)
            if setup == "half_open_probing":
                board.note_dispatch(worker)
            if setup == "open_cooling":
                board.trip(worker, "test")
    for worker, setup in zip(workers, setups):
        breaker = boards[0]._breakers.get(worker)
        if setup.startswith("open"):
            assert breaker.state is BreakerState.OPEN
            assert (breaker.cooldown_remaining_s > 0.0) == (setup == "open_cooling")
        elif setup.startswith("half_open"):
            assert breaker.state is BreakerState.HALF_OPEN
            assert breaker._probe_inflight == (setup == "half_open_probing")
        elif setup == "closed":
            assert breaker.state is BreakerState.CLOSED
    return gateways


class TestGateOnHandBuiltInput:
    @settings(max_examples=300, deadline=None)
    @given(
        # The departed workers' breakers stand CLOSED or OPEN.
        setups=st.tuples(
            st.lists(
                st.sampled_from(BREAKER_SETUPS),
                min_size=len(GATE_WORKERS),
                max_size=len(GATE_WORKERS),
            ),
            st.lists(
                st.sampled_from(("closed", "open_cooling", "open_cooled")),
                min_size=len(DEPARTED_WORKERS),
                max_size=len(DEPARTED_WORKERS),
            ),
        ).map(lambda pair: pair[0] + pair[1]),
        view=st.lists(st.sampled_from(GATE_WORKERS), unique=True),
        banned=st.one_of(st.none(), st.sets(st.sampled_from(GATE_WORKERS))),
    )
    def test_barred_set_gate_matches_per_candidate_gate(self, setups, view, banned):
        new, old = gate_gateways(setups)
        task = Task(work_mi=100.0)
        if banned is not None:
            for gateway in (new, old):
                gateway._anti_affinity[task.task_id] = set(banned)

        excluded = new._gate(task, tuple(view))

        # The per-worker pass built a candidate for every worker of the
        # view and asked the old gate about each, in view order.
        gate = per_candidate_gateway_gate(old)
        admitted = [worker for worker in view if gate(task, WorkerCandidate(worker, 0.0, 0.0))]
        assert [worker for worker in view if worker not in excluded] == admitted
        assert breaker_histories(new.breakers) == breaker_histories(old.breakers)
        assert_unsettled_tracked(new.breakers)


# -- the allocators' ranks -----------------------------------------------------


def lambda_key_choice(task, best):
    return AllocationChoice(
        best.vehicle_id, task.runtime_on(best.free_mips), best.estimated_dwell_s
    )


def lambda_key_eligible(candidates):
    return [c for c in candidates if c.free_mips > 0 and c.has_required_sensors]


def lambda_key_greedy(task, candidates):
    eligible = lambda_key_eligible(candidates)
    if not eligible:
        return None
    return lambda_key_choice(task, max(eligible, key=lambda c: (c.free_mips, c.vehicle_id)))


def lambda_key_dwell_aware(task, candidates, safety_factor, fallback_to_fastest):
    eligible = lambda_key_eligible(candidates)
    if not eligible:
        return None
    safe = [
        c
        for c in eligible
        if c.estimated_dwell_s >= task.runtime_on(c.free_mips) * safety_factor
    ]
    if safe:
        best = min(safe, key=lambda c: (task.runtime_on(c.free_mips), c.vehicle_id))
        return lambda_key_choice(task, best)
    if not fallback_to_fastest:
        return None
    return lambda_key_choice(task, max(eligible, key=lambda c: (c.free_mips, c.vehicle_id)))


def lambda_key_random(task, candidates, rng):
    eligible = lambda_key_eligible(candidates)
    if not eligible:
        return None
    return lambda_key_choice(task, rng.choice(eligible))


RANK_WORK_MI = 1200.0
RANK_SEED = 31
#: Ties, zero and negative free compute.
RANK_FREE_MIPS = st.sampled_from((-50.0, 0.0, 100.0, 150.0, 300.0, 400.0))
#: Few ids, so candidates tie on id as well.
RANK_IDS = st.sampled_from(("a", "b", "c", "d"))
#: A dwell exactly at runtime x factor ("edge", on the safety test's
#: boundary), NaN, or any other.
RANK_DWELLS = st.one_of(st.just("edge"), st.just(math.nan), st.floats(0.0, 60.0))


class TestAllocatorRanks:
    @settings(max_examples=400, deadline=None)
    @given(
        safety_factor=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
        fallback_to_fastest=st.booleans(),
        rows=st.lists(
            st.tuples(
                RANK_IDS, RANK_FREE_MIPS, RANK_DWELLS, st.sampled_from((True, True, True, False))
            ),
            max_size=8,
        ),
    )
    def test_allocators_match_their_lambda_keys(self, safety_factor, fallback_to_fastest, rows):
        task = Task(work_mi=RANK_WORK_MI)
        candidates = [
            WorkerCandidate(
                vehicle_id,
                free,
                (task.runtime_on(free) * safety_factor if free > 0 else 0.0)
                if dwell == "edge"
                else dwell,
                sensors,
            )
            for vehicle_id, free, dwell, sensors in rows
        ]
        greedy_key = lambda_key_greedy(task, candidates)
        dwell_aware_key = lambda_key_dwell_aware(
            task, candidates, safety_factor, fallback_to_fastest
        )
        random_key = lambda_key_random(task, candidates, SeededRng(RANK_SEED, "rank"))

        # An assignment pass hands the allocators plain tuples in the same
        # field order; both forms must choose alike.
        for given_rows in (candidates, [tuple(c) for c in candidates]):
            # repr compares every field and reads a NaN dwell as equal to itself.
            greedy = GreedyResourceAllocator().choose(task, given_rows)
            assert repr(greedy) == repr(greedy_key)
            dwell_aware = DwellAwareAllocator(safety_factor, fallback_to_fastest).choose(
                task, given_rows
            )
            assert repr(dwell_aware) == repr(dwell_aware_key)
            picked = RandomAllocator(SeededRng(RANK_SEED, "rank")).choose(task, given_rows)
            assert repr(picked) == repr(random_key)


class TestPassCost:
    def build(self, world, free_count):
        """A 60-worker cloud behind a breaker gateway, ``free_count`` free."""
        workers = 60
        vehicles = StationaryModel(
            world, positions=[Vec2(i * 20.0, 0.0) for i in range(workers + 1)]
        ).populate(workers + 1)
        lookups = []

        def dwell_lookup(vehicle_id):
            lookups.append(vehicle_id)
            return 1e9

        cloud = VehicularCloud(world, "cost-vc", dwell_lookup=dwell_lookup)
        for vehicle in vehicles:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6))
        board = CircuitBreakerBoard(world, "cost")
        ServiceGateway(world, cloud, name="cost", breakers=board, hedging=HedgePolicy())
        view = cloud.worker_view().ids
        assert len(view) == workers
        free = [view[workers // 2 + i] for i in range(free_count)]
        for worker in view:
            assert board.breaker_for(worker).state is BreakerState.CLOSED
            if worker not in free:
                cloud.pool.reserve(worker, cloud.pool.free_mips(worker))
        return cloud, board, view, free, lookups

    def count_calls(self, monkeypatch):
        """Record pool scans and the rows they return, ``WorkerCandidate``
        tuples built, offers read and breakers asked.

        A pass calls ``candidates_from_pool`` through the module global
        of :mod:`repro.core.vcloud`, which the traced benchmark wraps by
        name to count scans.
        """
        calls = {"scans": [], "rows": [], "built": [], "offers": [], "board": [], "breaker": []}
        scan = vcloud_module.candidates_from_pool
        new = WorkerCandidate.__new__
        offer_of = ResourcePool.offer_of
        board_allows = CircuitBreakerBoard.allows
        allows = CircuitBreaker.allows

        def counting_scan(pool, task, dwell_lookup, worker_ids, excluded=()):
            calls["scans"].append(tuple(worker_ids))
            rows = scan(pool, task, dwell_lookup, worker_ids, excluded)
            calls["rows"].extend(rows)
            return rows

        # A NamedTuple is built by its ``__new__``; it has no ``__init__``.
        def counting_new(cls, *args, **kwargs):
            calls["built"].append(args[0] if args else kwargs["vehicle_id"])
            return new(cls, *args, **kwargs)

        def counting_offer_of(pool, vehicle_id):
            calls["offers"].append(vehicle_id)
            return offer_of(pool, vehicle_id)

        def counting_board_allows(board, worker_id):
            calls["board"].append(worker_id)
            return board_allows(board, worker_id)

        def counting_allows(breaker):
            calls["breaker"].append(breaker.name)
            return allows(breaker)

        monkeypatch.setattr(vcloud_module, "candidates_from_pool", counting_scan)
        monkeypatch.setattr(WorkerCandidate, "__new__", counting_new)
        monkeypatch.setattr(ResourcePool, "offer_of", counting_offer_of)
        monkeypatch.setattr(CircuitBreakerBoard, "allows", counting_board_allows)
        monkeypatch.setattr(CircuitBreaker, "allows", counting_allows)
        return calls

    def test_a_pass_costs_its_free_workers(self, world, monkeypatch):
        cloud, _, view, (free,), lookups = self.build(world, free_count=1)
        calls = self.count_calls(monkeypatch)
        lookups.clear()
        record = cloud.submit(Task(work_mi=100.0))

        assert record.worker_id == free
        assert calls["scans"] == [view]
        assert calls["rows"] == [(free, 100.0, 1e9, True)]
        assert calls["built"] == []
        assert set(calls["breaker"]) <= {free}
        assert lookups == list(view)
        assert calls["offers"] == []
        assert calls["board"] == []

    def test_a_barred_worker_costs_no_candidate(self, world, monkeypatch):
        cloud, board, view, free, lookups = self.build(world, free_count=2)
        # Trip the worker the greedy rank prefers: the greater id.
        tripped, other = max(free), min(free)
        board.trip(tripped, "test")
        assert board.breaker_for(tripped).cooldown_remaining_s > 0.0
        calls = self.count_calls(monkeypatch)
        lookups.clear()
        record = cloud.submit(Task(work_mi=100.0))

        assert record.worker_id == other
        assert calls["scans"] == [view]
        assert calls["rows"] == [(other, 100.0, 1e9, True)]
        assert calls["built"] == []
        assert calls["board"] == []
        assert calls["breaker"] == [tripped]
        assert lookups == list(view)
        assert calls["offers"] == []

    def test_every_retry_is_one_scan(self, world, monkeypatch):
        cloud, _, view, _, lookups = self.build(world, free_count=0)
        calls = self.count_calls(monkeypatch)
        lookups.clear()
        record = cloud.submit(Task(work_mi=100.0))
        world.run_for(2.5)  # retries at 1 s and 2 s

        assert record.worker_id is None
        assert calls["scans"] == [view] * 3
        assert calls["rows"] == []
        assert calls["built"] == []
        assert lookups == list(view) * 3
        assert calls["board"] == []


class TestSiblingGate:
    """The DAG's gate keeps a replica off the worker a live sibling holds."""

    def test_a_sibling_keeps_its_worker_while_it_is_free(self, world):
        vehicles = StationaryModel(
            world, positions=[Vec2(i * 30.0, 0.0) for i in range(3)]
        ).populate(3)
        # Short dwells make the plan ask for two replicas.
        cloud = VehicularCloud(
            world,
            "sibling-vc",
            handover_policy=CheckpointHandoverPolicy(),
            dwell_lookup=lambda _vid: 1.0,
        )
        for vehicle in vehicles:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6))
        DagScheduler(
            world,
            cloud,
            name="sibling",
            reliability=ReliabilityEstimator(cloud),
            redundancy=RedundancyPlanner(target_success=0.999, max_replicas=2),
        ).submit(TaskGraph(stages=(StageSpec("s0", 5000.0),)))
        first, second = cloud.records
        held = first.worker_id
        assert held is not None and second.worker_id not in (None, held)

        # The second replica's worker leaves, so it is handed over while
        # its sibling holds the one worker left.
        cloud.member_leave(second.worker_id)
        assert cloud.worker_view().ids == (held,)
        assert second.worker_id is None
        # As between a sibling's completion and its result's arrival, the
        # worker it holds has free compute.
        cloud.pool.release(cloud._executions[first.task.task_id].reservation)
        world.run_for(2.5)

        assert first.worker_id == held
        assert first.state in (TaskState.ASSIGNED, TaskState.RUNNING)
        assert second.worker_id is None


class TestFederationSplit:
    """A split made by ``CloudFederation._split`` keeps its parent's gates."""

    def test_split_keeps_the_gates_of_its_parent(self, world):
        # Two knots of equal workers 1 km apart: the far one secedes.
        near = [Vehicle(position=Vec2(i * 30.0, 0.0)) for i in range(3)]
        far = [Vehicle(position=Vec2(1000.0 + i * 30.0, 0.0)) for i in range(3)]
        lookup = {v.vehicle_id: v for v in near + far}
        cloud = VehicularCloud(world, "stretched")
        for vehicle in near + far:
            cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6))
        board = CircuitBreakerBoard(world, "split")
        ServiceGateway(world, cloud, name="split", breakers=board)
        federation = CloudFederation(world, lookup.get, merge_range_m=150.0, max_diameter_m=600.0)
        federation.register(cloud)
        federation.step()
        (split,) = [c for c in federation.clouds if c is not cloud]
        view = split.worker_view().ids
        assert len(view) == 2 and set(view) <= {v.vehicle_id for v in far}

        # Among equal workers the greedy rank prefers the greater id.
        tripped = max(view)
        board.trip(tripped, "test")
        assert board.breaker_for(tripped).cooldown_remaining_s > 0.0
        placed = split.submit(Task(work_mi=100.0))
        starved = split.submit(Task(work_mi=100.0))
        assert placed.worker_id == min(view)
        assert starved.worker_id is None

        # A gate registered after the split belongs to its own cloud.
        seen = {"parent": [], "split": []}
        cloud.gates.append(lambda _task, worker_ids: seen["parent"].append(worker_ids) or ())
        split.gates.append(lambda _task, worker_ids: seen["split"].append(worker_ids) or ())
        cloud.submit(Task(work_mi=100.0))
        assert seen == {"parent": [cloud.worker_view().ids], "split": []}
        split.submit(Task(work_mi=100.0))
        assert seen == {"parent": [cloud.worker_view().ids], "split": [view]}
