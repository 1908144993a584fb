"""Differential test of engine batches against one ``schedule`` per entry.

Two engines run the same random program.  On one, a batch is
``engine.batch(label, fn)``; on the other, it is :class:`ScheduleBatch`,
whose every ``add`` is ``schedule(delay, partial(fn, *args), label)``
and whose ``close`` does nothing.  Programs mix plain ``schedule`` and
``schedule_at`` events (some at exactly a batch entry's time), batches
of 0-8 entries with plain schedules between their adds, cancellations
(enough to compact the heap), ``run_until`` cut points (some at exactly
an entry's time), ``step`` and ``drain`` with and without
``max_events``, and callbacks that schedule, open batches, cancel,
step the engine or raise, under every error policy, with and without a
profiler.  After every operation the execution log, the clock, the
event counts, the pending counts (per label too), the failure ledger
and the profiler's per-label counts must be equal.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import Profiler
from repro.sim import ERROR_POLICIES, Engine

#: A small set of delays, so entries and events often share a time.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
LABELS = ("", "a", "frame-delivery")
LABEL = st.sampled_from(LABELS)
#: Callbacks whose token is at least this react no further, which
#: bounds every cascade.
BUDGET = 40


class Boom(Exception):
    """What a raising callback raises."""


class ScheduleBatch:
    """The reference batch: each ``add`` is one ``schedule`` call."""

    def __init__(self, engine, label, fn):
        self.engine = engine
        self.label = label
        self.fn = fn

    def add(self, delay, args):
        self.engine.schedule(delay, functools.partial(self.fn, *args), self.label)

    def close(self):
        pass


class Side:
    """One engine, the program's callbacks on it, and what they logged."""

    def __init__(self, batched, policy, profiled, reactions):
        self.engine = Engine(error_policy=policy)
        self.profiler = Profiler() if profiled else None
        self.engine.profiler = self.profiler
        self.batched = batched
        self.reactions = reactions
        self.log = []
        self.handles = []
        self.entry_times = []
        self.tokens = itertools.count()

    def fire(self, token):
        self.log.append((token, self.engine.now))
        if token < BUDGET:
            for action in self.reactions[token % len(self.reactions)]:
                self.act(action)

    def act(self, action):
        engine = self.engine
        kind = action[0]
        if kind == "schedule":
            _, delay, label = action
            callback = functools.partial(self.fire, next(self.tokens))
            self.handles.append(engine.schedule(delay, callback, label))
        elif kind == "schedule_at_entry":
            _, pick, label = action
            times = [when for when in self.entry_times if when >= engine.now]
            if times:
                callback = functools.partial(self.fire, next(self.tokens))
                self.handles.append(engine.schedule_at(times[pick % len(times)], callback, label))
        elif kind == "batch":
            _, label, items = action
            if self.batched:
                batch = engine.batch(label, self.fire)
            else:
                batch = ScheduleBatch(engine, label, self.fire)
            try:
                for item in items:
                    if item[0] == "tie":
                        # A plain event, then an entry at the same time.
                        self.act(("schedule", item[1], item[2]))
                    if item[0] in ("add", "tie"):
                        self.entry_times.append(engine.now + item[1])
                        batch.add(item[1], (next(self.tokens),))
                    else:
                        self.act(item)
            finally:
                batch.close()
        elif kind == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
        elif kind == "storm":
            doomed = [
                engine.schedule(100.0 + index, functools.partial(self.fire, -1), "a")
                for index in range(action[1])
            ]
            for handle in doomed:
                handle.cancel()
        elif kind == "step":
            engine.step()
        elif kind == "raise":
            raise Boom(f"token fired at t={engine.now}")

    def apply(self, operation):
        """Run one top-level operation; returns its result or its error."""
        engine = self.engine
        kind = operation[0]
        try:
            if kind == "act":
                return self.act(operation[1])
            if kind == "run":
                return engine.run_until(engine.now + operation[1], max_events=operation[2])
            if kind == "run_to_entry":
                times = [when for when in self.entry_times if when >= engine.now]
                if not times:
                    return None
                return engine.run_until(times[operation[1] % len(times)], max_events=operation[2])
            if kind == "step":
                return engine.step()
            return engine.drain(max_events=operation[1])
        except (Boom, SimulationError) as exc:
            return repr(exc)

    def observe(self):
        engine = self.engine
        return {
            "log": list(self.log),
            "now": engine.now,
            "events_executed": engine.events_executed,
            "pending_events": engine.pending_events,
            "pending_labeled": {label: engine.pending_labeled(label) for label in LABELS},
            "failures": list(engine.failures),
            "failure_counts": dict(engine.failure_counts),
            "profile": (
                {profile.label: profile.count for profile in self.profiler.profiles()}
                if self.profiler is not None
                else None
            ),
        }


SCHEDULE = st.tuples(st.just("schedule"), DELAYS, LABEL)
SCHEDULE_AT_ENTRY = st.tuples(st.just("schedule_at_entry"), st.integers(0, 20), LABEL)
ADD = st.tuples(st.just("add"), DELAYS)
#: A plain schedule just before an add at the same delay: an event that
#: ties with an entry and sorts before it.
TIE = st.tuples(st.just("tie"), DELAYS, LABEL)
BATCH_ITEMS = st.lists(
    st.one_of(ADD, TIE, SCHEDULE, SCHEDULE_AT_ENTRY), max_size=12
).filter(lambda items: sum(1 for item in items if item[0] in ("add", "tie")) <= 8)
BATCH = st.tuples(st.just("batch"), LABEL, BATCH_ITEMS)
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 50))
STORM = st.tuples(st.just("storm"), st.sampled_from([70, 130]))
#: Batches weigh double here and at the top level: the merge is what
#: the test is about.
ACTION = st.one_of(BATCH, BATCH, SCHEDULE, SCHEDULE_AT_ENTRY, CANCEL, STORM)
REACTION = st.one_of(
    ACTION,
    st.just(("step",)),
    st.just(("raise",)),
)
REACTIONS = st.lists(st.lists(REACTION, max_size=3), min_size=1, max_size=5)
MAX_EVENTS = st.one_of(st.none(), st.integers(0, 12))
OPERATION = st.one_of(
    st.tuples(st.just("act"), BATCH),
    st.tuples(st.just("act"), ACTION),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.4, 1.0, 3.0]), MAX_EVENTS),
    st.tuples(st.just("run_to_entry"), st.integers(0, 20), MAX_EVENTS),
    st.just(("step",)),
    st.tuples(st.just("drain"), st.sampled_from([0, 1, 3, 10, 10_000])),
)


@pytest.mark.parametrize("profiled", [False, True], ids=["unprofiled", "profiled"])
@pytest.mark.parametrize("policy", ERROR_POLICIES)
@settings(max_examples=80, deadline=None)
@given(reactions=REACTIONS, operations=st.lists(OPERATION, min_size=6, max_size=30))
def test_batches_run_as_one_schedule_per_entry(policy, profiled, reactions, operations):
    batched = Side(True, policy, profiled, reactions)
    reference = Side(False, policy, profiled, reactions)
    # After the drawn operations, run what is left through the merge in
    # ``run_until``, then drain what a cascade queued past its end.
    for operation in operations + [("run", 10.0, None), ("drain", 10_000)]:
        assert batched.apply(operation) == reference.apply(operation), operation
        assert batched.observe() == reference.observe(), operation
