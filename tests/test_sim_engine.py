"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.obs import Profiler
from repro.sim import Engine, SeededRng


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_schedule_and_run(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run_until(2.0)
        assert fired == [1.0]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-0.1, lambda: None)

    def test_schedule_at_past_raises(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run_until(1.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_nan_times_are_rejected(self):
        # Every comparison with NaN is false, so guards written as
        # "delay < 0" or "when < now" would queue the event, and it
        # would run with the clock set to NaN.
        engine = Engine()
        clock = []
        for t in range(1, 8):
            engine.schedule(float(t), lambda: clock.append(engine.now))
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: clock.append(engine.now))
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: clock.append(engine.now))
        with pytest.raises(SimulationError):
            engine.run_until(float("nan"))
        engine.run_until(10.0)
        assert clock == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert engine.pending_events == 0

    def test_events_execute_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run_until(5.0)
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        engine = Engine()
        order = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_run_until_sets_clock_exactly(self):
        engine = Engine()
        engine.run_until(7.5)
        assert engine.now == 7.5

    def test_run_until_backwards_raises(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.run_until(4.0)

    def test_events_beyond_horizon_stay_queued(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(1))
        engine.run_until(5.0)
        assert fired == []
        engine.run_until(10.0)
        assert fired == [1]

    def test_callback_can_schedule_more_events(self):
        engine = Engine()
        fired = []

        def cascade():
            fired.append(engine.now)
            if len(fired) < 3:
                engine.schedule(1.0, cascade)

        engine.schedule(1.0, cascade)
        engine.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_run_for_relative(self):
        engine = Engine()
        engine.run_until(2.0)
        engine.run_for(3.0)
        assert engine.now == 5.0

    def test_max_events_guard(self):
        engine = Engine()

        def storm():
            engine.schedule(0.0001, storm)

        engine.schedule(0.0001, storm)
        with pytest.raises(SimulationError):
            engine.run_until(10.0, max_events=50)

    def test_run_until_runs_exactly_max_events(self):
        engine = Engine()
        for index in range(4):
            engine.schedule(index + 1.0, lambda: None)
        assert engine.run_until(10.0, max_events=4) == 4
        assert engine.now == 10.0
        assert engine.pending_events == 0

    def test_drain_runs_exactly_max_events(self):
        engine = Engine()
        fired = []
        for index in range(4):
            engine.schedule(index + 1.0, lambda i=index: fired.append(i))
        assert engine.drain(max_events=4) == 4
        assert fired == [0, 1, 2, 3]
        assert engine.pending_events == 0

    def test_max_events_raises_with_the_next_event_still_queued(self):
        for run in (lambda e: e.run_until(10.0, max_events=4), lambda e: e.drain(max_events=4)):
            engine = Engine()
            for index in range(5):
                engine.schedule(index + 1.0, lambda: None)
            with pytest.raises(SimulationError):
                run(engine)
            assert engine.events_executed == 4
            assert engine.now == 4.0
            assert engine.pending_events == 1

    def test_events_executed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run_until(1.0)
        assert engine.events_executed == 5

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_drain_runs_everything(self):
        engine = Engine()
        fired = []
        for index in range(4):
            engine.schedule(index + 1.0, lambda i=index: fired.append(i))
        count = engine.drain()
        assert count == 4
        assert fired == [0, 1, 2, 3]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_handle_exposes_time_and_label(self):
        engine = Engine()
        handle = engine.schedule(2.5, lambda: None, label="probe")
        assert handle.time == 2.5
        assert handle.label == "probe"


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        engine = Engine()
        fired = []
        engine.call_every(1.0, lambda: fired.append(engine.now))
        engine.run_until(5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_halts_firing(self):
        engine = Engine()
        fired = []
        task = engine.call_every(1.0, lambda: fired.append(engine.now))
        engine.run_until(2.5)
        task.stop()
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]
        assert task.stopped

    def test_zero_interval_raises(self):
        with pytest.raises(SimulationError):
            Engine().call_every(0.0, lambda: None)

    def test_jitter_desynchronizes(self):
        engine = Engine()
        rng = SeededRng(4, "jitter")
        times = []
        engine.call_every(1.0, lambda: times.append(engine.now), jitter=0.2, rng=rng)
        engine.run_until(5.0)
        assert times, "jittered task must still fire"
        assert any(t != round(t) for t in times), "jitter should move firings off the grid"

    def test_start_delay_override(self):
        engine = Engine()
        fired = []
        engine.call_every(5.0, lambda: fired.append(engine.now), start_delay=1.0)
        engine.run_until(1.0)
        assert fired == [1.0]

    def test_firings_counted(self):
        engine = Engine()
        task = engine.call_every(1.0, lambda: None)
        engine.run_until(3.0)
        assert task.firings == 3


class TestPendingEvents:
    def test_counts_only_live_events(self):
        engine = Engine()
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        assert engine.pending_events == 2
        drop.cancel()
        assert engine.pending_events == 1
        drop.cancel()  # idempotent: no double decrement
        assert engine.pending_events == 1
        keep.cancel()
        assert engine.pending_events == 0

    def test_count_correct_after_cancelled_events_pass(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
        engine.run_until(20.0)
        assert engine.pending_events == 0
        assert engine.events_executed == 5

    def test_cancel_after_fire_is_a_noop(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run_until(2.0)
        handle.cancel()
        assert engine.pending_events == 0

    def test_heavy_cancellation_compacts_queue(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1000.0, lambda: None)
        doomed = [engine.schedule(2000.0, lambda: None) for _ in range(500)]
        for handle in doomed:
            handle.cancel()
        # Compaction kicked in: the heap holds (close to) only live events.
        assert engine.pending_events == 5
        assert len(engine._queue) < 100
        engine.run_until(3000.0)
        assert engine.events_executed == 5

    def test_compaction_inside_run_until_keeps_order(self):
        engine = Engine()
        fired = []
        expected = []
        doomed = []
        queue_sizes = []

        def survivor(tag):
            return lambda: fired.append((engine.now, tag))

        def cancel_storm():
            fired.append((engine.now, "storm"))
            for handle in doomed:
                handle.cancel()
            queue_sizes.append(len(engine._queue))

        engine.schedule(1.0, cancel_storm)
        expected.append((1.0, "storm"))
        for index in range(200):
            doomed.append(engine.schedule(1.0 + index % 3, lambda: fired.append("doomed")))
            if index % 5 == 0:
                # Survivors share times with the storm and with each
                # other; equal times fire in scheduling order.
                when = 1.0 + index % 4
                engine.schedule(when, survivor(index))
                expected.append((when, index))
        engine.run_until(10.0)
        # The storm cancelled all 200 doomed events, and the heap was
        # rebuilt while run_until was popping from it: the 40 survivors
        # are left, plus at most 64 cancelled entries.
        assert queue_sizes[0] <= 40 + 64
        assert fired == sorted(expected, key=lambda item: item[0])
        assert engine.pending_events == 0
        assert engine._queue == []


class TestErrorPolicy:
    def _boom(self):
        raise ValueError("boom")

    def test_invalid_policy_rejected(self):
        with pytest.raises(SimulationError):
            Engine(error_policy="ignore")

    def test_raise_policy_propagates(self):
        engine = Engine(error_policy="raise")
        engine.schedule(1.0, self._boom, label="bad")
        with pytest.raises(ValueError):
            engine.run_until(2.0)

    def test_record_policy_continues_and_ledgers(self):
        engine = Engine(error_policy="record")
        fired = []
        engine.schedule(1.0, self._boom, label="bad")
        engine.schedule(2.0, lambda: fired.append(engine.now))
        executed = engine.run_until(3.0)
        assert executed == 2
        assert fired == [2.0]
        assert len(engine.failures) == 1
        assert engine.failures[0].label == "bad"
        assert "ValueError: boom" in engine.failures[0].error
        assert engine.failure_counts == {"bad": 1}

    def test_suppress_policy_counts_without_records(self):
        engine = Engine(error_policy="suppress")
        engine.schedule(1.0, self._boom, label="bad")
        engine.run_until(2.0)
        assert engine.failures == []
        assert engine.failure_counts == {"bad": 1}

    def test_failure_listeners_notified(self):
        engine = Engine(error_policy="record")
        seen = []
        engine.on_callback_failure(seen.append)
        engine.schedule(1.0, self._boom, label="bad")
        engine.run_until(2.0)
        assert len(seen) == 1
        assert seen[0].time == 1.0

    def test_unlabelled_failures_get_placeholder(self):
        engine = Engine(error_policy="record")
        engine.schedule(1.0, self._boom)
        engine.run_until(2.0)
        assert engine.failure_counts == {"<unlabelled>": 1}


class TestPeriodicTaskFailure:
    def test_raise_policy_marks_failed_and_stops(self):
        engine = Engine(error_policy="raise")

        def boom():
            raise RuntimeError("dead")

        task = engine.call_every(1.0, boom, label="beat")
        with pytest.raises(RuntimeError):
            engine.run_until(5.0)
        assert task.failed
        assert task.stopped

    def test_record_policy_keeps_task_alive(self):
        engine = Engine(error_policy="record")
        count = [0]

        def flaky():
            count[0] += 1
            if count[0] % 2 == 1:
                raise RuntimeError("flaky")

        task = engine.call_every(1.0, flaky, label="beat")
        engine.run_until(6.5)
        assert task.firings == 6
        assert not task.failed
        assert not task.stopped
        assert engine.failure_counts["beat"] == 3

    def test_callback_stopping_own_task_does_not_rearm(self):
        engine = Engine(error_policy="record")
        holder = {}

        def once():
            holder["task"].stop()

        holder["task"] = engine.call_every(1.0, once)
        engine.run_until(10.0)
        assert holder["task"].firings == 1


class TestBatches:
    def _batch(self, engine, fired, delays, label="deliver"):
        batch = engine.batch(label, lambda tag: fired.append((engine.now, tag)))
        for tag, delay in enumerate(delays):
            batch.add(delay, (tag,))
        batch.close()

    def test_entries_run_in_time_then_add_order_with_other_events(self):
        engine = Engine()
        fired = []
        batch = engine.batch("deliver", lambda tag: fired.append((engine.now, tag)))
        batch.add(2.0, ("b0",))
        engine.schedule(1.0, lambda: fired.append((engine.now, "e0")))
        batch.add(1.0, ("b1",))
        engine.schedule(1.0, lambda: fired.append((engine.now, "e1")))
        batch.add(1.0, ("b2",))
        batch.close()
        assert engine.pending_events == 5
        assert engine.pending_labeled("deliver") == 3
        assert engine.run_until(5.0) == 5
        assert fired == [(1.0, "e0"), (1.0, "b1"), (1.0, "e1"), (1.0, "b2"), (2.0, "b0")]

    def test_a_batch_is_one_heap_entry(self):
        engine = Engine()
        fired = []
        self._batch(engine, fired, [0.5, 0.25, 0.75])
        assert len(engine._queue) == 1
        assert engine.pending_events == 3

    def test_empty_batch_queues_nothing(self):
        engine = Engine()
        engine.batch("deliver", lambda: None).close()
        assert engine._queue == []
        assert engine.pending_events == 0

    def test_add_rejects_negative_and_nan_delays_and_a_closed_batch(self):
        engine = Engine()
        batch = engine.batch("deliver", lambda: None)
        for delay in (-0.1, float("nan")):
            with pytest.raises(SimulationError):
                batch.add(delay, ())
        batch.close()
        with pytest.raises(SimulationError):
            batch.add(1.0, ())
        with pytest.raises(SimulationError):
            batch.close()

    def test_end_time_cuts_a_batch_and_keeps_the_rest(self):
        engine = Engine()
        fired = []
        self._batch(engine, fired, [1.0, 2.0, 3.0])
        assert engine.run_until(2.0) == 2
        assert engine.pending_labeled("deliver") == 1
        assert engine.run_until(3.0) == 1
        assert [tag for _, tag in fired] == [0, 1, 2]

    def test_max_events_counts_entries(self):
        engine = Engine()
        fired = []
        self._batch(engine, fired, [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(SimulationError):
            engine.run_until(10.0, max_events=4)
        assert engine.now == 4.0
        assert engine.pending_events == 1
        assert engine.run_until(10.0, max_events=1) == 1

    def test_step_runs_one_entry(self):
        engine = Engine()
        fired = []
        self._batch(engine, fired, [1.0, 1.0])
        assert engine.step()
        assert fired == [(1.0, 0)]
        assert engine.pending_events == 1
        assert engine.drain() == 1
        assert not engine.step()

    def test_each_entry_is_one_profiled_event(self):
        engine = Engine()
        engine.profiler = Profiler()
        fired = []
        self._batch(engine, fired, [0.5, 0.5, 1.0])
        engine.run_until(2.0)
        assert engine.events_executed == 3
        assert engine.profiler.profile("deliver").count == 3

    def test_raising_entry_under_raise_leaves_the_rest_queued(self):
        engine = Engine()
        fired = []

        def deliver(tag):
            fired.append(tag)
            if tag == 1:
                raise ValueError("boom")

        batch = engine.batch("deliver", deliver)
        for tag in range(4):
            batch.add(1.0, (tag,))
        batch.close()
        with pytest.raises(ValueError):
            engine.run_until(2.0)
        assert engine.pending_labeled("deliver") == 2
        engine.run_until(2.0)
        assert fired == [0, 1, 2, 3]

    def test_raising_entry_under_record_is_ledgered_and_the_batch_goes_on(self):
        engine = Engine(error_policy="record")
        fired = []

        def deliver(tag):
            fired.append(tag)
            if tag == 1:
                raise ValueError("boom")

        batch = engine.batch("deliver", deliver)
        for tag in range(3):
            batch.add(1.0, (tag,))
        batch.close()
        assert engine.run_until(2.0) == 3
        assert fired == [0, 1, 2]
        assert engine.failure_counts == {"deliver": 1}
