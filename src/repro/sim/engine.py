"""Discrete-event simulation kernel.

The engine owns a virtual clock and a priority queue of timestamped
events.  Components schedule callbacks with :meth:`Engine.schedule` (or
:meth:`Engine.schedule_at`) and the engine executes them in timestamp
order.  Ties break on a monotonically increasing sequence number so
execution order is fully deterministic.

"Stringent time constraints" from the paper are modelled as virtual-clock
deadlines: a security handshake that costs 12 ms of simulated crypto time
finishes 0.012 simulated seconds later, regardless of host wall-clock.

Error handling is governed by an :data:`ErrorPolicy`:

* ``"raise"`` (default) — a raising callback aborts the run, exactly the
  behaviour a unit test wants;
* ``"record"`` — the failure is appended to :attr:`Engine.failures`,
  counted per label in :attr:`Engine.failure_counts`, reported to
  listeners, and the run continues (what a 10k-event experiment wants);
* ``"suppress"`` — the failure is counted and reported to listeners but
  no detailed record is kept.

Observability hooks: an attached :attr:`Engine.profiler` wall-clock
times every dispatched callback by label, and an attached
:attr:`Engine.tracer` receives a span per ledgered failure.  Both are
``None`` by default (one attribute test per event) and neither touches
the queue, the clock, or any RNG — seeded runs are byte-identical with
or without them.

Batches: a fan-out of calls of one function under one label — the
deliveries of one radio transmission — can be queued as one heap entry
instead of one per call::

    batch = engine.batch("frame-delivery", deliver)
    batch.add(latency, (dst_id, message))   # per call
    batch.close()

Each :meth:`EventBatch.add` is exactly ``schedule(delay, partial(fn,
*args), label)``: the same rejection of a negative or NaN delay, the
same ``now + delay`` time, and a sequence number drawn at the ``add``,
so an event scheduled between two adds keeps its place.
:meth:`EventBatch.close` sorts the entries by ``(time, sequence)`` and
pushes one heap entry keyed by the first; an empty batch queues
nothing.  A batch returns no handle and cannot be cancelled.

:meth:`Engine.run_until` pops a batch and runs its entries while the
next entry is due by ``end_time`` and sorts before the heap top (one
tuple comparison, no heap push per entry); it pushes the batch back
under its next entry only when another event comes first or
``end_time`` cuts the batch.  :meth:`Engine.step` and
:meth:`Engine.drain` run one entry per step.  Every entry is one event:
it counts once in :attr:`Engine.events_executed` and against
``max_events``, goes through the profiler under the batch's label,
and under ``"record"``/``"suppress"`` a raising entry is ledgered and
the batch goes on; under ``"raise"`` the exception propagates and the
remaining entries stay queued.  :attr:`Engine.pending_events` and
:meth:`Engine.pending_labeled` count a batch's pending entries.  So
every event, batched or not, runs in the order one ``schedule`` call
per entry gave it, and seeded runs stay byte-identical.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import SimulationError

EventCallback = Callable[[], Any]

#: Accepted engine error policies.
ERROR_POLICIES = ("raise", "record", "suppress")

#: Queue-compaction kicks in once this many cancelled events linger.
_COMPACT_THRESHOLD = 64


@dataclass(frozen=True)
class CallbackFailure:
    """One callback exception captured under a non-raising error policy."""

    time: float
    label: str
    error: str

    def __str__(self) -> str:
        return f"t={self.time:.6f} [{self.label}] {self.error}"


class EventHandle:
    """One scheduled callback, and the handle ``schedule`` returns for it.

    The heap holds ``(time, sequence, handle)`` tuples (a batch's entry
    holds the batch, keyed by its next entry), so ordering is a C-level
    tuple comparison that never reaches the handle itself: the sequence
    number is unique, which breaks every time tie.

    A handle drops its callback when the event fires (before the
    callback runs) and when it is cancelled, so a None callback marks a
    spent handle.  Owners keep handles on the objects their callbacks
    close over (a request's response, a dispatch's hedge check): a
    handle that kept its callback would tie the two in a cycle, and a
    cancelled one would pin its closure while it waits in the heap.
    """

    __slots__ = ("_time", "_callback", "_label", "_cancelled", "_engine")

    def __init__(
        self, time: float, callback: EventCallback, label: str, engine: "Engine"
    ) -> None:
        self._time = time
        self._callback: Optional[EventCallback] = callback
        self._label = label
        self._cancelled = False
        self._engine = engine

    @property
    def time(self) -> float:
        """Scheduled virtual time of the event."""
        return self._time

    @property
    def label(self) -> str:
        """Human-readable label of the event."""
        return self._label

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        if self._callback is None:
            return  # already fired or cancelled
        self._cancelled = True
        self._callback = None
        self._engine._note_cancellation()


class EventBatch:
    """Calls of one function under one label, queued as one heap entry.

    Made by :meth:`Engine.batch`; see the module docstring for the
    contract.  Entries are ``(time, sequence, args)`` tuples, sorted at
    :meth:`close`; ``_next`` indexes the first entry not yet run.
    """

    __slots__ = ("_engine", "_sequence", "_fn", "_label", "_entries", "_next", "_closed")

    #: Batches cannot be cancelled; compaction and the loops read this.
    _cancelled = False

    def __init__(self, engine: "Engine", label: str, fn: Callable[..., Any]) -> None:
        self._engine = engine
        self._sequence = engine._sequence
        self._fn = fn
        self._label = label
        self._entries: List[Tuple[float, int, Tuple[Any, ...]]] = []
        self._next = 0
        self._closed = False

    def add(self, delay: float, args: Tuple[Any, ...]) -> None:
        """Queue ``fn(*args)`` to run ``delay`` seconds from now."""
        # Written so that NaN, for which every comparison is false, fails.
        if not delay >= 0:
            raise SimulationError(f"delay must be a non-negative number, got {delay}")
        if self._closed:
            raise SimulationError("cannot add to a closed batch")
        self._entries.append((self._engine._now + delay, next(self._sequence), args))

    def close(self) -> None:
        """Sort the entries and queue the batch under its first one."""
        if self._closed:
            raise SimulationError("batch already closed")
        self._closed = True
        entries = self._entries
        if entries:
            entries.sort()
            self._engine._queue_batch(self)


_Entry = Tuple[float, int, Union[EventHandle, EventBatch]]


class Engine:
    """A deterministic discrete-event simulation engine."""

    def __init__(self, error_policy: str = "raise") -> None:
        if error_policy not in ERROR_POLICIES:
            raise SimulationError(
                f"error_policy must be one of {ERROR_POLICIES}, got {error_policy!r}"
            )
        self._now = 0.0
        self._queue: List[_Entry] = []
        self._sequence = itertools.count()
        self._events_executed = 0
        self._cancelled_pending = 0
        # Pending batch entries beyond the one each queued batch's heap
        # entry stands for; the batch being run is off the heap and
        # counted through ``_active_batch`` instead.
        self._batch_surplus = 0
        self._active_batch: Optional[EventBatch] = None
        self._running = False
        self.error_policy = error_policy
        #: Detailed failure records (populated under the "record" policy).
        self.failures: List[CallbackFailure] = []
        #: Per-label failure counts (populated under "record" and "suppress").
        self.failure_counts: Dict[str, int] = {}
        self._failure_listeners: List[Callable[[CallbackFailure], None]] = []
        #: Optional wall-clock profiler (duck-typed: needs ``record(label, s)``).
        #: Timings are host time and never feed back into the sim, so a
        #: profiled seeded run stays byte-identical to an unprofiled one.
        self.profiler: Optional[Any] = None
        #: Optional tracer (duck-typed: needs ``add_event``-style hooks via
        #: :meth:`record_failure`); attached by ``World.enable_observability``.
        self.tracer: Optional[Any] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Cancelled events may linger in the heap until lazily compacted,
        but they are excluded from this count, so the property reports
        real pending work.  Every pending batch entry counts as one.
        """
        pending = len(self._queue) - self._cancelled_pending + self._batch_surplus
        active = self._active_batch
        if active is not None:
            pending += len(active._entries) - active._next
        return pending

    def pending_labeled(self, label: str) -> int:
        """Count live queued events carrying exactly this label.

        A linear scan of the heap — meant for low-frequency callers such
        as invariant checks reconciling in-flight work (e.g. pending
        ``"frame-delivery"`` events against channel counters), not hot
        paths.  Every pending batch entry counts as one.
        """
        count = 0
        for _, _, event in self._queue:
            if event._label != label or event._cancelled:
                continue
            if isinstance(event, EventBatch):
                count += len(event._entries) - event._next
            else:
                count += 1
        active = self._active_batch
        if active is not None and active._label == label:
            count += len(active._entries) - active._next
        return count

    # -- error handling ------------------------------------------------------

    def on_callback_failure(self, listener: Callable[[CallbackFailure], None]) -> None:
        """Register a listener fired for every non-raised callback failure."""
        self._failure_listeners.append(listener)

    def record_failure(self, exc: BaseException, label: str) -> CallbackFailure:
        """Ledger a callback failure per the current error policy.

        Used internally by the event loop and :class:`PeriodicTask`;
        exposed so components that run user callbacks outside the event
        loop can feed the same ledger.
        """
        failure = CallbackFailure(
            time=self._now,
            label=label or "<unlabelled>",
            error=f"{type(exc).__name__}: {exc}",
        )
        self.failure_counts[failure.label] = self.failure_counts.get(failure.label, 0) + 1
        if self.error_policy == "record":
            self.failures.append(failure)
        if self.tracer is not None:
            span = self.tracer.start_span(
                "engine.failure",
                subsystem="engine",
                attrs={"label": failure.label, "error": failure.error},
            )
            self.tracer.end_span(span, status="error")
        for listener in self._failure_listeners:
            listener(failure)
        return failure

    def _run_callback(self, callback: EventCallback, label: str) -> None:
        profiler = self.profiler
        if profiler is None:
            self._dispatch_callback(callback, label)
            return
        started = time.perf_counter()
        try:
            self._dispatch_callback(callback, label)
        finally:
            profiler.record(label or "<unlabelled>", time.perf_counter() - started)

    def _dispatch_callback(self, callback: EventCallback, label: str) -> None:
        if self.error_policy == "raise":
            callback()
            return
        try:
            callback()
        except Exception as exc:  # noqa: BLE001 - the policy decides
            self.record_failure(exc, label)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: EventCallback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        # Written so that NaN, for which every comparison is false, fails.
        if not delay >= 0:
            raise SimulationError(f"delay must be a non-negative number, got {delay}")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, when: float, callback: EventCallback, label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at t={when:.6f}, clock already at t={self._now:.6f}"
            )
        event = EventHandle(when, callback, label, self)
        heapq.heappush(self._queue, (when, next(self._sequence), event))
        return event

    def batch(self, label: str, fn: Callable[..., Any]) -> EventBatch:
        """Open a batch of ``fn`` calls under ``label``; see :class:`EventBatch`."""
        return EventBatch(self, label, fn)

    def _queue_batch(self, batch: EventBatch) -> None:
        """Push a batch's heap entry, keyed by its next entry."""
        entries = batch._entries
        index = batch._next
        first = entries[index]
        heapq.heappush(self._queue, (first[0], first[1], batch))
        self._batch_surplus += len(entries) - index - 1

    def _requeue_active_batch(self) -> None:
        """Put the batch being run back on the heap, if entries are left.

        ``_run_batch`` calls this when it stops.  A loop entered from
        inside one of the batch's entries (a nested ``step``,
        ``run_until`` or ``drain``) calls it first, so it sees the
        remaining entries in the heap; the outer run then stops.
        """
        batch = self._active_batch
        if batch is None:
            return
        self._active_batch = None
        if batch._next < len(batch._entries):
            self._queue_batch(batch)

    def call_every(
        self,
        interval: float,
        callback: EventCallback,
        label: str = "",
        jitter: float = 0.0,
        rng: Optional[Any] = None,
        start_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until stopped.

        ``jitter`` adds a uniform offset in ``[0, jitter]`` to every firing
        (drawn from ``rng``) to avoid global phase-locking of periodic
        processes such as beacons.
        """
        # Written so that NaN, for which every comparison is false, fails.
        if not interval > 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if not jitter >= 0:
            raise SimulationError(f"jitter must be non-negative, got {jitter}")
        task = PeriodicTask(self, interval, callback, label, jitter, rng)
        first = interval if start_delay is None else start_delay
        task._arm(first)
        return task

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancellation(self) -> None:
        self._cancelled_pending += 1
        # Lazy compaction: once cancelled events dominate the heap,
        # rebuild it so long runs with heavy cancellation stay O(live).
        # In place: ``run_until`` holds the list while a callback cancels.
        queue = self._queue
        if (
            self._cancelled_pending > _COMPACT_THRESHOLD
            and self._cancelled_pending * 2 >= len(queue)
        ):
            queue[:] = [entry for entry in queue if not entry[2]._cancelled]
            heapq.heapify(queue)
            self._cancelled_pending = 0

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns True if an event ran, False if the queue is empty.  A
        batch runs one entry per step.
        """
        self._requeue_active_batch()
        queue = self._queue
        while queue:
            when, _, event = heapq.heappop(queue)
            if event._cancelled:
                self._cancelled_pending -= 1
                continue
            if isinstance(event, EventBatch):
                self._run_batch(event, when, 1, 0)
                return True
            callback, event._callback = event._callback, None
            assert callback is not None  # a queued live handle has not fired
            self._now = when
            self._events_executed += 1
            self._run_callback(callback, event._label)
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events until the clock would pass ``end_time``.

        The clock finishes exactly at ``end_time``.  Returns the number of
        events executed during this call.  ``max_events`` is a safety
        valve against runaway event storms: the call raises when one
        more event than that is due.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is before current time {self._now:.6f}"
            )
        self._requeue_active_batch()
        limit = sys.maxsize if max_events is None else max_events
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        while queue:
            when, _, event = queue[0]
            if when > end_time:
                break
            if event._cancelled:
                heappop(queue)
                self._cancelled_pending -= 1
                continue
            if executed >= limit:
                raise SimulationError(
                    f"exceeded max_events={max_events} before t={end_time}"
                )
            heappop(queue)
            if isinstance(event, EventBatch):
                executed = self._run_batch(event, end_time, limit, executed)
                continue
            callback, event._callback = event._callback, None
            assert callback is not None  # a queued live handle has not fired
            self._now = when
            self._events_executed += 1
            executed += 1
            self._run_callback(callback, event._label)
        self._now = end_time
        return executed

    def _run_batch(self, batch: EventBatch, end_time: float, limit: int, executed: int) -> int:
        """Run a popped batch's entries while each is due and first in line.

        Runs at least one entry and returns ``executed`` plus the entries
        run.  The batch is pushed back under its next entry when an event
        in the heap sorts before that entry, when ``end_time`` cuts it,
        when ``executed`` reaches ``limit`` (the caller decides whether
        to raise), or when an entry raises.
        """
        queue = self._queue
        entries = batch._entries
        fn = batch._fn
        label = batch._label
        index = batch._next
        last = len(entries)
        self._batch_surplus -= last - index - 1
        self._active_batch = batch
        entry = entries[index]
        try:
            while True:
                index += 1
                batch._next = index
                self._now = entry[0]
                self._events_executed += 1
                executed += 1
                if self.profiler is None and self.error_policy == "raise":
                    fn(*entry[2])
                else:
                    self._run_callback(functools.partial(fn, *entry[2]), label)
                if self._active_batch is not batch:
                    # A nested loop re-queued the batch and owns it now.
                    return executed
                if index == last:
                    self._active_batch = None
                    return executed
                entry = entries[index]
                if entry[0] > end_time or (queue and queue[0] < entry) or executed >= limit:
                    break
        finally:
            self._requeue_active_batch()
        return executed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run the simulation forward by ``duration`` seconds."""
        return self.run_until(self._now + duration, max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty; raise when one more than ``max_events`` is due."""
        executed = 0
        while self.pending_events:
            if executed >= max_events:
                raise SimulationError(f"drain exceeded max_events={max_events}")
            self.step()
            executed += 1
        return executed


class PeriodicTask:
    """A repeating event created by :meth:`Engine.call_every`.

    A raising callback no longer silently kills the task: under the
    engine's ``"record"``/``"suppress"`` policies the failure is ledgered
    and the task re-arms; under ``"raise"`` the task is explicitly marked
    :attr:`failed` before the exception propagates, so the death is
    visible to whoever owns the handle.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: EventCallback,
        label: str,
        jitter: float,
        rng: Optional[Any],
    ) -> None:
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._label = label
        self._jitter = jitter
        self._rng = rng
        self._handle: Optional[EventHandle] = None
        self._stopped = False
        self.firings = 0
        self.failed = False

    @property
    def stopped(self) -> bool:
        """Whether the task has been stopped."""
        return self._stopped

    def _arm(self, delay: float) -> None:
        offset = 0.0
        if self._jitter > 0 and self._rng is not None:
            offset = self._rng.uniform(0.0, self._jitter)
        self._handle = self._engine.schedule(delay + offset, self._fire, self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.firings += 1
        try:
            self._callback()
        except Exception as exc:  # noqa: BLE001 - the policy decides
            if self._engine.error_policy == "raise":
                self.failed = True
                self._stopped = True
                raise
            self._engine.record_failure(exc, self._label or "periodic")
        if not self._stopped:
            self._arm(self._interval)

    def stop(self) -> None:
        """Stop the task; any pending firing is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
