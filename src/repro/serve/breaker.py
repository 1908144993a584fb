"""Per-worker circuit breakers.

A breaker watches one worker's recent outcomes through a sliding
window.  Too many failures — or a hard signal like a lease expiry —
*trips* it OPEN: the worker stops receiving assignments, so a flaky or
silently-dead member cannot keep eating tasks that will only come back
as handover drops.  After a backoff-governed cooldown the breaker goes
HALF_OPEN and admits a single probe; a probe success closes the
breaker, a probe failure re-opens it with the next (longer) cooldown
from the same :class:`~repro.faults.recovery.BackoffPolicy` schedule.

The breaker itself is pure (clock and RNG injected), so the state
machine is unit-testable without a world; :class:`CircuitBreakerBoard`
owns one breaker per worker and wires the metrics/event plumbing.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Collection, Deque, Dict, List, Optional, Set

from ..errors import ConfigurationError
from ..faults.recovery import BackoffPolicy
from ..sim.rng import SeededRng
from ..sim.world import World


class BreakerState(enum.Enum):
    """Circuit breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker for one worker.

    ``allows()`` is the dispatch gate; it may promote OPEN to HALF_OPEN
    once the cooldown has elapsed (a time-driven, deterministic
    transition).  The caller reports actual dispatches via
    :meth:`note_dispatch` so HALF_OPEN admits exactly one probe at a
    time, and reports outcomes via :meth:`record_success` /
    :meth:`record_failure`.
    """

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        rng: Optional[SeededRng] = None,
        window: int = 8,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError("failure_threshold must be in (0, 1]")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        self.name = name
        self.clock = clock
        self.rng = rng
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        # Unbounded retries: a breaker never gives up on a worker for
        # good, it just waits longer (up to max_delay_s) between probes.
        self.backoff = (
            backoff
            if backoff is not None
            else BackoffPolicy(
                base_delay_s=2.0, multiplier=2.0, max_delay_s=30.0,
                jitter_fraction=0.1, max_retries=1_000_000,
            )
        )
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.last_trip_reason: Optional[str] = None
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._trip_streak = 0  # consecutive trips without a close
        self._reopen_at = 0.0
        self._probe_inflight = False

    # -- gate ----------------------------------------------------------------

    def allows(self) -> bool:
        """Whether the worker may receive an assignment right now.

        Asking is what moves an OPEN breaker past its cooldown to
        HALF_OPEN; asking a CLOSED or HALF_OPEN breaker changes nothing.
        So the dispatch rule fixes the history: each assignment pass asks
        once for every worker of the pass's view except the workers the
        task is banned from, free or busy (see
        :meth:`CircuitBreakerBoard.ask`).
        """
        if self.state is BreakerState.OPEN and self.clock() >= self._reopen_at:
            self.state = BreakerState.HALF_OPEN
            self._probe_inflight = False
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return not self._probe_inflight
        return False

    def note_dispatch(self) -> None:
        """Record that an assignment actually went to this worker."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_inflight = True

    # -- outcomes ------------------------------------------------------------

    def record_success(self) -> None:
        """Feed one successful completion on this worker."""
        if self.state is BreakerState.HALF_OPEN:
            self._close()
            return
        self._outcomes.append(True)

    def record_failure(self) -> None:
        """Feed one failed outcome attributable to this worker."""
        if self.state is BreakerState.HALF_OPEN:
            self.trip("probe_failed")
            return
        if self.state is BreakerState.OPEN:
            return
        self._outcomes.append(False)
        if len(self._outcomes) < self.min_samples:
            return
        failures = sum(1 for ok in self._outcomes if not ok)
        if failures / len(self._outcomes) >= self.failure_threshold:
            self.trip("failure_rate")

    def release_probe(self) -> None:
        """Discard an in-flight HALF_OPEN probe whose outcome was inconclusive.

        A probe that was cancelled (e.g. it lost a speculation race)
        proves nothing about the worker either way; without releasing it
        the breaker would wait forever for a verdict that will never
        come, silently blocking every future dispatch.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._probe_inflight = False

    def trip(self, reason: str) -> None:
        """Force the breaker OPEN (e.g. the worker's lease expired)."""
        cooldown = self.backoff.delay_for(
            min(self._trip_streak, self.backoff.max_retries), self.rng
        )
        self._trip_streak += 1
        self.trips += 1
        self.last_trip_reason = reason
        self.state = BreakerState.OPEN
        self._reopen_at = self.clock() + cooldown
        self._probe_inflight = False
        self._outcomes.clear()

    def _close(self) -> None:
        self.state = BreakerState.CLOSED
        self._trip_streak = 0
        self._probe_inflight = False
        self._outcomes.clear()

    @property
    def cooldown_remaining_s(self) -> float:
        """Seconds until an OPEN breaker will admit a probe (0 otherwise)."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(0.0, self._reopen_at - self.clock())


class CircuitBreakerBoard:
    """One breaker per worker, created lazily, with telemetry wiring.

    Each worker's breaker draws its cooldown jitter from its own RNG
    substream (``serve/<name>/breaker/<worker>``), so adding a worker
    never perturbs another worker's probe schedule.
    """

    def __init__(
        self,
        world: World,
        name: str,
        window: int = 8,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.world = world
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.backoff = backoff
        self._breakers: Dict[str, CircuitBreaker] = {}
        # The breakers that are not CLOSED, the only ones that can bar
        # dispatch or change when asked.  A breaker leaves CLOSED only
        # by a trip and returns only by a probe success, so
        # ``_note_transition`` keeps this in step.
        self._unsettled: Dict[str, CircuitBreaker] = {}

    def breaker_for(self, worker_id: str) -> CircuitBreaker:
        """The worker's breaker, created CLOSED on first reference.

        Trip and feed it through the board (:meth:`trip`,
        :meth:`record_outcome`), which tracks the breakers that are not
        CLOSED for :meth:`ask`.
        """
        breaker = self._breakers.get(worker_id)
        if breaker is None:
            breaker = CircuitBreaker(
                name=worker_id,
                clock=lambda: self.world.now,
                rng=self.world.rng.fork(f"serve/{self.name}/breaker/{worker_id}"),
                window=self.window,
                failure_threshold=self.failure_threshold,
                min_samples=self.min_samples,
                backoff=self.backoff,
            )
            self._breakers[worker_id] = breaker
        return breaker

    def allows(self, worker_id: str) -> bool:
        """Dispatch gate: may this worker receive work right now?"""
        breaker = self._breakers.get(worker_id)
        return breaker.allows() if breaker is not None else True

    def ask(
        self, worker_ids: Collection[str], skip: Optional[Collection[str]] = None
    ) -> Set[str]:
        """Ask the breakers of one assignment pass; return the barred ids.

        The rule: each pass asks once for every worker of the pass's
        view (``worker_ids``) except the ones the task is banned from
        (``skip``).  Only an OPEN breaker can change when asked, so only
        OPEN ones are asked.  An ask walks only the breakers that are
        not CLOSED, whatever the view's size and however many workers
        ever had a breaker, departed ones included.

        Returns the ids, of any breaker on the board, that bar dispatch
        after the asks: OPEN, or HALF_OPEN with a probe in flight.  Among
        the view's ids not in ``skip`` these are exactly the ones
        :meth:`allows` would refuse, an OPEN breaker still cooling or a
        probe in flight, and it would refuse them without a state
        change.  So the gateway's gate excludes the returned ids as they
        are, before any candidate is built, and asks no breaker twice.
        """
        open_ = BreakerState.OPEN
        barred: Set[str] = set()
        for worker_id, breaker in self._unsettled.items():
            if (
                breaker.state is open_
                and worker_id in worker_ids
                and (skip is None or worker_id not in skip)
            ):
                breaker.allows()
            # Only a HALF_OPEN breaker can have a probe in flight.
            if breaker.state is open_ or breaker._probe_inflight:
                barred.add(worker_id)
        return barred

    def note_dispatch(self, worker_id: str) -> None:
        """Report an assignment to the worker's breaker."""
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.note_dispatch()

    def record_outcome(self, worker_id: str, ok: bool) -> None:
        """Feed one attributed outcome to the worker's breaker."""
        breaker = self.breaker_for(worker_id)
        before = breaker.state
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()
        self._note_transition(worker_id, breaker, before)

    def trip(self, worker_id: str, reason: str) -> None:
        """Hard-trip a worker's breaker (lease expiry, operator action)."""
        breaker = self.breaker_for(worker_id)
        before = breaker.state
        breaker.trip(reason)
        self._note_transition(worker_id, breaker, before, reason=reason)

    def _note_transition(
        self,
        worker_id: str,
        breaker: CircuitBreaker,
        before: BreakerState,
        reason: Optional[str] = None,
    ) -> None:
        if breaker.state is before:
            return
        if breaker.state is BreakerState.CLOSED:
            del self._unsettled[worker_id]
        else:
            self._unsettled[worker_id] = breaker
        if breaker.state is BreakerState.OPEN:
            self.world.metrics.increment(f"serve/{self.name}/breaker_trips")
            events = self.world.events
            if events is not None:
                events.emit(
                    "serve", "breaker_tripped", severity="warning",
                    gateway=self.name, worker=worker_id,
                    reason=reason or breaker.last_trip_reason,
                    cooldown_s=breaker.cooldown_remaining_s,
                )
        self.world.metrics.set_gauge(
            f"serve/{self.name}/breakers_open", float(len(self.open_workers()))
        )

    def open_workers(self) -> List[str]:
        """Workers currently blocked (OPEN and still cooling down), sorted."""
        return sorted(
            worker_id
            for worker_id, breaker in self._unsettled.items()
            if breaker.state is BreakerState.OPEN
            and breaker.cooldown_remaining_s > 0.0
        )

    def total_trips(self) -> int:
        """Trips across all breakers since construction."""
        return sum(breaker.trips for breaker in self._breakers.values())
