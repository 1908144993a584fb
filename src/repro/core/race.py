"""First result wins: the one race behind hedging, replicas and speculation.

A :class:`Race` launches attempts at one unit of work on executors that
can ``cancel(handle, reason)`` and settles each attempt exactly once:
``won`` (the first completion), ``late`` (a completion after the race
was decided), ``cancelled`` (any other end of an attempt it asked to
cancel) or ``failed``.  A win asks every live loser to cancel with the
owner's typed reason before the owner's ``on_won`` runs; ``on_lost``
gets the reason of the last failure once every attempt failed, never
while a batch is still launching; ``abort`` decides a race without a
winner.  Races schedule no engine events and draw no random numbers.

Each owner keeps one :class:`RaceLedger`, whose law is ``launched ==
won + cancelled + failed + late + live`` with ``live`` counted from the
races, and no decided race may hold a live loser it never asked to
cancel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The terminal reason executors report for a successful attempt.
COMPLETED = "completed"

#: Settled outcomes; each is also the name of its :class:`RaceLedger` counter.
WON, LATE, CANCELLED, FAILED = "won", "late", "cancelled", "failed"
_LIVE, _CANCELLING = "live", "cancelling"


def ledger_count(name: str) -> Any:
    """A read-only stats attribute that reads counter ``name`` of ``stats.races``."""
    return property(lambda stats: getattr(stats.races, name))


class _Attempt:
    __slots__ = ("handle", "executor", "state")

    def __init__(self, handle: Any, executor: Any) -> None:
        self.handle = handle
        #: None only for an attempt that settled inside its own submit.
        self.executor = executor
        self.state = _LIVE

    @property
    def live(self) -> bool:
        return self.state in (_LIVE, _CANCELLING)


class RaceLedger:
    """One owner's races: its cancel reason, its callbacks, its counters."""

    def __init__(
        self,
        cancel_reason: str,
        on_won: Callable[[Any, Any], None],
        on_lost: Callable[[Any, Optional[str]], None],
        on_settled: Callable[[Any, str, str], None],
    ) -> None:
        self.cancel_reason = cancel_reason
        #: ``on_won(context, winner)``, after the losers were asked to cancel.
        self.on_won = on_won
        #: ``on_lost(context, reason of the last failure)``.
        self.on_lost = on_lost
        #: ``on_settled(handle, outcome, reason)`` for every attempt.
        self.on_settled = on_settled
        self.launched = self.won = self.late = self.cancelled = self.failed = 0
        #: Races holding a live attempt, in launch order.
        self.open: Dict[Race, None] = {}

    def live(self) -> int:
        """Attempts not yet settled, counted from the races."""
        return sum(len(race.live) for race in self.open)

    def audit(self) -> List[str]:
        """One message per breach of the ledger law."""
        problems = []
        live = self.live()
        if self.launched != self.won + self.cancelled + self.failed + self.late + live:
            problems.append(
                f"attempts launched {self.launched} != won {self.won} + cancelled "
                f"{self.cancelled} + failed {self.failed} + late {self.late} + live {live}"
            )
        for race in self.open:
            unasked = sum(1 for a in race._attempts if a.state == _LIVE)
            if race.decided and unasked:
                problems.append(
                    f"a decided race holds {unasked} live loser(s) it never asked to cancel"
                )
        return problems


class Race:
    """Attempts at one unit of work; the first completion wins."""

    __slots__ = (
        "ledger", "context", "decided", "winner", "last_failure", "_attempts", "_launching",
    )

    def __init__(self, ledger: RaceLedger, context: Any) -> None:
        self.ledger = ledger
        #: Handed back to the ledger's ``on_won`` and ``on_lost``.
        self.context = context
        self.decided = False
        self.winner: Any = None
        self.last_failure: Optional[str] = None
        self._attempts: List[_Attempt] = []
        self._launching = False

    @property
    def handles(self) -> List[Any]:
        """Every attempt's handle, in launch order."""
        return [a.handle for a in self._attempts]

    @property
    def live(self) -> List[Any]:
        """Handles of the attempts that have not settled."""
        return [a.handle for a in self._attempts if a.live]

    def launch(self, attempts: Iterable[Tuple[Any, Callable[[], Any]]]) -> None:
        """Start a batch of ``(executor, submit)`` attempts in an undecided race.

        ``submit`` starts one attempt and returns its handle; the attempt
        may settle inside it.  ``executor.cancel(handle, reason)`` must
        settle the attempt, now or later, and returns False when the
        result is already in flight.  The race is not lost before the
        whole batch is in.
        """
        self._launching = True
        try:
            for executor, submit in attempts:
                handle = submit()
                if self._find(handle) is None:
                    self._add(handle, executor)
        finally:
            self._launching = False
        self._check_lost()

    def settle(self, handle: Any, reason: str) -> None:
        """Record how the attempt ``handle`` ended; repeats are ignored."""
        attempt = self._find(handle) or self._add(handle, None)
        if not attempt.live:
            return
        if reason == COMPLETED:
            attempt.state = LATE if self.decided else WON
        else:
            attempt.state = CANCELLED if attempt.state == _CANCELLING else FAILED
        ledger = self.ledger
        setattr(ledger, attempt.state, getattr(ledger, attempt.state) + 1)
        if not any(a.live for a in self._attempts):
            del ledger.open[self]
        ledger.on_settled(handle, attempt.state, reason)
        if attempt.state == WON:
            self.decided, self.winner = True, handle
            self._cancel_live()
            ledger.on_won(self.context, handle)
        elif attempt.state == FAILED:
            self.last_failure = reason
            self._check_lost()

    def abort(self) -> None:
        """Decide the race without a winner and cancel its live attempts."""
        if not self.decided:
            self.decided = True
            self._cancel_live()

    def _check_lost(self) -> None:
        if self.decided or self._launching or any(a.live for a in self._attempts):
            return
        self.decided = True
        self.ledger.on_lost(self.context, self.last_failure)

    def _cancel_live(self) -> None:
        for attempt in self._attempts:
            if attempt.state == _LIVE:
                attempt.state = _CANCELLING
                attempt.executor.cancel(attempt.handle, self.ledger.cancel_reason)

    def _find(self, handle: Any) -> Optional[_Attempt]:
        return next((a for a in self._attempts if a.handle is handle), None)

    def _add(self, handle: Any, executor: Any) -> _Attempt:
        attempt = _Attempt(handle, executor)
        self._attempts.append(attempt)
        self.ledger.launched += 1
        self.ledger.open[self] = None
        return attempt
