"""Stateful property test of the first-result-wins race (`repro.core.race`).

A fake executor runs attempts whose cancellation may be refused because
the result is already in flight (that loser completes late).  Any
interleaving of launches (single or batched, including attempts that
fail inside their own submit), completions, failures and aborts must
keep the race's contract; the oracle below tracks it independently of
the race's own bookkeeping.
"""

from __future__ import annotations

import functools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.race import COMPLETED, Race, RaceLedger

CANCEL_REASON = "test_cancelled"


class Attempt:
    """A fake attempt handle and what the oracle knows about it."""

    def __init__(self, model: "Model", in_flight: bool) -> None:
        self.model = model
        #: Cancellation is refused: the result is already on its way.
        self.in_flight = in_flight
        self.asked_to_cancel = False
        self.outcome = None


class Model:
    """Oracle state of one race."""

    def __init__(self, ledger: RaceLedger) -> None:
        self.race = Race(ledger, self)
        self.attempts = []
        self.calls = []  # ("won", handle) / ("lost", reason)
        self.failures = []  # reasons of genuine failures, in order
        self.aborted = False
        #: Batch entries not yet fully submitted.
        self.unlaunched = 0

    @property
    def decided(self) -> bool:
        return bool(self.calls) or self.aborted


class FakeExecutor:
    def cancel(self, attempt: Attempt, reason: str) -> bool:
        attempt.asked_to_cancel = True
        if attempt.in_flight:
            return False
        attempt.model.race.settle(attempt, reason)
        return True


class RaceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.executor = FakeExecutor()
        self.ledger = RaceLedger(
            CANCEL_REASON, on_won=self.won, on_lost=self.lost, on_settled=self.settled
        )
        self.models = []

    # -- the owner's callbacks, checked as they fire --------------------------

    def won(self, model: Model, winner: Attempt) -> None:
        assert all(
            a.asked_to_cancel for a in model.attempts if a is not winner and a.outcome is None
        ), "on_won ran before every live loser was asked to cancel"
        model.calls.append(("won", winner))

    def lost(self, model: Model, reason) -> None:
        assert not model.unlaunched, "lost while a batch was still launching"
        assert all(a.outcome is not None for a in model.attempts)
        assert reason == model.failures[-1], "lost reason is not the last failure"
        model.calls.append(("lost", reason))

    def settled(self, attempt: Attempt, outcome: str, reason: str) -> None:
        assert attempt.outcome is None, "attempt settled twice"
        if reason == COMPLETED:
            expected = "late" if attempt.model.decided else "won"
        else:
            expected = "cancelled" if attempt.asked_to_cancel else "failed"
        assert outcome == expected
        attempt.outcome = outcome

    # -- rules ---------------------------------------------------------------

    def _undecided(self):
        return [m for m in self.models if not m.decided]

    def _live(self):
        return [a for m in self.models for a in m.attempts if a.outcome is None]

    @rule()
    def new_race(self) -> None:
        self.models.append(Model(self.ledger))

    @precondition(lambda self: self._undecided())
    @rule(
        data=st.data(),
        batch=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=3),
    )
    def launch(self, data, batch) -> None:
        model = data.draw(st.sampled_from(self._undecided()))

        def submit(fails_in_submit: bool, in_flight: bool) -> Attempt:
            attempt = Attempt(model, in_flight)
            model.attempts.append(attempt)
            if fails_in_submit:
                model.failures.append("submit_failed")
                model.race.settle(attempt, "submit_failed")
            model.unlaunched -= 1
            return attempt

        model.unlaunched = len(batch)
        model.race.launch((self.executor, functools.partial(submit, *plan)) for plan in batch)

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def complete(self, data) -> None:
        attempt = data.draw(st.sampled_from(self._live()))
        attempt.model.race.settle(attempt, COMPLETED)

    @precondition(lambda self: self._live())
    @rule(data=st.data(), reason=st.sampled_from(["crash", "deadline", "lost_link"]))
    def fail(self, data, reason) -> None:
        attempt = data.draw(st.sampled_from(self._live()))
        if not attempt.asked_to_cancel:
            attempt.model.failures.append(reason)
        attempt.model.race.settle(attempt, reason)

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def abort(self, data) -> None:
        model = data.draw(st.sampled_from(self.models))
        model.aborted = model.aborted or not model.decided
        model.race.abort()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def at_most_one_winner_and_one_verdict(self) -> None:
        for model in self.models:
            assert len(model.calls) <= 1
            assert sum(a.outcome == "won" for a in model.attempts) <= 1
            assert model.race.decided == model.decided

    @invariant()
    def ledger_balances(self) -> None:
        attempts = [a for m in self.models for a in m.attempts]
        ledger = self.ledger
        assert ledger.launched == len(attempts)
        for outcome in ("won", "cancelled", "failed", "late"):
            assert getattr(ledger, outcome) == sum(a.outcome == outcome for a in attempts)
        live = len(self._live())
        assert ledger.launched == (
            ledger.won + ledger.cancelled + ledger.failed + ledger.late + live
        )
        assert ledger.live() == live
        assert ledger.audit() == []

    @invariant()
    def decided_races_asked_every_live_attempt_to_cancel(self) -> None:
        for model in self.models:
            if model.decided:
                assert all(a.asked_to_cancel for a in model.attempts if a.outcome is None)

    @invariant()
    def undecided_races_still_race(self) -> None:
        for model in self.models:
            if model.attempts and not model.decided:
                assert any(a.outcome is None for a in model.attempts)


RaceMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestRaceStateMachine = RaceMachine.TestCase
