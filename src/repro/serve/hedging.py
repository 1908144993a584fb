"""Deadline-aware hedged offload.

The tail-latency defence: when a dispatched request has outrun the
expected-latency quantile of recent completions and its deadline is in
danger, launch a *hedge* — a secondary replica of the same work on a
different worker — and let the first finisher win.  The loser is
cancelled through the cloud's typed-failure path (``hedge_cancelled``),
so hedging never leaks untracked work.

Hedges are only worth their cost when there is spare capacity; the
policy therefore refuses to hedge while the admission queue is backed
up (those slots belong to fresh requests) and bounds concurrent hedges.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..errors import ConfigurationError
from ..sim.metrics import percentile


class LatencyQuantileTracker:
    """Sliding-window tracker of observed completion latencies.

    Keeps the last ``window`` end-to-end latencies and answers quantile
    queries once ``min_samples`` have been seen; before that it reports
    None and callers fall back to an analytic estimate.  Deterministic:
    no RNG, pure function of the observation sequence.

    The window is also kept sorted, so a query sorts nothing.  Equal to
    ``sorted(window)`` element for element, ``-0.0`` included: ``insort``
    puts a sample after the values equal to it, so the oldest of a run
    of equal values sits leftmost, and the sample a full window evicts
    is its oldest, the one at its ``bisect_left`` index.
    """

    def __init__(self, window: int = 64, min_samples: int = 10) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        self.window = window
        self.min_samples = min_samples
        self._samples: Deque[float] = deque(maxlen=window)
        self._sorted: List[float] = []

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, latency_s: float) -> None:
        """Record one completed request's end-to-end latency."""
        if latency_s != latency_s:
            raise ConfigurationError("latency_s must not be NaN")
        samples, ordered = self._samples, self._sorted
        if len(samples) == self.window:
            del ordered[bisect_left(ordered, samples[0])]
        samples.append(latency_s)
        insort(ordered, latency_s)

    def quantile(self, fraction: float) -> Optional[float]:
        """The requested latency quantile, None until warmed up."""
        if len(self._sorted) < self.min_samples:
            return None
        return percentile(self._sorted, fraction)


@dataclass(frozen=True)
class HedgePolicy:
    """When and whether to launch a hedge replica.

    ``quantile`` sets the trigger point: a request becomes
    hedge-eligible once its primary has been in flight longer than that
    quantile of observed latencies (or ``fallback_factor`` times the
    analytic runtime estimate while the tracker is cold).  The
    remaining deadline must still cover a fresh attempt — hedging work
    that cannot finish anyway only steals capacity.
    """

    quantile: float = 0.90
    fallback_factor: float = 2.0
    max_inflight_hedges: int = 2
    require_idle_queue: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigurationError("quantile must be in (0, 1)")
        if not self.fallback_factor >= 1.0:
            raise ConfigurationError("fallback_factor must be >= 1")
        if not self.max_inflight_hedges >= 1:
            raise ConfigurationError("max_inflight_hedges must be >= 1")

    def trigger_delay_s(
        self, tracker: LatencyQuantileTracker, expected_runtime_s: float
    ) -> float:
        """In-flight time after which the primary counts as lagging."""
        observed = tracker.quantile(self.quantile)
        if observed is not None:
            return max(observed, 1e-3)
        return max(expected_runtime_s * self.fallback_factor, 1e-3)

    def may_hedge(
        self,
        inflight_hedges: int,
        queue_depth: int,
        remaining_deadline_s: Optional[float],
        expected_runtime_s: float,
    ) -> bool:
        """Whether launching a hedge now is worthwhile."""
        if inflight_hedges >= self.max_inflight_hedges:
            return False
        if self.require_idle_queue and queue_depth > 0:
            return False
        if remaining_deadline_s is not None and remaining_deadline_s < expected_runtime_s:
            return False
        return True
