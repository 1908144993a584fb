"""The WAN backhaul in front of remote execution tiers.

A :class:`BackhaulLink` is the lossy, jittery wide-area hop between a
local vehicular cloud and its remote tiers (RSU-anchored edge cloud,
central datacenter).  It models:

* base propagation latency plus a throughput term per payload byte;
* seeded uniform jitter, optionally elevated inside a jitter window;
* Bernoulli frame loss, optionally elevated inside a loss window;
* outage windows, during which *new* transmissions are refused —
  frames already in flight still arrive (the photons left before the
  cut), which is what lets a remote result win through an outage that
  opened after dispatch.

Loss/outage are sampled at *send* time from the link's own RNG
substream, so a seeded run replays byte-identically.  Every outcome is
countered (``sent``/``delivered``/``lost`` plus per-reason breakdowns)
and mirrored into the metrics registry under ``tier/backhaul/<name>/``.

Fault windows are normally driven by a
:class:`~repro.faults.backhaul.BackhaulFaultDriver` mapping
:class:`~repro.faults.plan.FaultPlan` specs onto the link (partition →
outage, loss burst → loss window, jitter spike → jitter window), so
the same seeded plans that batter the radio stack batter the WAN.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..sim.world import World

#: Typed reasons a transmission can be refused or dropped.
LOSS_REASONS = ("outage", "loss")


class BackhaulLink:
    """One bidirectional WAN link with seeded latency/jitter/loss/outages."""

    def __init__(
        self,
        world: World,
        name: str = "backhaul",
        base_latency_s: float = 0.05,
        throughput_bps: float = 80_000_000.0,
        jitter_s: float = 0.0,
        loss_probability: float = 0.0,
    ) -> None:
        # Each check is written so that NaN fails it.
        if not (base_latency_s >= 0 and jitter_s >= 0):
            raise ConfigurationError("latency and jitter must be non-negative")
        if not throughput_bps > 0:
            raise ConfigurationError("throughput_bps must be positive")
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1)")
        self.world = world
        self.name = name
        self.base_latency_s = base_latency_s
        self.throughput_bps = throughput_bps
        self.jitter_s = jitter_s
        self.loss_probability = loss_probability
        self.rng = world.rng.fork(f"tier/backhaul/{name}")
        self._outage_until: Optional[float] = None  # None = no outage
        self._loss_until = 0.0
        self._loss_window_probability = 0.0
        self._jitter_until = 0.0
        self._jitter_window_extra_s = 0.0
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.loss_reasons: Dict[str, int] = {}
        self.outages = 0

    # -- fault windows -------------------------------------------------------

    def start_outage(self, duration_s: Optional[float] = None) -> None:
        """Cut the link; ``None`` means until :meth:`end_outage`."""
        if duration_s is not None and not duration_s > 0:
            raise ConfigurationError("outage duration_s must be positive")
        self._outage_until = (
            float("inf") if duration_s is None else self.world.now + duration_s
        )
        self.outages += 1
        self.world.metrics.increment(f"tier/backhaul/{self.name}/outages")
        self._emit("backhaul_outage", severity="warning", duration_s=duration_s)

    def end_outage(self) -> None:
        """Restore the link immediately."""
        if self._outage_until is not None:
            self._outage_until = None
            self._emit("backhaul_restored")

    def add_loss_window(self, duration_s: float, probability: float) -> None:
        """Elevate loss to ``probability`` for ``duration_s`` seconds."""
        if not duration_s > 0:
            raise ConfigurationError("duration_s must be positive")
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        self._loss_until = self.world.now + duration_s
        self._loss_window_probability = probability
        self._emit(
            "backhaul_loss_window", severity="warning",
            duration_s=duration_s, probability=probability,
        )

    def add_jitter_window(self, duration_s: float, extra_s: float) -> None:
        """Add up to ``extra_s`` of jitter for ``duration_s`` seconds."""
        if not (duration_s > 0 and extra_s > 0):
            raise ConfigurationError("duration_s and extra_s must be positive")
        self._jitter_until = self.world.now + duration_s
        self._jitter_window_extra_s = extra_s
        self._emit(
            "backhaul_jitter_window", severity="warning",
            duration_s=duration_s, extra_s=extra_s,
        )

    # -- state ---------------------------------------------------------------

    def available(self) -> bool:
        """Whether the link accepts new transmissions right now."""
        if self._outage_until is None:
            return True  # no outage ever started
        return self.world.now >= self._outage_until

    def effective_loss_probability(self) -> float:
        """The loss probability a frame sent now faces."""
        if self.world.now < self._loss_until:
            return max(self.loss_probability, self._loss_window_probability)
        return self.loss_probability

    def max_jitter_s(self) -> float:
        """The worst-case jitter a frame sent now could draw."""
        extra = (
            self._jitter_window_extra_s if self.world.now < self._jitter_until else 0.0
        )
        return self.jitter_s + extra

    def latency_estimate_s(self, payload_bytes: int) -> float:
        """Pessimistic one-way latency for feasibility checks (no RNG)."""
        return (
            self.base_latency_s
            + payload_bytes * 8.0 / self.throughput_bps
            + self.max_jitter_s()
        )

    # -- the data plane ------------------------------------------------------

    def transmit(
        self,
        payload_bytes: int,
        deliver: Callable[[], None],
        on_lost: Optional[Callable[[str], None]] = None,
        label: str = "backhaul-transit",
    ) -> bool:
        """Send one frame; ``deliver`` fires after transit on success.

        Loss and outage are decided *now*, at send time; a frame that
        makes it onto the wire is immune to windows that open later.
        Returns True when the frame was sent (delivery scheduled).  On
        refusal/loss ``on_lost`` fires synchronously with a typed reason
        from :data:`LOSS_REASONS`.
        """
        self.sent += 1
        self.world.metrics.increment(f"tier/backhaul/{self.name}/sent")
        if not self.available():
            self._lose("outage", on_lost)
            return False
        probability = self.effective_loss_probability()
        if probability > 0.0 and self.rng.chance(probability):
            self._lose("loss", on_lost)
            return False
        transit = (
            self.base_latency_s + payload_bytes * 8.0 / self.throughput_bps
        )
        jitter_bound = self.max_jitter_s()
        if jitter_bound > 0.0:
            transit += self.rng.uniform(0.0, jitter_bound)

        def _arrive() -> None:
            self.delivered += 1
            self.world.metrics.increment(f"tier/backhaul/{self.name}/delivered")
            deliver()

        self.world.engine.schedule(transit, _arrive, label=label)
        return True

    def _lose(self, reason: str, on_lost: Optional[Callable[[str], None]]) -> None:
        self.lost += 1
        self.loss_reasons[reason] = self.loss_reasons.get(reason, 0) + 1
        self.world.metrics.increment(f"tier/backhaul/{self.name}/lost/{reason}")
        if on_lost is not None:
            on_lost(reason)

    # -- observability -------------------------------------------------------

    def _emit(self, event: str, severity: str = "info", **attrs: object) -> None:
        events = self.world.events
        if events is not None:
            events.emit("tier", event, severity=severity, link=self.name, **attrs)

    def accounting(self) -> Dict[str, int]:
        """Frame conservation counters (``sent == delivered + lost + in flight``)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "in_flight": self.world.engine.pending_labeled("backhaul-transit"),
        }
