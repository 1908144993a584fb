"""Scenario configuration dataclasses.

Configs are plain frozen dataclasses with validation in ``__post_init__``
so an invalid scenario fails fast at construction time, not mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ChannelConfig:
    """Wireless channel parameters.

    ``v2v_range_m`` approximates DSRC-class radios; the loss exponent and
    contention delay shape latency under density, which is the axis the
    paper's time-constraint arguments live on.

    ``propagation_delay_s_per_km`` is the speed-of-light delay, 3.34 µs
    per km, but the channel's latency model evaluates
    ``(distance_m / 1000.0) * propagation_delay_s_per_km * 1000.0``,
    which is ``distance_m * 3.34e-6`` seconds: 1.0 ms at 300 m, where
    light takes 1.0 µs.  The term is 1000 times too large.  Every seeded
    output and both blessed campaign baselines were recorded with it, so
    it is documented here and not fixed; the fix is a behaviour change
    that re-blesses them.

    A channel computes from these values, once per link, each
    receiver's distance and loss probability, and once per frame
    airtime a source sends, each receiver's whole hop latency.
    It caches them with the source's neighbor set, keyed by the source
    id and the frame airtime, and drops them with it on any real move,
    attach or detach.  No cached value can go stale with the config:
    it is frozen, and a channel sets its ``config`` only at construction.
    """

    v2v_range_m: float = 300.0
    rsu_range_m: float = 500.0
    base_station_range_m: float = 3000.0
    propagation_delay_s_per_km: float = 3.34e-6
    base_transmit_delay_s: float = 0.002
    bytes_per_second: float = 750_000.0
    base_loss_probability: float = 0.02
    loss_per_100m: float = 0.015
    contention_delay_per_neighbor_s: float = 0.0004
    wired_backhaul_delay_s: float = 0.020
    wan_delay_s: float = 0.080

    def __post_init__(self) -> None:
        _require(self.v2v_range_m > 0, "v2v_range_m must be positive")
        _require(self.rsu_range_m > 0, "rsu_range_m must be positive")
        _require(self.base_station_range_m > 0, "base_station_range_m must be positive")
        _require(self.bytes_per_second > 0, "bytes_per_second must be positive")
        _require(
            0.0 <= self.base_loss_probability < 1.0,
            "base_loss_probability must be in [0, 1)",
        )
        _require(self.loss_per_100m >= 0, "loss_per_100m must be non-negative")
        _require(
            self.propagation_delay_s_per_km >= 0,
            "propagation_delay_s_per_km must be non-negative",
        )
        _require(
            self.base_transmit_delay_s >= 0,
            "base_transmit_delay_s must be non-negative",
        )
        _require(
            self.contention_delay_per_neighbor_s >= 0,
            "contention_delay_per_neighbor_s must be non-negative",
        )
        _require(
            self.wired_backhaul_delay_s >= 0,
            "wired_backhaul_delay_s must be non-negative",
        )
        _require(self.wan_delay_s >= 0, "wan_delay_s must be non-negative")


@dataclass(frozen=True)
class MobilityConfig:
    """Traffic parameters shared by the mobility models."""

    mean_speed_mps: float = 25.0
    speed_std_mps: float = 4.0
    min_speed_mps: float = 5.0
    max_speed_mps: float = 40.0
    update_interval_s: float = 0.5
    turn_probability: float = 0.25
    parking_departure_rate_per_hour: float = 6.0

    def __post_init__(self) -> None:
        _require(self.mean_speed_mps > 0, "mean_speed_mps must be positive")
        _require(self.speed_std_mps >= 0, "speed_std_mps must be non-negative")
        _require(
            0 < self.min_speed_mps <= self.max_speed_mps,
            "speed bounds must satisfy 0 < min <= max",
        )
        _require(self.update_interval_s > 0, "update_interval_s must be positive")
        _require(
            0.0 <= self.turn_probability <= 1.0, "turn_probability must be in [0, 1]"
        )


@dataclass(frozen=True)
class SecurityConfig:
    """Knobs for the security stack."""

    pseudonym_pool_size: int = 20
    pseudonym_change_interval_s: float = 60.0
    beacon_signing: bool = True
    replay_cache_window_s: float = 30.0
    crl_check_cost_per_entry_s: float = 2e-6
    auth_deadline_s: float = 1.0
    emergency_grant_deadline_s: float = 0.050

    def __post_init__(self) -> None:
        _require(self.pseudonym_pool_size > 0, "pseudonym_pool_size must be positive")
        _require(
            self.pseudonym_change_interval_s > 0,
            "pseudonym_change_interval_s must be positive",
        )
        _require(self.auth_deadline_s > 0, "auth_deadline_s must be positive")


@dataclass(frozen=True)
class CloudConfig:
    """V-cloud formation and task-management parameters."""

    beacon_interval_s: float = 1.0
    neighbor_timeout_s: float = 3.0
    head_reelection_interval_s: float = 10.0
    min_cluster_dwell_s: float = 5.0
    task_checkpoint_interval_s: float = 2.0
    default_replicas: int = 3
    max_members: int = 64

    def __post_init__(self) -> None:
        _require(self.beacon_interval_s > 0, "beacon_interval_s must be positive")
        _require(
            self.neighbor_timeout_s > self.beacon_interval_s,
            "neighbor_timeout_s must exceed beacon_interval_s",
        )
        _require(self.default_replicas >= 1, "default_replicas must be >= 1")
        _require(self.max_members >= 2, "max_members must be >= 2")


@dataclass(frozen=True)
class ScenarioConfig:
    """Top-level configuration for one simulation scenario.

    ``error_policy`` governs how the engine treats raising callbacks:
    ``"raise"`` aborts the run (unit-test behaviour), ``"record"`` keeps
    running and ledgers every failure in the metrics registry,
    ``"suppress"`` keeps running and only counts them.
    """

    seed: int = 42
    duration_s: float = 120.0
    vehicle_count: int = 50
    area_m: Tuple[float, float] = (2000.0, 2000.0)
    error_policy: str = "raise"
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    cloud: CloudConfig = field(default_factory=CloudConfig)

    def __post_init__(self) -> None:
        _require(self.duration_s > 0, "duration_s must be positive")
        _require(self.vehicle_count > 0, "vehicle_count must be positive")
        _require(
            self.area_m[0] > 0 and self.area_m[1] > 0, "area dimensions must be positive"
        )
        _require(
            self.error_policy in ("raise", "record", "suppress"),
            "error_policy must be 'raise', 'record' or 'suppress'",
        )

    def with_overrides(self, **kwargs: object) -> "ScenarioConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]
