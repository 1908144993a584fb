"""On-board equipment of autonomous vehicles (paper Fig. 1).

The paper enumerates three equipment groups — embedded sensors, on-board
units (storage, computing) and wireless network interfaces — and ties the
SAE automation level to equipment richness.  This module models both so
task allocation and access-control decisions can depend on what a vehicle
actually carries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet

from ..errors import ConfigurationError


class AutomationLevel(enum.IntEnum):
    """SAE J3016 driving automation levels (paper §II.A)."""

    NO_AUTOMATION = 0
    DRIVER_ASSISTANCE = 1
    PARTIAL_AUTOMATION = 2
    CONDITIONAL_AUTOMATION = 3
    HIGH_AUTOMATION = 4
    FULL_AUTOMATION = 5

    @property
    def is_autonomous(self) -> bool:
        """True for conditional automation and above."""
        return self >= AutomationLevel.CONDITIONAL_AUTOMATION


class SensorKind(enum.Enum):
    """Embedded sensor families named by the paper (Fig. 1)."""

    OPTICAL = "optical"
    INFRARED = "infrared"
    RADAR = "radar"
    LIDAR = "lidar"
    CAMERA = "camera"
    GPS = "gps"
    SPEEDOMETER = "speedometer"


class RadioKind(enum.Enum):
    """Wireless interfaces a vehicle may carry."""

    DSRC = "dsrc"  # V2V / V2I short range
    CELLULAR = "cellular"  # wide-area uplink


#: Sensor sets that plausibly accompany each automation level.
_LEVEL_SENSORS = {
    AutomationLevel.NO_AUTOMATION: {SensorKind.GPS, SensorKind.SPEEDOMETER},
    AutomationLevel.DRIVER_ASSISTANCE: {
        SensorKind.GPS,
        SensorKind.SPEEDOMETER,
        SensorKind.RADAR,
    },
    AutomationLevel.PARTIAL_AUTOMATION: {
        SensorKind.GPS,
        SensorKind.SPEEDOMETER,
        SensorKind.RADAR,
        SensorKind.CAMERA,
    },
    AutomationLevel.CONDITIONAL_AUTOMATION: {
        SensorKind.GPS,
        SensorKind.SPEEDOMETER,
        SensorKind.RADAR,
        SensorKind.CAMERA,
        SensorKind.OPTICAL,
    },
    AutomationLevel.HIGH_AUTOMATION: {
        SensorKind.GPS,
        SensorKind.SPEEDOMETER,
        SensorKind.RADAR,
        SensorKind.CAMERA,
        SensorKind.OPTICAL,
        SensorKind.LIDAR,
    },
    AutomationLevel.FULL_AUTOMATION: set(SensorKind),
}


@dataclass(frozen=True)
class OnboardEquipment:
    """The resources a single vehicle contributes to a v-cloud.

    ``compute_mips`` is an abstract work rate (million instructions per
    simulated second); ``storage_bytes`` and ``bandwidth_bps`` bound what
    the vehicle can lend to the resource pool.
    """

    compute_mips: float = 2000.0
    storage_bytes: int = 64 * 1024**3
    bandwidth_bps: float = 6_000_000.0
    sensors: FrozenSet[SensorKind] = field(
        default_factory=lambda: frozenset(_LEVEL_SENSORS[AutomationLevel.HIGH_AUTOMATION])
    )
    radios: FrozenSet[RadioKind] = field(
        default_factory=lambda: frozenset({RadioKind.DSRC})
    )
    tamper_proof_device: bool = True
    plugged_in: bool = False

    def __post_init__(self) -> None:
        if not self.compute_mips > 0:
            raise ConfigurationError("compute_mips must be positive")
        if not self.storage_bytes >= 0:
            raise ConfigurationError("storage_bytes must be non-negative")
        if not self.bandwidth_bps > 0:
            raise ConfigurationError("bandwidth_bps must be positive")

    def has_sensor(self, kind: SensorKind) -> bool:
        """Return True if the vehicle carries the given sensor family."""
        return kind in self.sensors

    def has_radio(self, kind: RadioKind) -> bool:
        """Return True if the vehicle carries the given radio."""
        return kind in self.radios

    @staticmethod
    def for_level(
        level: AutomationLevel,
        cellular: bool = False,
        compute_mips: float = 2000.0,
        storage_bytes: int = 64 * 1024**3,
    ) -> "OnboardEquipment":
        """Build a plausible equipment loadout for an automation level.

        Higher levels carry richer sensors and proportionally larger
        compute (Fig. 1: higher automation implies more on-board power).
        """
        radios = {RadioKind.DSRC}
        if cellular:
            radios.add(RadioKind.CELLULAR)
        scale = 0.5 + 0.25 * int(level)
        return OnboardEquipment(
            compute_mips=compute_mips * scale,
            storage_bytes=storage_bytes,
            sensors=frozenset(_LEVEL_SENSORS[level]),
            radios=frozenset(radios),
        )
