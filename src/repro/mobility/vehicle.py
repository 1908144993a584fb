"""Vehicle state: identity, kinematics and equipment.

A :class:`Vehicle` is pure state plus kinematic helpers; movement is
driven by a mobility model (``repro.mobility.models``), communication by
the network node wrapper (``repro.net.node``).  Keeping those concerns
separate lets tests exercise kinematics without a network and vice versa.

Anything may write ``vehicle.position`` (mobility models, fault
teleports, tests), so a vehicle tells its watchers about every write:
that is how a wireless channel keeps its spatial index current without
re-reading the whole fleet before each query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from ..geometry import Vec2, heading_difference
from .equipment import AutomationLevel, OnboardEquipment

_vehicle_counter = itertools.count(1)


def next_vehicle_id() -> str:
    """Return a fresh process-unique vehicle id (e.g. ``"veh-7"``)."""
    return f"veh-{next(_vehicle_counter)}"


def reset_vehicle_ids() -> None:
    """Rewind the process-global vehicle id counter to ``veh-1``.

    Vehicle ids seed per-node RNG forks and sorted member orders, so
    byte-identical cross-run replay must rewind this counter before each
    fresh world.  Never call it while an existing world's vehicles are
    still in use.
    """
    global _vehicle_counter
    _vehicle_counter = itertools.count(1)


#: Called with no arguments after each write of ``Vehicle.position``.
PositionWatcher = Callable[[], None]


@dataclass
class Vehicle:
    """A single vehicle's physical state.

    Attributes
    ----------
    vehicle_id:
        Stable simulation identifier.  This is *not* the identity used on
        the air — the security layer maps it to pseudonyms.
    position:
        Current location in metres.
    speed_mps:
        Scalar speed along ``heading_rad``.
    heading_rad:
        Direction of travel in radians.

    Every write of ``position`` runs the watchers registered with
    :meth:`watch_position`, in registration order, after the write.
    """

    vehicle_id: str = field(default_factory=next_vehicle_id)
    position: Vec2 = field(default_factory=lambda: Vec2(0.0, 0.0))
    speed_mps: float = 0.0
    heading_rad: float = 0.0
    automation_level: AutomationLevel = AutomationLevel.HIGH_AUTOMATION
    equipment: OnboardEquipment = field(default_factory=OnboardEquipment)
    parked: bool = False
    # Not an init field: the dataclass leaves the default ``()`` on the
    # class, which serves every vehicle until its first watcher arrives.
    _position_watchers: Tuple[PositionWatcher, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    # A write hook rather than a ``position`` property, so the far more
    # frequent reads stay plain attribute lookups.
    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name == "position":
            for watcher in self._position_watchers:
                watcher()

    def watch_position(self, watcher: PositionWatcher) -> None:
        """Run ``watcher`` after every later write of :attr:`position`."""
        self._position_watchers = self._position_watchers + (watcher,)

    def unwatch_position(self, watcher: PositionWatcher) -> None:
        """Stop running a watcher added by :meth:`watch_position`."""
        watchers = list(self._position_watchers)
        watchers.remove(watcher)
        self._position_watchers = tuple(watchers)

    @property
    def velocity(self) -> Vec2:
        """Velocity vector in metres per second."""
        return Vec2.from_polar(self.speed_mps, self.heading_rad)

    def advance(self, dt: float) -> None:
        """Move the vehicle along its heading for ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if self.parked or self.speed_mps == 0.0:
            return
        self.position = self.position + self.velocity * dt

    def distance_to(self, other: "Vehicle") -> float:
        """Return the Euclidean distance to another vehicle."""
        return self.position.distance_to(other.position)

    def relative_speed(self, other: "Vehicle") -> float:
        """Return the magnitude of the velocity difference with ``other``."""
        return (self.velocity - other.velocity).norm()

    def heading_alignment(self, other: "Vehicle") -> float:
        """Return alignment of travel directions in ``[0, 1]``.

        1 means identical headings, 0 means opposite directions.  Used by
        mobility-aware clustering to group vehicles moving together.
        """
        diff = heading_difference(self.heading_rad, other.heading_rad)
        return 1.0 - diff / math.pi

    def time_to_closest_approach(self, other: "Vehicle") -> Optional[float]:
        """Return the time at which the two vehicles are closest.

        None means the relative velocity is zero (the gap never changes).
        A negative result is clamped to 0 (they are already separating).
        """
        rel_pos = other.position - self.position
        rel_vel = other.velocity - self.velocity
        speed_sq = rel_vel.dot(rel_vel)
        if speed_sq == 0.0:
            return None
        t_star = -rel_pos.dot(rel_vel) / speed_sq
        return max(0.0, t_star)

    def park(self) -> None:
        """Mark the vehicle parked (stationary, engine off)."""
        self.parked = True
        self.speed_mps = 0.0

    def unpark(self, speed_mps: float, heading_rad: float) -> None:
        """Resume driving with the given kinematics."""
        self.parked = False
        self.speed_mps = speed_mps
        self.heading_rad = heading_rad
