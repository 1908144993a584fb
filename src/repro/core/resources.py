"""Resource pooling (§II.C: sensing, storage, computing, networking).

Members publish a :class:`ResourceOffer` describing what they lend; a
:class:`ResourcePool` aggregates offers and tracks reservations so task
allocation can reason about *free* capacity, not nameplate capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from ..errors import ResourceError
from ..mobility.equipment import OnboardEquipment, SensorKind


class ResourceKind(enum.Enum):
    """The four pooled resource classes the paper names."""

    COMPUTE = "compute"
    STORAGE = "storage"
    BANDWIDTH = "bandwidth"
    SENSING = "sensing"


@dataclass(frozen=True)
class ResourceOffer:
    """What one member lends to the cloud."""

    vehicle_id: str
    compute_mips: float
    storage_bytes: int
    bandwidth_bps: float
    sensors: FrozenSet[SensorKind] = frozenset()

    def __post_init__(self) -> None:
        # ``not x >= 0`` rejects NaN too: one NaN offer would make every
        # capacity sum over the pool NaN.
        if not self.compute_mips >= 0 or not self.storage_bytes >= 0:
            raise ResourceError(
                f"offer from {self.vehicle_id!r} must lend non-negative compute "
                f"and storage, got {self.compute_mips} MIPS and {self.storage_bytes} bytes"
            )

    @staticmethod
    def from_equipment(
        vehicle_id: str,
        equipment: OnboardEquipment,
        lend_fraction: float = 0.8,
    ) -> "ResourceOffer":
        """Derive an offer from on-board equipment.

        ``lend_fraction`` keeps some capacity for the vehicle's own
        safety-critical workloads.
        """
        if not 0.0 < lend_fraction <= 1.0:
            raise ResourceError("lend_fraction must be in (0, 1]")
        return ResourceOffer(
            vehicle_id=vehicle_id,
            compute_mips=equipment.compute_mips * lend_fraction,
            storage_bytes=int(equipment.storage_bytes * lend_fraction),
            bandwidth_bps=equipment.bandwidth_bps * lend_fraction,
            sensors=frozenset(equipment.sensors),
        )


@dataclass
class _MemberState:
    offer: ResourceOffer
    reserved_mips: float = 0.0
    reserved_storage: int = 0

    @property
    def free_mips(self) -> float:
        return self.offer.compute_mips - self.reserved_mips

    @property
    def free_storage(self) -> int:
        return self.offer.storage_bytes - self.reserved_storage


@dataclass(frozen=True)
class Reservation:
    """A granted slice of a member's resources."""

    vehicle_id: str
    mips: float
    storage_bytes: int


class ResourcePool:
    """Aggregated, reservation-aware view of member resources."""

    def __init__(self) -> None:
        self._members: Dict[str, _MemberState] = {}
        #: Bumped by every membership write (an offer added, replaced or
        #: withdrawn) and never by a reservation, so a reader caching a
        #: view of the nameplate membership knows when to recompute it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, vehicle_id: str) -> bool:
        return vehicle_id in self._members

    # -- membership -----------------------------------------------------------

    def add_offer(self, offer: ResourceOffer) -> None:
        """Add (or replace) a member's offer."""
        self._members[offer.vehicle_id] = _MemberState(offer=offer)
        self.version += 1

    def remove_member(self, vehicle_id: str) -> Optional[ResourceOffer]:
        """Withdraw a member's offer (departure); returns the old offer."""
        state = self._members.pop(vehicle_id, None)
        if state is None:
            return None
        self.version += 1
        return state.offer

    def member_ids(self) -> List[str]:
        """All contributing members."""
        return list(self._members)

    def offer_of(self, vehicle_id: str) -> ResourceOffer:
        """Return a member's offer."""
        state = self._members.get(vehicle_id)
        if state is None:
            raise ResourceError(f"no offer from {vehicle_id!r}")
        return state.offer

    def member_states(self, vehicle_ids: Iterable[str]) -> List[_MemberState]:
        """Each listed member's live state, in the given order.

        One read for a whole assignment pass: the pass then takes each
        member's offer and reserved compute from its state, with no call
        back into the pool per member.  Raises :class:`ResourceError`
        for an id with no offer.  The states are the pool's own records,
        so reservations show up in them at once; read them, and reserve
        or release only through :meth:`reserve` and :meth:`release`.
        """
        try:
            return list(map(self._members.__getitem__, vehicle_ids))
        except KeyError as missing:
            raise ResourceError(f"no offer from {missing.args[0]!r}") from None

    # -- capacity queries --------------------------------------------------------

    def total_mips(self) -> float:
        """Nameplate compute across members."""
        return sum(s.offer.compute_mips for s in self._members.values())

    def free_mips(self, vehicle_id: str) -> float:
        """Unreserved compute of one member."""
        state = self._members.get(vehicle_id)
        if state is None:
            raise ResourceError(f"no offer from {vehicle_id!r}")
        return state.free_mips

    def total_free_mips(self) -> float:
        """Unreserved compute across members."""
        return sum(s.free_mips for s in self._members.values())

    def total_storage(self) -> int:
        """Nameplate storage across members."""
        return sum(s.offer.storage_bytes for s in self._members.values())

    def members_with_sensor(self, sensor: SensorKind) -> List[str]:
        """Members carrying a given sensor family."""
        return [
            vid for vid, s in self._members.items() if sensor in s.offer.sensors
        ]

    def utilization(self) -> float:
        """Reserved fraction of total compute (0 when empty)."""
        total = self.total_mips()
        if total == 0:
            return 0.0
        reserved = sum(s.reserved_mips for s in self._members.values())
        return reserved / total

    # -- reservations ----------------------------------------------------------------

    def reserve(
        self, vehicle_id: str, mips: float, storage_bytes: int = 0
    ) -> Reservation:
        """Reserve capacity on one member; raises if insufficient."""
        state = self._members.get(vehicle_id)
        if state is None:
            raise ResourceError(f"no offer from {vehicle_id!r}")
        if not mips >= 0 or not storage_bytes >= 0:  # NaN fails too
            raise ResourceError("reservation amounts must be non-negative")
        if state.free_mips < mips:
            raise ResourceError(
                f"{vehicle_id!r} has {state.free_mips:.0f} free MIPS, need {mips:.0f}"
            )
        if state.free_storage < storage_bytes:
            raise ResourceError(
                f"{vehicle_id!r} has {state.free_storage} free bytes, need {storage_bytes}"
            )
        state.reserved_mips += mips
        state.reserved_storage += storage_bytes
        return Reservation(vehicle_id=vehicle_id, mips=mips, storage_bytes=storage_bytes)

    def release(self, reservation: Reservation) -> None:
        """Release a previously granted reservation.

        Releasing after the member departed is a no-op (its resources
        left with it).
        """
        state = self._members.get(reservation.vehicle_id)
        if state is None:
            return
        state.reserved_mips = max(0.0, state.reserved_mips - reservation.mips)
        state.reserved_storage = max(0, state.reserved_storage - reservation.storage_bytes)
