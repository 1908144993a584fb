"""Cloud federation: mobility-driven merge and split (§V.A).

"We should consider how to handle the splitting, merging, re-allocation
of the groups."  The federation watches a set of dynamic v-clouds and:

* **merges** two clouds when their captains travel within merge range of
  each other (absorbing the smaller into the larger, capacity allowing);
* **splits** a cloud when its member spread exceeds the coordination
  diameter — the far half forms a new cloud around its own best captain.

Merges and splits are counted and, on an observability-enabled world,
emitted as structured events (``federation`` subsystem: ``cloud_merged``
/ ``cloud_split``) with metrics under the stable ``federation/`` prefix
(``federation/merges``, ``federation/splits``, plus ``clouds`` and
``members`` gauges), so tier churn shows up in campaign vectors instead
of hiding in bare counters.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from ..errors import MembershipError
from ..geometry import Vec2
from ..ids import next_id
from ..mobility.vehicle import Vehicle
from ..sim.world import World
from .election import BrokerCandidate, BrokerElection
from .vcloud import VehicularCloud


class CloudFederation:
    """Coordinates merge/split across a set of vehicular clouds."""

    def __init__(
        self,
        world: World,
        vehicle_lookup: Callable[[str], Optional[Vehicle]],
        merge_range_m: float = 150.0,
        max_diameter_m: float = 600.0,
        check_interval_s: float = 5.0,
    ) -> None:
        if merge_range_m <= 0 or max_diameter_m <= merge_range_m:
            raise MembershipError(
                "require 0 < merge_range_m < max_diameter_m for stable federation"
            )
        self.world = world
        self.vehicle_lookup = vehicle_lookup
        self.merge_range_m = merge_range_m
        self.max_diameter_m = max_diameter_m
        self.check_interval_s = check_interval_s
        self.clouds: List[VehicularCloud] = []
        self.election = BrokerElection()
        self.merges = 0
        self.splits = 0
        self._task = None

    # -- lifecycle ------------------------------------------------------------

    def register(self, cloud: VehicularCloud) -> None:
        """Put a cloud under federation management."""
        if cloud not in self.clouds:
            self.clouds.append(cloud)

    def start(self) -> None:
        """Begin periodic merge/split checks."""
        if self._task is None:
            self._task = self.world.engine.call_every(
                self.check_interval_s, self.step, label="federation-step"
            )

    def stop(self) -> None:
        """Stop periodic checks."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- geometry helpers --------------------------------------------------------

    def _head_position(self, cloud: VehicularCloud) -> Optional[Vec2]:
        if cloud.head_id is None:
            return None
        vehicle = self.vehicle_lookup(cloud.head_id)
        return vehicle.position if vehicle is not None else None

    def _member_positions(self, cloud: VehicularCloud) -> Dict[str, Vec2]:
        positions = {}
        for member_id in cloud.membership.member_ids():
            vehicle = self.vehicle_lookup(member_id)
            if vehicle is not None:
                positions[member_id] = vehicle.position
        return positions

    def diameter_of(self, cloud: VehicularCloud) -> float:
        """Largest member-to-member distance (0 for <2 locatable members)."""
        positions = list(self._member_positions(cloud).values())
        best = 0.0
        for index, a in enumerate(positions):
            for b in positions[index + 1 :]:
                best = max(best, a.distance_to(b))
        return best

    # -- the periodic step -------------------------------------------------------

    def step(self) -> None:
        """Run one merge-then-split pass."""
        self._try_merges()
        self._try_splits()

    def _try_merges(self) -> None:
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(self.clouds), 2):
                pos_a = self._head_position(a)
                pos_b = self._head_position(b)
                if pos_a is None or pos_b is None:
                    continue
                if pos_a.distance_to(pos_b) > self.merge_range_m:
                    continue
                survivor, absorbed = (
                    (a, b) if len(a.membership) >= len(b.membership) else (b, a)
                )
                if len(survivor.membership) + len(absorbed.membership) > (
                    survivor.membership.max_members
                ):
                    continue
                self._merge(survivor, absorbed)
                changed = True
                break

    def _merge(self, survivor: VehicularCloud, absorbed: VehicularCloud) -> None:
        # Move members (and their offers) into the survivor.
        moved = 0
        for member_id in absorbed.membership.member_ids():
            offer = absorbed.pool.offer_of(member_id)
            absorbed.member_leave(member_id)
            if member_id not in survivor.membership:
                vehicle = self.vehicle_lookup(member_id)
                if vehicle is None:
                    continue
                survivor.membership.join(member_id, self.world.now, vehicle.position)
                survivor.pool.add_offer(offer)
                moved += 1
        self.clouds.remove(absorbed)
        self.merges += 1
        self.world.metrics.increment("federation/merges")
        self._note_churn(
            "cloud_merged",
            survivor=survivor.cloud_id,
            absorbed=absorbed.cloud_id,
            moved_members=moved,
        )

    def _try_splits(self) -> None:
        for cloud in list(self.clouds):
            if len(cloud.membership) < 4:
                continue
            if self.diameter_of(cloud) <= self.max_diameter_m:
                continue
            self._split(cloud)

    def _split(self, cloud: VehicularCloud) -> None:
        positions = self._member_positions(cloud)
        head_position = self._head_position(cloud)
        if head_position is None or len(positions) < 4:
            return
        # The far half (relative to the captain) secedes.
        by_distance = sorted(
            positions.items(), key=lambda item: head_position.distance_to(item[1])
        )
        keep_count = max(2, len(by_distance) // 2)
        seceding = [member_id for member_id, _pos in by_distance[keep_count:]]
        if len(seceding) < 2:
            return
        new_cloud = VehicularCloud(
            self.world,
            f"{cloud.cloud_id}-split-{next_id('federation_split')}",
            allocator=cloud.allocator,
            handover_policy=cloud.handover_policy,
            coordination=cloud.coordination,
            dwell_lookup=cloud.dwell_lookup,
            max_members=cloud.membership.max_members,
        )
        # The parent's placement policies hold on the split too; a gate
        # registered later on either cloud stays its own.
        new_cloud.gates = list(cloud.gates)
        candidates = []
        for member_id in seceding:
            vehicle = self.vehicle_lookup(member_id)
            if vehicle is None:
                continue
            offer = cloud.pool.offer_of(member_id)
            cloud.member_leave(member_id)
            new_cloud.membership.join(member_id, self.world.now, vehicle.position)
            new_cloud.pool.add_offer(offer)
            candidates.append(
                BrokerCandidate(
                    vehicle_id=member_id,
                    compute_mips=offer.compute_mips,
                    estimated_dwell_s=60.0,
                    position=vehicle.position,
                )
            )
        if not candidates:
            return
        new_cloud.head_id = self.election.elect(candidates).winner_id
        self.clouds.append(new_cloud)
        self.splits += 1
        self.world.metrics.increment("federation/splits")
        self._note_churn(
            "cloud_split",
            parent=cloud.cloud_id,
            new_cloud=new_cloud.cloud_id,
            seceded_members=len(candidates),
            new_head=new_cloud.head_id,
        )

    def _note_churn(self, event: str, **attrs: object) -> None:
        """Ledger one merge/split under the stable ``federation/`` prefix."""
        self.world.metrics.set_gauge("federation/clouds", float(self.cloud_count()))
        self.world.metrics.set_gauge("federation/members", float(self.total_members()))
        events = self.world.events
        if events is not None:
            events.emit("federation", event, severity="info", **attrs)

    # -- introspection ------------------------------------------------------------

    def total_members(self) -> int:
        """Members across all federated clouds."""
        return sum(len(cloud.membership) for cloud in self.clouds)

    def cloud_count(self) -> int:
        """Number of live clouds under management."""
        return len(self.clouds)
