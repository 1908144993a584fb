"""Road-side units (RSUs).

An RSU is a fixed radio node with a wired backhaul to the central cloud
and the trusted authority.  The paper's infrastructure-reliance argument
is quantified by counting how much of a workload's traffic must transit
an RSU — and by what breaks when :mod:`repro.infra.damage` turns them off.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional

from ..geometry import Vec2
from ..net.channel import WirelessChannel
from ..net.messages import Message
from ..net.node import FixedNode
from ..sim.world import World

_rsu_counter = itertools.count(1)


def next_rsu_id() -> str:
    """Return a fresh process-unique RSU id."""
    return f"rsu-{next(_rsu_counter)}"


def reset_rsu_ids() -> None:
    """Rewind the process-global RSU id counter to ``rsu-1``.

    Companion of :func:`repro.core.tasks.reset_task_ids` for
    byte-identical cross-run replay; rewind only between fresh worlds.
    """
    global _rsu_counter
    _rsu_counter = itertools.count(1)


class Rsu(FixedNode):
    """A road-side unit: local radio plus wired backhaul."""

    def __init__(
        self,
        world: World,
        channel: WirelessChannel,
        position: Vec2,
        rsu_id: Optional[str] = None,
        radio_range_m: Optional[float] = None,
    ) -> None:
        range_m = (
            radio_range_m if radio_range_m is not None else world.config.channel.rsu_range_m
        )
        super().__init__(
            world, channel, rsu_id if rsu_id is not None else next_rsu_id(), position, range_m
        )
        self.backhaul_delay_s = world.config.channel.wired_backhaul_delay_s
        self._backhaul_peers: List["Rsu"] = []
        self.damaged = False

    # -- backhaul -----------------------------------------------------------

    def connect_backhaul(self, peer: "Rsu") -> None:
        """Wire this RSU to a peer RSU (bidirectional)."""
        if peer not in self._backhaul_peers:
            self._backhaul_peers.append(peer)
        if self not in peer._backhaul_peers:
            peer._backhaul_peers.append(self)

    def backhaul_peers(self) -> List["Rsu"]:
        """Return RSUs reachable over the wired backhaul."""
        return list(self._backhaul_peers)

    def forward_via_backhaul(
        self, peer: "Rsu", message: Message, on_delivered: Optional[Callable[[], None]] = None
    ) -> bool:
        """Send a message to a peer RSU over the wire.

        Returns False when either end is damaged/offline.
        """
        if self.damaged or peer.damaged or not peer.online:
            self.world.metrics.increment("infra/backhaul_failures")
            return False
        self.world.metrics.increment("infra/backhaul_messages")

        def _deliver() -> None:
            peer.deliver(message, self.node_id)
            if on_delivered is not None:
                on_delivered()

        self.world.engine.schedule(self.backhaul_delay_s, _deliver, label="backhaul")
        return True

    # -- damage -----------------------------------------------------------------

    def damage(self) -> None:
        """Take the RSU out of service (disaster model)."""
        self.damaged = True
        self.go_offline()

    def repair(self) -> None:
        """Return the RSU to service."""
        self.damaged = False
        self.go_online()

    def covers(self, position: Vec2) -> bool:
        """Return True if a point is inside this RSU's radio coverage."""
        return self.position.distance_to(position) <= self.radio_range_m
