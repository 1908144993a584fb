"""Network node wrappers.

A :class:`NetworkNode` gives an entity (vehicle, RSU, base station) a
presence on the wireless channel: an id, a position, a radio range, and
a dispatch table of message handlers keyed by :class:`MessageKind`.
The node attaches itself in ``NetworkNode.__init__``, so a subclass
sets whatever its ``position`` reads before calling it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..geometry import Vec2
from ..mobility.vehicle import PositionWatcher, Vehicle
from ..sim.world import World
from .channel import WirelessChannel
from .messages import Message, MessageKind

MessageHandler = Callable[[Message, str], None]


class NetworkNode:
    """Base node attached to the wireless channel."""

    def __init__(
        self,
        world: World,
        channel: WirelessChannel,
        node_id: str,
        radio_range_m: float,
    ) -> None:
        self.world = world
        self.channel = channel
        self.node_id = node_id
        self.radio_range_m = radio_range_m
        self.online = True
        self._handlers: Dict[MessageKind, List[MessageHandler]] = {}
        self._default_handlers: List[MessageHandler] = []
        self.received_count = 0
        channel.attach(self)

    @property
    def position(self) -> Vec2:
        """Current physical position; subclasses must provide one."""
        raise NotImplementedError

    # -- handler registration ------------------------------------------------

    def on(self, kind: MessageKind, handler: MessageHandler) -> None:
        """Register a handler for one message kind."""
        self._handlers.setdefault(kind, []).append(handler)

    def on_any(self, handler: MessageHandler) -> None:
        """Register a handler that sees every delivered message."""
        self._default_handlers.append(handler)

    # -- channel interface ------------------------------------------------------

    def deliver(self, message: Message, from_id: str) -> None:
        """Called by the channel when a frame reaches this node."""
        if not self.online:
            return
        self.received_count += 1
        for handler in self._handlers.get(message.kind, []):
            handler(message, from_id)
        for handler in self._default_handlers:
            handler(message, from_id)

    def send(self, dst_id: str, message: Message) -> bool:
        """Unicast a message to ``dst_id``; False if out of range/offline."""
        if not self.online:
            return False
        return self.channel.unicast(self.node_id, dst_id, message)

    def broadcast(self, message: Message) -> int:
        """Broadcast a message; returns the in-range receiver count."""
        if not self.online:
            return 0
        return self.channel.broadcast(self.node_id, message)

    def neighbors(self) -> List[str]:
        """Return ids of nodes currently within radio range."""
        return [n.node_id for n in self.channel.neighbors_of(self.node_id)]

    def go_offline(self) -> None:
        """Stop receiving and sending (parked-and-off, damaged, ...)."""
        self.online = False

    def go_online(self) -> None:
        """Resume participation."""
        self.online = True


class VehicleNode(NetworkNode):
    """A vehicle's presence on the channel; position tracks the vehicle."""

    def __init__(
        self,
        world: World,
        channel: WirelessChannel,
        vehicle: Vehicle,
        radio_range_m: Optional[float] = None,
    ) -> None:
        range_m = (
            radio_range_m if radio_range_m is not None else world.config.channel.v2v_range_m
        )
        self.vehicle = vehicle
        super().__init__(world, channel, vehicle.vehicle_id, range_m)

    @property
    def position(self) -> Vec2:
        return self.vehicle.position

    def watch_position(self, watcher: PositionWatcher) -> None:
        """Run ``watcher`` after every write of the vehicle's position."""
        self.vehicle.watch_position(watcher)

    def unwatch_position(self, watcher: PositionWatcher) -> None:
        """Stop running a watcher added by :meth:`watch_position`."""
        self.vehicle.unwatch_position(watcher)


class FixedNode(NetworkNode):
    """A node at a fixed position (RSU, base station, service endpoint)."""

    def __init__(
        self,
        world: World,
        channel: WirelessChannel,
        node_id: str,
        position: Vec2,
        radio_range_m: float,
    ) -> None:
        self._position = position
        super().__init__(world, channel, node_id, radio_range_m)

    @property
    def position(self) -> Vec2:
        return self._position
