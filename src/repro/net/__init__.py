"""VANET network substrate: channel, messages, nodes, beacons, routing, clustering."""

from .beacon import BeaconService, NeighborEntry, NeighborTable
from .channel import (
    Frame,
    InterceptAction,
    InterceptVerdict,
    WirelessChannel,
)
from .messages import (
    BROADCAST,
    Message,
    MessageKind,
    SecurityEnvelope,
    data_message,
    hello_message,
)
from .node import FixedNode, NetworkNode, VehicleNode

__all__ = [
    "BROADCAST",
    "BeaconService",
    "FixedNode",
    "Frame",
    "InterceptAction",
    "InterceptVerdict",
    "Message",
    "MessageKind",
    "NeighborEntry",
    "NeighborTable",
    "NetworkNode",
    "SecurityEnvelope",
    "VehicleNode",
    "WirelessChannel",
    "data_message",
    "hello_message",
]
