"""Periodic HELLO beaconing and neighbor tables.

Beacons are how vehicles learn the local "topology" the paper says the
basic supporting architecture must maintain: every node broadcasts its
kinematic state once per interval, and receivers keep a
:class:`NeighborTable` whose entries expire when beacons stop arriving
(vehicle left range, went offline, or the channel lost the frames).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..geometry import Vec2
from ..sim.world import World
from .messages import Message, MessageKind, hello_message
from .node import VehicleNode


class NeighborEntry:
    """Last-known state of one neighbor, refreshed by its beacons.

    A refresh stores the HELLO's ``(x, y)`` pair, not a :class:`Vec2`:
    tables are written on every heard beacon and read far more rarely,
    so ``position`` is built on its first read after a refresh and
    cached until the next one.  It always equals ``Vec2(x, y)`` of the
    latest HELLO, and it can be assigned.
    """

    __slots__ = (
        "node_id",
        "speed_mps",
        "heading_rad",
        "last_seen",
        "beacon_count",
        "_pair",
        "_position",
    )

    def __init__(
        self,
        node_id: str,
        position: Vec2,
        speed_mps: float,
        heading_rad: float,
        last_seen: float,
        beacon_count: int = 1,
    ) -> None:
        self.node_id = node_id
        self._pair: Optional[Tuple[float, float]] = None
        self._position: Optional[Vec2] = position
        self.speed_mps = speed_mps
        self.heading_rad = heading_rad
        self.last_seen = last_seen
        self.beacon_count = beacon_count

    @property
    def position(self) -> Vec2:
        """The latest HELLO's position, built on its first read."""
        position = self._position
        if position is None:
            pair = self._pair
            assert pair is not None
            position = self._position = Vec2(pair[0], pair[1])
        return position

    @position.setter
    def position(self, value: Vec2) -> None:
        self._position = value

    def age(self, now: float) -> float:
        """Seconds since the last beacon from this neighbor."""
        return now - self.last_seen

    # Entries compare and print by their public fields.
    _FIELDS = ("node_id", "position", "speed_mps", "heading_rad", "last_seen", "beacon_count")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"NeighborEntry({fields})"


class NeighborTable:
    """Beacon-derived view of nearby nodes with timeout-based expiry.

    When constructed with a ``clock`` (a zero-argument callable returning
    the current time), stale entries are also expired on every read, so a
    node whose *own* beaconing stopped (crash, stall) cannot serve an
    ever-frozen table: expiry used to run only inside the owner's beacon
    callback, which a crashed beaconer never executes again.  Without a
    clock, expiry remains explicit via :meth:`expire`.

    Refreshing an entry from a HELLO allocates nothing: the entry keeps
    the payload's own position tuple, which every receiver of that
    beacon shares, and builds its ``Vec2`` only when read.  A pair that
    is not a tuple is copied into one, so mutating it later does not
    reach the table.  :meth:`ids`, :meth:`entries` and the list
    :meth:`expire` returns follow first-heard order.
    """

    def __init__(
        self, timeout_s: float, clock: Optional[Callable[[], float]] = None
    ) -> None:
        if not timeout_s > 0:
            raise ConfigurationError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self._clock = clock
        self._entries: Dict[str, NeighborEntry] = {}

    def _expire_on_read(self) -> None:
        if self._clock is not None:
            self.expire(self._clock())

    def update_from_hello(self, message: Message, now: float) -> NeighborEntry:
        """Insert or refresh an entry from a HELLO message."""
        payload = message.payload
        pair = payload["position"]
        if pair.__class__ is not tuple:
            pair = (pair[0], pair[1])
        entry = self._entries.get(message.src)
        if entry is None:
            # A new entry is an empty one refreshed once.
            entry = NeighborEntry.__new__(NeighborEntry)
            entry.node_id = message.src
            entry.speed_mps = entry.heading_rad = 0.0
            entry.beacon_count = 0
            self._entries[message.src] = entry
        entry._pair = pair
        entry._position = None
        entry.speed_mps = payload.get("speed_mps", entry.speed_mps)
        entry.heading_rad = payload.get("heading_rad", entry.heading_rad)
        entry.last_seen = now
        entry.beacon_count += 1
        return entry

    def expire(self, now: float) -> List[str]:
        """Drop entries older than the timeout; returns the dropped ids."""
        timeout_s = self.timeout_s
        stale = [
            node_id
            for node_id, entry in self._entries.items()
            if now - entry.last_seen > timeout_s
        ]
        for node_id in stale:
            del self._entries[node_id]
        return stale

    def get(self, node_id: str) -> Optional[NeighborEntry]:
        """Return the entry for ``node_id`` if fresh enough to exist."""
        self._expire_on_read()
        return self._entries.get(node_id)

    def entries(self) -> List[NeighborEntry]:
        """Return all current entries."""
        self._expire_on_read()
        return list(self._entries.values())

    def ids(self) -> List[str]:
        """Return all current neighbor ids."""
        self._expire_on_read()
        return list(self._entries)

    def __len__(self) -> int:
        self._expire_on_read()
        return len(self._entries)

    def __contains__(self, node_id: str) -> bool:
        self._expire_on_read()
        return node_id in self._entries


class BeaconService:
    """Runs beaconing and neighbor-table maintenance for one vehicle node.

    The optional ``identity_provider`` lets the security layer substitute
    a pseudonym for the on-air source id, which is what makes pseudonym
    changes visible to the tracking adversary of experiment E3.
    """

    def __init__(
        self,
        world: World,
        node: VehicleNode,
        interval_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        identity_provider: Optional[object] = None,
    ) -> None:
        cloud_cfg = world.config.cloud
        self.world = world
        self.node = node
        self.interval_s = interval_s if interval_s is not None else cloud_cfg.beacon_interval_s
        timeout = timeout_s if timeout_s is not None else cloud_cfg.neighbor_timeout_s
        self.table = NeighborTable(timeout, clock=lambda: self.world.now)
        self.identity_provider = identity_provider
        self._task = None
        node.on(MessageKind.HELLO, self._on_hello)

    def start(self) -> None:
        """Begin periodic beaconing (with per-node jitter)."""
        if self._task is not None:
            return
        rng = self.world.rng.fork(f"beacon/{self.node.node_id}")
        self._task = self.world.engine.call_every(
            self.interval_s,
            self._beacon,
            label=f"beacon:{self.node.node_id}",
            jitter=self.interval_s * 0.1,
            rng=rng,
            start_delay=rng.uniform(0.0, self.interval_s),
        )

    def stop(self) -> None:
        """Stop beaconing."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def on_air_identity(self) -> str:
        """Return the identity this node currently puts on the air."""
        if self.identity_provider is not None:
            return self.identity_provider.current_identity(self.world.now)
        return self.node.node_id

    def _beacon(self) -> None:
        vehicle = self.node.vehicle
        message = hello_message(
            src=self.on_air_identity(),
            position=vehicle.position.as_tuple(),
            speed_mps=vehicle.speed_mps,
            heading_rad=vehicle.heading_rad,
            created_at=self.world.now,
        )
        self.node.broadcast(message)
        self.world.metrics.increment("beacon/sent")
        self.table.expire(self.world.now)

    def _on_hello(self, message: Message, from_id: str) -> None:
        self.table.update_from_hello(message, self.world.now)
        self.world.metrics.increment("beacon/received")
