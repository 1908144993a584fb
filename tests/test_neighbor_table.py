"""Differential test of the neighbor table against an eager reference.

The table keeps each HELLO's own ``(x, y)`` tuple (a pair that is not a
tuple is copied into one) and builds an entry's ``Vec2`` on the first
read after a refresh.  The reference, written out here, copies the
position into a new ``Vec2`` on every refresh.  Both tables run the
same random program: HELLOs from a few sources, with coordinates
that include ``-0.0`` and ints, tuple pairs shared between HELLOs, list
pairs mutated after the refresh and payloads missing ``speed_mps`` or
``heading_rad``; ``expire`` exactly ``timeout_s`` after a refresh and
beyond it; reads with and without a clock; and position assignments.
After every operation the ids (in order), the returned entries and the
entry fields must be equal, compared by ``repr`` so that ``-0.0`` and
int coordinates count.  The allocation tests pin the lazy position: a
refresh builds no ``Vec2``, and one read builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import BeaconService, NeighborEntry, NeighborTable, VehicleNode, WirelessChannel
from repro.net import beacon as beacon_module
from repro.net.messages import BROADCAST, Message, MessageKind, hello_message
from repro.sim import ChannelConfig, ScenarioConfig, World


@dataclass
class EagerEntry:
    """The reference entry: a dataclass holding a ``Vec2``."""

    node_id: str
    position: Vec2
    speed_mps: float
    heading_rad: float
    last_seen: float
    beacon_count: int = 1


class EagerNeighborTable:
    """The reference table: every refresh builds a ``Vec2``."""

    def __init__(self, timeout_s: float, clock: Optional[Callable[[], float]] = None):
        self.timeout_s = timeout_s
        self._clock = clock
        self._entries: Dict[str, EagerEntry] = {}

    def _expire_on_read(self) -> None:
        if self._clock is not None:
            self.expire(self._clock())

    def update_from_hello(self, message: Message, now: float) -> EagerEntry:
        position = message.payload["position"]
        entry = self._entries.get(message.src)
        if entry is None:
            entry = EagerEntry(
                node_id=message.src,
                position=Vec2(position[0], position[1]),
                speed_mps=message.payload.get("speed_mps", 0.0),
                heading_rad=message.payload.get("heading_rad", 0.0),
                last_seen=now,
            )
            self._entries[message.src] = entry
        else:
            entry.position = Vec2(position[0], position[1])
            entry.speed_mps = message.payload.get("speed_mps", entry.speed_mps)
            entry.heading_rad = message.payload.get("heading_rad", entry.heading_rad)
            entry.last_seen = now
            entry.beacon_count += 1
        return entry

    def expire(self, now: float) -> List[str]:
        stale = [
            node_id
            for node_id, entry in self._entries.items()
            if now - entry.last_seen > self.timeout_s
        ]
        for node_id in stale:
            del self._entries[node_id]
        return stale

    def get(self, node_id):
        self._expire_on_read()
        return self._entries.get(node_id)

    def entries(self):
        self._expire_on_read()
        return list(self._entries.values())

    def ids(self):
        self._expire_on_read()
        return list(self._entries)

    def __len__(self):
        self._expire_on_read()
        return len(self._entries)

    def __contains__(self, node_id):
        self._expire_on_read()
        return node_id in self._entries


def fields(entry):
    """Every field of an entry, by ``repr`` so ``-0.0`` and ints count."""
    if entry is None:
        return None
    return (
        entry.node_id,
        repr(entry.position),
        repr(entry.speed_mps),
        repr(entry.heading_rad),
        repr(entry.last_seen),
        entry.beacon_count,
    )


SOURCES = ("veh-a", "veh-b", "veh-c")
COORD = st.sampled_from([0.0, -0.0, 1.5, -3.25, 10, 0.1, 1e-300, 250.0])
#: Clock steps; with the timeouts below they put refreshes and expiry
#: checks at exact and inexact multiples of each other.
STEP = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5])
TIMEOUT = st.sampled_from([0.3, 1.0, 2.5])
HELLO = st.tuples(
    st.just("hello"),
    st.sampled_from(SOURCES),
    st.tuples(COORD, COORD),
    st.sampled_from(["tuple", "shared", "list", "mutated-list"]),
    st.sampled_from(["both", "no-speed", "no-heading", "neither"]),
    st.sampled_from([0.0, -0.0, 12.5, 30]),
    STEP,
)
EXPIRE = st.tuples(
    st.just("expire"),
    st.sampled_from(SOURCES),
    st.sampled_from(["at-timeout", "past-timeout", "now"]),
)
READ = st.tuples(
    st.just("read"),
    st.sampled_from(["get", "entries", "ids", "len", "in"]),
    st.sampled_from(SOURCES + ("veh-unknown",)),
    STEP,
)
ASSIGN = st.tuples(st.just("assign"), st.sampled_from(SOURCES), st.tuples(COORD, COORD))
OPERATION = st.one_of(HELLO, HELLO, EXPIRE, READ, ASSIGN)


def hello(src, pair, keys, speed, created_at):
    payload = {"position": pair}
    if keys in ("both", "no-heading"):
        payload["speed_mps"] = speed
    if keys in ("both", "no-speed"):
        payload["heading_rad"] = speed / 100.0
    return Message(
        kind=MessageKind.HELLO,
        src=src,
        dst=BROADCAST,
        payload=payload,
        size_bytes=120,
        created_at=created_at,
        ttl_hops=0,
    )


@settings(max_examples=150, deadline=None)
@given(
    timeout_s=TIMEOUT,
    clocked=st.booleans(),
    operations=st.lists(OPERATION, min_size=1, max_size=40),
)
def test_table_matches_eager_table(timeout_s, clocked, operations):
    clock = {"now": 0.0}
    read_clock = (lambda: clock["now"]) if clocked else None
    new = NeighborTable(timeout_s, clock=read_clock)
    old = EagerNeighborTable(timeout_s, clock=read_clock)
    last_refresh: Dict[str, float] = {}
    shared_pairs: Dict[str, tuple] = {}
    for operation in operations:
        kind = operation[0]
        if kind == "hello":
            _, src, (x, y), pair_kind, keys, speed, step = operation
            clock["now"] += step
            now = clock["now"]
            if pair_kind == "shared":
                pair = shared_pairs.setdefault(src, (x, y))
            elif pair_kind in ("list", "mutated-list"):
                pair = [x, y]
            else:
                pair = (x, y)
            message = hello(src, pair, keys, speed, now)
            new_entry = new.update_from_hello(message, now)
            old_entry = old.update_from_hello(message, now)
            if pair_kind == "mutated-list":
                pair[0] = 999.0
                pair[1] = -999.0
            last_refresh[src] = now
            assert new_entry is new._entries[src]
            assert fields(new_entry) == fields(old_entry)
        elif kind == "expire":
            _, src, when = operation
            if when == "now" or src not in last_refresh:
                at = clock["now"]
            elif when == "at-timeout":
                at = last_refresh[src] + timeout_s
            else:
                at = last_refresh[src] + timeout_s * 1.5
            clock["now"] = max(clock["now"], at)
            assert new.expire(at) == old.expire(at)
        elif kind == "read":
            _, method, src, step = operation
            clock["now"] += step
            if method == "get":
                assert fields(new.get(src)) == fields(old.get(src))
            elif method == "entries":
                assert [fields(e) for e in new.entries()] == [
                    fields(e) for e in old.entries()
                ]
            elif method == "ids":
                assert new.ids() == old.ids()
            elif method == "len":
                assert len(new) == len(old)
            else:
                assert (src in new) == (src in old)
        else:
            _, src, (x, y) = operation
            if src in new._entries:
                position = Vec2(x, y)
                new._entries[src].position = position
                old._entries[src].position = position
                assert new._entries[src].position is position
        # Compared without a read, so the check does not expire anything.
        assert list(new._entries) == list(old._entries)
        assert [fields(e) for e in new._entries.values()] == [
            fields(e) for e in old._entries.values()
        ]


class TestEntryContract:
    def test_constructor_and_attributes_unchanged(self):
        entry = NeighborEntry("veh-x", Vec2(1.0, 2.0), 3.0, 0.5, 4.0)
        assert entry.position == Vec2(1.0, 2.0)
        assert (entry.speed_mps, entry.heading_rad, entry.last_seen) == (3.0, 0.5, 4.0)
        assert entry.beacon_count == 1
        assert entry.age(6.5) == 2.5
        assert entry == NeighborEntry("veh-x", Vec2(1.0, 2.0), 3.0, 0.5, 4.0)
        assert entry != NeighborEntry("veh-x", Vec2(1.0, 2.5), 3.0, 0.5, 4.0)
        assert "position=Vec2(x=1.0, y=2.0)" in repr(entry)

    def test_hello_without_position_raises_at_refresh(self):
        table = NeighborTable(timeout_s=1.0)
        message = Message(kind=MessageKind.HELLO, src="veh-x", dst=BROADCAST, payload={})
        with pytest.raises(KeyError):
            table.update_from_hello(message, 0.0)
        assert "veh-x" not in table

    def test_two_refreshes_without_a_read_give_the_latest(self):
        table = NeighborTable(timeout_s=5.0)
        table.update_from_hello(hello_message("veh-x", (1.0, 1.0), 1.0, 0.0, 0.0), 0.0)
        first = table.get("veh-x").position
        table.update_from_hello(hello_message("veh-x", (2.0, 2.0), 1.0, 0.0, 0.1), 0.1)
        table.update_from_hello(hello_message("veh-x", (3.0, -0.0), 1.0, 0.0, 0.2), 0.2)
        latest = table.get("veh-x").position
        assert first == Vec2(1.0, 1.0)
        assert repr(latest) == repr(Vec2(3.0, -0.0))

    def test_tuple_pair_is_shared_and_list_pair_is_copied(self):
        table = NeighborTable(timeout_s=5.0)
        pair = (4.0, 5.0)
        first = table.update_from_hello(hello_message("veh-a", pair, 1.0, 0.0, 0.0), 0.0)
        second = table.update_from_hello(hello_message("veh-b", pair, 1.0, 0.0, 0.0), 0.0)
        assert first._pair is pair and second._pair is pair
        listed = [6.0, 7.0]
        entry = table.update_from_hello(hello("veh-c", listed, "both", 1.0, 0.0), 0.0)
        listed[0] = 0.0
        assert entry.position == Vec2(6.0, 7.0)


class TestRefreshAllocatesNoVec2:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        real = beacon_module.Vec2

        def counting_vec2(x, y):
            built.append((x, y))
            return real(x, y)

        monkeypatch.setattr(beacon_module, "Vec2", counting_vec2)
        return built

    def test_refreshes_build_none_and_a_read_builds_one(self, built):
        table = NeighborTable(timeout_s=5.0)
        for index in range(300):
            now = index * 0.01
            src = f"veh-{index % 7}"
            table.update_from_hello(hello_message(src, (float(index), 2.0), 1.0, 0.0, now), now)
        assert table.expire(now=3.0) == []
        assert len(table) == 7 and table.ids()[0] == "veh-0"
        assert built == []
        entry = table.get("veh-3")
        assert entry.position == entry.position == Vec2(297.0, 2.0)
        assert built == [(297.0, 2.0)]

    def test_beaconing_world_builds_none(self, built):
        config = ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0)
        world = World(ScenarioConfig(seed=5, channel=config))
        channel = WirelessChannel(world)
        nodes = [
            VehicleNode(world, channel, Vehicle(position=Vec2(i * 50.0, 0.0)))
            for i in range(6)
        ]
        services = [BeaconService(world, node) for node in nodes]
        for service in services:
            service.start()
        world.run_for(5.0)
        assert world.metrics.counter("beacon/received") > 50
        assert built == []
        assert len(services[0].table.entries()) == 5
        assert built == []
        positions = {entry.position for entry in services[0].table.entries()}
        assert positions == {node.vehicle.position for node in nodes[1:]}
        assert len(built) == 5
