"""Stateful oracle test of the channel's write-tracked spatial index.

An indexed ``WirelessChannel`` re-buckets only the nodes whose position
was written since its last query.  Here two indexed channels share one
world (the second gets a private grid), and each has a brute-force twin
(``use_spatial_index=False``) on the same world.  A vehicle joins a
channel and its twin through one ``Vehicle``, so every write reaches
both, and a vehicle may sit on both indexed channels at once.  Plain
nodes, which cannot report writes, join the same way and must keep
being re-read.  After every rule, each indexed channel must agree with
its twin: the same ``neighbors_of`` list for every attached node, and
the same broadcast receiver count.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import VehicleNode, WirelessChannel, hello_message
from repro.sim import ScenarioConfig, World

# A coarse lattice makes boundary-exact distances and coincident
# positions common, as in tests/test_sim_spatial.py.
coords = st.integers(min_value=-12, max_value=12).map(lambda v: v * 50.0)
points = st.tuples(coords, coords).map(lambda t: Vec2(*t))
ranges = st.sampled_from([50.0, 100.0, 300.0])
speeds = st.sampled_from([0.0, 25.0, 50.0])
headings = st.sampled_from([0.0, 1.5707963267948966, 3.141592653589793, 0.7853981633974483])
steps = st.sampled_from([0.5, 1.0, 2.0])

PAIRS = (0, 1)


def ids(nodes):
    return [node.node_id for node in nodes]


class PlainNode:
    """A channel node with a bare ``position`` attribute and no watchers."""

    def __init__(self, node_id: str, position: Vec2, radio_range_m: float) -> None:
        self.node_id = node_id
        self.position = position
        self.radio_range_m = radio_range_m

    def deliver(self, message, from_id) -> None:
        pass


class ChannelSyncMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.world = World(ScenarioConfig(seed=5))
        #: (indexed, oracle) per pair; only pair 0 gets the world's grid.
        self.pairs = [
            (WirelessChannel(self.world), WirelessChannel(self.world, use_spatial_index=False))
            for _ in PAIRS
        ]
        #: Vehicles and plain nodes: whatever a position write goes to.
        self.movers = []
        #: (pair, node id) -> (indexed node, oracle node)
        self.nodes = {}
        #: (pair, node id) keys of detached nodes
        self.detached = set()

    def _attach_new(self, pair: int, vehicle: Vehicle, range_m: float) -> None:
        indexed, oracle = self.pairs[pair]
        self.nodes[(pair, vehicle.vehicle_id)] = (
            VehicleNode(self.world, indexed, vehicle, radio_range_m=range_m),
            VehicleNode(self.world, oracle, vehicle, radio_range_m=range_m),
        )

    def _attached(self):
        return sorted(key for key in self.nodes if key not in self.detached)

    def _broadcast(self, pair: int, src_id: str):
        """Receiver counts of one broadcast on the indexed channel and its twin."""
        message = hello_message(src_id, (0.0, 0.0), 0.0, 0.0, self.world.now)
        indexed, oracle = self.pairs[pair]
        return indexed.broadcast(src_id, message), oracle.broadcast(src_id, message)

    # -- membership ----------------------------------------------------------

    def _vehicles(self):
        return [mover for mover in self.movers if isinstance(mover, Vehicle)]

    def _single(self):
        return sorted(
            key
            for key in self.nodes
            if key[1].startswith("v") and (1 - key[0], key[1]) not in self.nodes
        )

    @rule(pair=st.sampled_from(PAIRS), position=points, range_m=ranges)
    def add_vehicle(self, pair, position, range_m) -> None:
        vehicle = Vehicle(vehicle_id=f"v{len(self.movers)}", position=position)
        self.movers.append(vehicle)
        self._attach_new(pair, vehicle, range_m)

    @rule(pair=st.sampled_from(PAIRS), position=points, range_m=ranges)
    def add_plain_node(self, pair, position, range_m) -> None:
        node = PlainNode(f"p{len(self.movers)}", position, range_m)
        self.movers.append(node)
        for channel in self.pairs[pair]:
            channel.attach(node)
        self.nodes[(pair, node.node_id)] = (node, node)

    @precondition(lambda self: self._single())
    @rule(data=st.data(), range_m=ranges)
    def join_second_channel(self, data, range_m) -> None:
        """One vehicle on both indexed channels of one world."""
        pair, vehicle_id = data.draw(st.sampled_from(self._single()))
        vehicle = self.nodes[(pair, vehicle_id)][0].vehicle
        self._attach_new(1 - pair, vehicle, range_m)

    @precondition(lambda self: self._attached())
    @rule(data=st.data())
    def detach(self, data) -> None:
        pair, node_id = data.draw(st.sampled_from(self._attached()))
        for channel in self.pairs[pair]:
            channel.detach(node_id)
        self.detached.add((pair, node_id))

    @precondition(lambda self: self.detached)
    @rule(data=st.data())
    def reattach(self, data) -> None:
        key = data.draw(st.sampled_from(sorted(self.detached)))
        for channel, node in zip(self.pairs[key[0]], self.nodes[key]):
            channel.attach(node)
        self.detached.discard(key)

    # -- movement ------------------------------------------------------------

    @precondition(lambda self: self.movers)
    @rule(data=st.data(), position=points)
    def write_position(self, data, position) -> None:
        data.draw(st.sampled_from(self.movers)).position = position

    @precondition(lambda self: self._vehicles())
    @rule(data=st.data(), dt=steps)
    def advance(self, data, dt) -> None:
        data.draw(st.sampled_from(self._vehicles())).advance(dt)

    @precondition(lambda self: self._vehicles())
    @rule(data=st.data())
    def park(self, data) -> None:
        data.draw(st.sampled_from(self._vehicles())).park()

    @precondition(lambda self: self._vehicles())
    @rule(data=st.data(), speed=speeds, heading=headings)
    def unpark(self, data, speed, heading) -> None:
        data.draw(st.sampled_from(self._vehicles())).unpark(speed, heading)

    @precondition(lambda self: self._attached())
    @rule(data=st.data(), position=points)
    def write_between_broadcasts(self, data, position) -> None:
        """Broadcast, write, broadcast again: three callbacks at one instant."""
        pair, src_id = data.draw(st.sampled_from(self._attached()))
        mover = data.draw(st.sampled_from(self.movers))
        engine = self.world.engine
        counts = []
        engine.schedule(0.5, lambda: counts.append(self._broadcast(pair, src_id)))
        engine.schedule(0.5, lambda: setattr(mover, "position", position))
        engine.schedule(0.5, lambda: counts.append(self._broadcast(pair, src_id)))
        self.world.run_for(0.5)
        assert len(counts) == 2
        for indexed_count, oracle_count in counts:
            assert indexed_count == oracle_count

    # -- invariants ----------------------------------------------------------

    @invariant()
    def indexed_channels_agree_with_their_oracles(self) -> None:
        for pair, (indexed, oracle) in enumerate(self.pairs):
            assert ids(indexed.nodes()) == ids(oracle.nodes())
            for node_id in ids(oracle.nodes()):
                assert ids(indexed.neighbors_of(node_id)) == ids(oracle.neighbors_of(node_id))
            for node_id in ids(oracle.nodes()):
                indexed_count, oracle_count = self._broadcast(pair, node_id)
                assert indexed_count == oracle_count


ChannelSyncMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestChannelSyncStateMachine = ChannelSyncMachine.TestCase
