"""Tests for the spatial grid index and its brute-force equivalence.

The non-negotiable contract of ``repro.sim.spatial``: every indexed
range query returns **exactly** what the brute-force pairwise scan it
replaced would return — same set, same order — on any snapshot,
including boundary-exact distances and coincident positions.  These
tests pin that with hypothesis property tests plus seeded random loops
across the three rewired call sites (channel, clustering, topology).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import radio_graph
from repro.errors import SimulationError
from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import VehicleNode, WirelessChannel
from repro.net.clustering import neighbors_within
from repro.net.messages import hello_message
from repro.sim import ScenarioConfig, SpatialGrid, World, grid_from_positions
from repro.sim.config import ChannelConfig


def brute_within(positions, point, radius):
    """Reference implementation: insertion-ordered linear scan."""
    return [
        item_id
        for item_id, pos in positions.items()
        if point.distance_to(pos) <= radius
    ]


# Coordinates drawn from a small integer lattice scaled to metres, so
# boundary-exact distances (e.g. exactly one radius apart) and coincident
# positions both occur often instead of almost never.
coords = st.integers(min_value=-30, max_value=30).map(lambda v: v * 50.0)
points = st.tuples(coords, coords).map(lambda t: Vec2(*t))


def nudge(value, how):
    """One ulp up or down, or plus an offset that moves only a zero."""
    if how == "up":
        return math.nextafter(value, math.inf)
    if how == "down":
        return math.nextafter(value, -math.inf)
    return value + how


# The middle of the lattice, each value nudged by an ulp or by a tiny or
# subnormal offset: such an item can sit a rounding error past a cell
# edge and still pass the rounded hit test.
nudged_coords = st.tuples(
    st.integers(min_value=-6, max_value=6).map(lambda v: v * 50.0),
    st.sampled_from(
        [0.0, "up", "down", 5e-324, -5e-324, 1e-300, -1e-300, -6.885248324426932e-199]
    ),
).map(lambda pair: nudge(*pair))
nudged_points = st.tuples(nudged_coords, nudged_coords).map(lambda t: Vec2(*t))
radii = st.sampled_from(
    [0.0, -0.0, 50.0, 100.0, 150.0, 300.0, 500.0, 3000.0, math.inf, math.nan]
)


class TestSpatialGridBasics:
    def test_insert_query_remove(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(0, 0))
        grid.insert("b", Vec2(50, 0))
        grid.insert("c", Vec2(500, 0))
        assert len(grid) == 3
        assert "b" in grid
        assert grid.within(Vec2(0, 0), 100.0) == ["a", "b"]
        grid.remove("b")
        assert grid.within(Vec2(0, 0), 100.0) == ["a"]
        grid.remove("b")  # idempotent
        assert len(grid) == 2

    def test_invalid_cell_size(self):
        with pytest.raises(SimulationError):
            SpatialGrid(cell_size_m=0.0)

    def test_nan_cell_size_is_rejected(self):
        # NaN passes a ``<= 0`` check; the first insert then fails to
        # floor a NaN cell coordinate.
        with pytest.raises(SimulationError):
            SpatialGrid(cell_size_m=math.nan)

    def test_duplicate_insert_raises(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(0, 0))
        with pytest.raises(SimulationError):
            grid.insert("a", Vec2(1, 1))

    def test_move_unknown_raises(self):
        grid = SpatialGrid(cell_size_m=100.0)
        with pytest.raises(SimulationError):
            grid.move("ghost", Vec2(0, 0))

    def test_move_across_cells(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(0, 0))
        grid.move("a", Vec2(1000, 1000))
        assert grid.within(Vec2(0, 0), 200.0) == []
        assert grid.within(Vec2(1000, 1000), 0.0) == ["a"]
        assert grid.position_of("a") == Vec2(1000, 1000)

    def test_move_if_changed_identity_fast_path(self):
        grid = SpatialGrid(cell_size_m=100.0)
        position = Vec2(10, 10)
        grid.insert("a", position)
        assert not grid.move_if_changed("a", position)  # same object
        assert not grid.move_if_changed("a", Vec2(10, 10))  # equal value
        assert grid.move_if_changed("a", Vec2(20, 10))

    def test_boundary_distance_is_inclusive(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("edge", Vec2(300.0, 0.0))
        assert grid.within(Vec2(0, 0), 300.0) == ["edge"]
        assert grid.within(Vec2(0, 0), math.nextafter(300.0, 0.0)) == []

    def test_item_a_rounding_error_past_a_cell_edge(self):
        # The item lies in the cell below the disc's lowest one, but its
        # distance rounds to exactly the radius, as the scan computes it.
        grid = SpatialGrid(cell_size_m=300.0)
        grid.insert("a", Vec2(0.0, 120.0))
        grid.insert("b", Vec2(0.0, -6.885248324426932e-199))
        assert Vec2(0.0, 120.0).distance_to(Vec2(0.0, -6.885248324426932e-199)) == 120.0
        assert grid.within(Vec2(0.0, 120.0), 120.0) == ["a", "b"]

    def test_coincident_positions(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(5, 5))
        grid.insert("b", Vec2(5, 5))
        assert grid.within(Vec2(5, 5), 0.0) == ["a", "b"]

    def test_negative_radius_is_empty(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(0, 0))
        assert grid.within(Vec2(0, 0), -1.0) == []

    def test_order_follows_insertion_sequence(self):
        grid = SpatialGrid(cell_size_m=50.0)
        ids = [f"n{i}" for i in range(20)]
        rnd = random.Random(7)
        for item_id in ids:
            grid.insert(item_id, Vec2(rnd.uniform(0, 100), rnd.uniform(0, 100)))
        assert grid.within(Vec2(50, 50), 1000.0) == ids

    def test_reinsert_after_remove_goes_to_back(self):
        grid = SpatialGrid(cell_size_m=50.0)
        for item_id in ("a", "b", "c"):
            grid.insert(item_id, Vec2(0, 0))
        grid.remove("a")
        grid.insert("a", Vec2(0, 0))
        assert grid.within(Vec2(0, 0), 10.0) == ["b", "c", "a"]

    def test_huge_radius_uses_occupied_cell_walk(self):
        grid = SpatialGrid(cell_size_m=10.0)
        for index in range(50):
            grid.insert(index, Vec2(index * 25.0, 0.0))
        # Disc spans far more cells than are occupied.
        assert grid.within(Vec2(0, 0), 1e6) == list(range(50))

    def test_clear(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(0, 0))
        grid.clear()
        assert len(grid) == 0
        assert grid.within(Vec2(0, 0), 100.0) == []

    def test_grid_from_positions(self):
        grid = grid_from_positions({"a": Vec2(0, 0), "b": Vec2(10, 0)}, 100.0)
        assert grid.within(Vec2(0, 0), 50.0) == ["a", "b"]


class TestGridEqualsBruteForce:
    """Property: ``within()`` ≡ insertion-ordered brute-force scan."""

    @given(
        items=st.lists(st.one_of(points, nudged_points), min_size=0, max_size=40),
        query=st.one_of(points, nudged_points),
        radius=radii,
        cell=st.sampled_from([30.0, 100.0, 300.0, 1500.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_matches_brute_force(self, items, query, radius, cell):
        positions = {f"n{i}": pos for i, pos in enumerate(items)}
        grid = grid_from_positions(positions, cell)
        assert grid.within(query, radius) == brute_within(positions, query, radius)
        for position in items[:3]:
            # Exactly the distance to an item: the inclusive boundary.
            boundary = query.distance_to(position)
            assert grid.within(query, boundary) == brute_within(positions, query, boundary)
            # Discs whose edge runs through an item, along either axis.
            for edge in (
                Vec2(position.x, position.y + radius),
                Vec2(position.x - radius, position.y),
            ):
                assert grid.within(edge, radius) == brute_within(positions, edge, radius)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_within_matches_after_random_churn(self, seed):
        rnd = random.Random(seed)
        grid = SpatialGrid(cell_size_m=rnd.choice([50.0, 200.0]))
        positions = {}
        for step in range(60):
            action = rnd.random()
            if action < 0.5 or not positions:
                item_id = f"n{step}"
                pos = Vec2(rnd.uniform(-500, 500), rnd.uniform(-500, 500))
                grid.insert(item_id, pos)
                positions[item_id] = pos
            elif action < 0.8:
                item_id = rnd.choice(list(positions))
                pos = Vec2(rnd.uniform(-500, 500), rnd.uniform(-500, 500))
                grid.move(item_id, pos)
                positions[item_id] = pos
            else:
                item_id = rnd.choice(list(positions))
                grid.remove(item_id)
                del positions[item_id]
            query = Vec2(rnd.uniform(-500, 500), rnd.uniform(-500, 500))
            radius = rnd.choice([0.0, 100.0, 250.0, 2000.0])
            assert grid.within(query, radius) == brute_within(positions, query, radius)


def assert_records_match(grid, seqs):
    """Every cell record is ``(seq, x, y)`` of the item's recorded position."""
    records = {}
    for cell, members in grid._cells.items():
        assert members, "an empty cell was kept"
        for item_id, record in members.items():
            assert grid._cell_of_item[item_id] == cell
            records[item_id] = record
    assert len(records) == len(grid) and set(records) == set(grid.ids())
    for item_id in grid.ids():
        position = grid.position_of(item_id)
        assert grid._cell_for(position) == grid._cell_of_item[item_id]
        assert records[item_id] == (seqs[item_id], position.x, position.y)


#: Operations of the record test: moves stay in a cell or cross cells.
GRID_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "move", "move_if_changed", "same_object", "remove", "clear"]),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([0.0, 1.0, 49.0, 50.0, 51.0, -0.0, -1.0, -50.0, 120.0, 333.0]),
        st.sampled_from([0.0, 2.5, 49.9, 50.0, -0.0, -75.0, 260.0]),
    ),
    min_size=1,
    max_size=50,
)


class TestGridRecords:
    """Each cell's ``(seq, x, y)`` records stay in step with the positions."""

    @given(ops=GRID_OPS, cell=st.sampled_from([25.0, 50.0, 100.0]))
    @settings(max_examples=200, deadline=None)
    def test_records_follow_every_update(self, ops, cell):
        grid = SpatialGrid(cell_size_m=cell)
        positions = {}
        seqs = {}
        next_seq = 0
        for op, index, x, y in ops:
            item_id = f"n{index}"
            position = Vec2(x, y)
            if op == "insert" and item_id not in positions:
                grid.insert(item_id, position)
                positions[item_id] = position
                seqs[item_id] = next_seq
                next_seq += 1
            elif op == "move" and item_id in positions:
                grid.move(item_id, position)
                positions[item_id] = position
            elif op == "move_if_changed" and item_id in positions:
                changed = grid.move_if_changed(item_id, position)
                assert changed == (positions[item_id] != position)
                positions[item_id] = grid.position_of(item_id)
            elif op == "same_object" and item_id in positions:
                stored = grid.position_of(item_id)
                cell_key = grid._cell_of_item[item_id]
                record = grid._cells[cell_key][item_id]
                assert not grid.move_if_changed(item_id, stored)
                assert grid._cells[cell_key][item_id] is record
            elif op == "remove":
                grid.remove(item_id)
                positions.pop(item_id, None)
                seqs.pop(item_id, None)
            elif op == "clear":
                grid.clear()
                positions.clear()
                seqs.clear()
            assert list(grid.ids()) == list(positions)
            assert_records_match(grid, seqs)
            query = Vec2(x * 0.5, y)
            for radius in (0.0, -0.0, 50.0, math.inf, math.nan):
                assert grid.within(query, radius) == brute_within(positions, query, radius)

    def test_move_within_a_cell_keeps_sequence(self):
        grid = SpatialGrid(cell_size_m=100.0)
        grid.insert("a", Vec2(10.0, 10.0))
        grid.insert("b", Vec2(20.0, 20.0))
        grid.move("a", Vec2(30.0, 40.0))
        assert grid._cells[(0, 0)] == {"a": (0, 30.0, 40.0), "b": (1, 20.0, 20.0)}
        grid.move("a", Vec2(130.0, 40.0))
        assert grid._cells == {(0, 0): {"b": (1, 20.0, 20.0)}, (1, 0): {"a": (0, 130.0, 40.0)}}
        assert grid.within(Vec2(0.0, 0.0), 1000.0) == ["a", "b"]


class TestNonFiniteRadius:
    """Non-finite radii get the brute-force answer, on the grid and the channel."""

    def grid(self):
        grid = SpatialGrid(cell_size_m=100.0)
        for index in range(12):
            grid.insert(f"n{index}", Vec2(index * 250.0 - 1000.0, (index % 3) * 90.0))
        return grid

    def test_infinite_radius_returns_every_item(self):
        grid = self.grid()
        assert grid.within(Vec2(0.0, 0.0), math.inf) == [f"n{i}" for i in range(12)]
        assert grid.neighbors_of("n3", math.inf) == [f"n{i}" for i in range(12) if i != 3]

    def test_nan_radius_returns_nothing(self):
        assert self.grid().within(Vec2(0.0, 0.0), math.nan) == []

    def test_infinite_radio_range_reaches_every_node(self):
        def deliveries(use_index):
            config = ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0)
            world = World(ScenarioConfig(seed=31, channel=config))
            channel = WirelessChannel(world, use_spatial_index=use_index)
            nodes = [
                VehicleNode(
                    world,
                    channel,
                    Vehicle(vehicle_id=f"inf-{use_index}-{i}", position=Vec2(i * 900.0, 0.0)),
                    radio_range_m=math.inf if i == 0 else 300.0,
                )
                for i in range(10)
            ]
            sent = nodes[0].broadcast(hello_message(nodes[0].node_id, (0.0, 0.0), 0, 0, 0.0))
            world.run_for(1.0)
            return sent, [node.received_count for node in nodes]

        indexed = deliveries(True)
        assert indexed == deliveries(False)
        assert indexed == (9, [0] + [1] * 9)

    def test_taps_with_infinite_listen_range(self):
        class RecordingTap:
            def __init__(self, x):
                self.position = Vec2(x, 0.0)
                self.listen_range_m = math.inf
                self.frames = []

            def on_frame(self, frame):
                self.frames.append(frame)

        def heard(use_index):
            world = World(ScenarioConfig(seed=32))
            channel = WirelessChannel(world, use_spatial_index=use_index)
            src = VehicleNode(
                world,
                channel,
                Vehicle(vehicle_id=f"tap-inf-{use_index}", position=Vec2(0, 0)),
                300.0,
            )
            taps = [RecordingTap(i * 5000.0) for i in range(10)]
            for tap in taps:
                channel.add_tap(tap)
            src.broadcast(hello_message(src.node_id, (0, 0), 0, 0, world.now))
            return [len(tap.frames) for tap in taps]

        assert heard(True) == heard(False) == [1] * 10


class TestRewiredCallSitesEquivalence:
    """The three rewired call sites agree with their brute-force paths."""

    @given(
        items=st.lists(points, min_size=1, max_size=30),
        radius=st.sampled_from([50.0, 100.0, 300.0, 1000.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_neighbors_within_matches_pairwise_scan(self, items, radius):
        vehicles = [
            Vehicle(vehicle_id=f"v{i}", position=pos) for i, pos in enumerate(items)
        ]
        indexed = neighbors_within(vehicles, radius)
        brute = neighbors_within(vehicles, radius, use_index=False)
        assert {k: [v.vehicle_id for v in vs] for k, vs in indexed.items()} == {
            k: [v.vehicle_id for v in vs] for k, vs in brute.items()
        }

    @given(
        items=st.lists(points, min_size=1, max_size=30),
        radius=st.sampled_from([50.0, 150.0, 300.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_radio_graph_matches_pairwise_scan(self, items, radius):
        vehicles = [
            Vehicle(vehicle_id=f"v{i}", position=pos) for i, pos in enumerate(items)
        ]
        indexed = radio_graph(vehicles, radius)
        brute = radio_graph(vehicles, radius, use_index=False)
        assert list(indexed.nodes) == list(brute.nodes)
        assert set(map(frozenset, indexed.edges)) == set(map(frozenset, brute.edges))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_channel_neighbors_match_full_scan(self, seed):
        rnd = random.Random(seed)
        world_indexed = World(ScenarioConfig(seed=3))
        world_brute = World(ScenarioConfig(seed=3))
        indexed = WirelessChannel(world_indexed)
        brute = WirelessChannel(world_brute, use_spatial_index=False)
        count = rnd.randint(2, 25)
        pairs = []
        for i in range(count):
            pos = Vec2(rnd.uniform(-1500, 1500), rnd.uniform(-1500, 1500))
            range_m = rnd.choice([80.0, 300.0, 900.0])
            vid = f"s{seed}v{i}"
            pairs.append(
                (
                    VehicleNode(
                        world_indexed,
                        indexed,
                        Vehicle(vehicle_id=vid, position=pos),
                        radio_range_m=range_m,
                    ),
                    VehicleNode(
                        world_brute,
                        brute,
                        Vehicle(vehicle_id=vid, position=pos),
                        radio_range_m=range_m,
                    ),
                )
            )
        for a, b in pairs:
            assert [n.node_id for n in indexed.neighbors_of(a.node_id)] == [
                n.node_id for n in brute.neighbors_of(b.node_id)
            ]
        # Move a random subset (direct mutation, as mobility models do),
        # detach one node, and require the answers to stay in lock-step.
        for a, b in pairs:
            if rnd.random() < 0.5:
                pos = Vec2(rnd.uniform(-1500, 1500), rnd.uniform(-1500, 1500))
                a.vehicle.position = pos
                b.vehicle.position = pos
        victim = rnd.choice(pairs)[0].node_id
        indexed.detach(victim)
        brute.detach(victim)
        for a, b in pairs:
            if a.node_id == victim:
                continue
            assert [n.node_id for n in indexed.neighbors_of(a.node_id)] == [
                n.node_id for n in brute.neighbors_of(b.node_id)
            ]


class TestChannelCacheInvalidation:
    def test_cache_sees_direct_position_mutation(self):
        world = World(ScenarioConfig(seed=11))
        channel = WirelessChannel(world)
        a = VehicleNode(
            world, channel, Vehicle(vehicle_id="ca", position=Vec2(0, 0)), 100.0
        )
        VehicleNode(
            world, channel, Vehicle(vehicle_id="cb", position=Vec2(50, 0)), 100.0
        )
        assert channel.neighbor_count(a.node_id) == 1
        assert channel.neighbor_count(a.node_id) == 1  # cached path
        channel.node("cb").vehicle.position = Vec2(5000, 0)
        assert channel.neighbor_count(a.node_id) == 0

    def test_cache_invalidated_on_attach_and_detach(self):
        world = World(ScenarioConfig(seed=12))
        channel = WirelessChannel(world)
        a = VehicleNode(
            world, channel, Vehicle(vehicle_id="ia", position=Vec2(0, 0)), 300.0
        )
        assert channel.neighbor_count(a.node_id) == 0
        VehicleNode(
            world, channel, Vehicle(vehicle_id="ib", position=Vec2(50, 0)), 300.0
        )
        assert channel.neighbor_count(a.node_id) == 1
        channel.detach("ib")
        assert channel.neighbor_count(a.node_id) == 0

    def test_second_channel_on_one_world_gets_private_grid(self):
        world = World(ScenarioConfig(seed=13))
        first = WirelessChannel(world)
        second = WirelessChannel(world)
        a1 = VehicleNode(
            world, first, Vehicle(vehicle_id="w1", position=Vec2(0, 0)), 300.0
        )
        VehicleNode(world, second, Vehicle(vehicle_id="w2", position=Vec2(10, 0)), 300.0)
        # Different media: the channels must not see each other's nodes.
        assert first.neighbors_of(a1.node_id) == []
        assert second.neighbors_of("w2") == []


class TestTapIndexEquivalence:
    def test_many_taps_match_linear_scan(self):
        class RecordingTap:
            def __init__(self, x, listen):
                self.position = Vec2(x, 0.0)
                self.listen_range_m = listen
                self.frames = []

            def on_frame(self, frame):
                self.frames.append(frame)

        def build(use_index):
            config = ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0)
            world = World(ScenarioConfig(seed=21, channel=config))
            channel = WirelessChannel(world, use_spatial_index=use_index)
            src = VehicleNode(
                world,
                channel,
                Vehicle(vehicle_id=f"tap-src-{use_index}", position=Vec2(0, 0)),
                300.0,
            )
            # 12 taps (>= threshold): some in range, one boundary-exact,
            # most out of range; per-tap listen ranges differ.
            taps = [RecordingTap(i * 100.0, 250.0 if i % 2 else 150.0) for i in range(12)]
            for tap in taps:
                channel.add_tap(tap)
            src.broadcast(hello_message(src.node_id, (0, 0), 0, 0, world.now))
            # Move the taps (adversaries ride vehicles) and send again.
            for index, tap in enumerate(taps):
                tap.position = Vec2(index * 40.0, 0.0)
            src.broadcast(hello_message(src.node_id, (0, 0), 0, 0, world.now))
            return [len(tap.frames) for tap in taps]

        assert build(True) == build(False)
