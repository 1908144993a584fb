"""Tests for the wireless channel, nodes and messages."""

from __future__ import annotations

import pytest

from repro.chaos.invariants import ChannelConservation
from repro.errors import ConfigurationError, NetworkError
from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import (
    BROADCAST,
    FixedNode,
    InterceptAction,
    InterceptVerdict,
    Message,
    MessageKind,
    SecurityEnvelope,
    VehicleNode,
    WirelessChannel,
    data_message,
    hello_message,
)
from repro.net.channel import Frame
from repro.sim import ChannelConfig, ScenarioConfig, World


def make_world(loss: float = 0.0) -> World:
    channel_config = ChannelConfig(base_loss_probability=loss, loss_per_100m=0.0)
    return World(ScenarioConfig(seed=7, channel=channel_config))


def vehicle_node(world, channel, x, y, range_m=300.0):
    vehicle = Vehicle(position=Vec2(x, y))
    return VehicleNode(world, channel, vehicle, radio_range_m=range_m)


class TestMessage:
    def test_broadcast_detection(self):
        message = hello_message("a", (0, 0), 10.0, 0.0, 0.0)
        assert message.is_broadcast()
        assert message.dst == BROADCAST

    def test_forwarded_by_extends_path_and_decrements_ttl(self):
        message = data_message("a", "b", 100, 0.0, ttl_hops=3)
        forwarded = message.forwarded_by("relay")
        assert forwarded.path == ("relay",)
        assert forwarded.ttl_hops == 2
        assert message.path == ()  # original untouched

    def test_expired(self):
        message = data_message("a", "b", 100, 0.0, ttl_hops=0)
        assert message.expired()

    def test_total_bytes_includes_envelope(self):
        message = data_message("a", "b", 100, 0.0)
        enveloped = message.with_envelope(
            SecurityEnvelope(claimed_identity="pn-1", extra_bytes=64)
        )
        assert enveloped.total_bytes == 164

    def test_with_payload_merges(self):
        message = data_message("a", "b", 100, 0.0, payload={"x": 1})
        updated = message.with_payload(y=2)
        assert updated.payload == {"x": 1, "y": 2}
        assert message.payload == {"x": 1}

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            Message(kind=MessageKind.DATA, src="a", dst="b", size_bytes=0)

    def test_unique_ids(self):
        a = data_message("a", "b", 10, 0.0)
        b = data_message("a", "b", 10, 0.0)
        assert a.msg_id != b.msg_id


class TestChannelTopology:
    def test_attach_detach(self):
        world = make_world()
        channel = WirelessChannel(world)
        node = vehicle_node(world, channel, 0, 0)
        assert channel.is_attached(node.node_id)
        channel.detach(node.node_id)
        assert not channel.is_attached(node.node_id)

    def test_double_attach_raises(self):
        world = make_world()
        channel = WirelessChannel(world)
        node = vehicle_node(world, channel, 0, 0)
        with pytest.raises(NetworkError):
            channel.attach(node)

    def test_unknown_node_raises(self):
        world = make_world()
        channel = WirelessChannel(world)
        with pytest.raises(NetworkError):
            channel.node("ghost")

    def test_neighbors_respect_range(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0, range_m=100)
        b = vehicle_node(world, channel, 50, 0)
        c = vehicle_node(world, channel, 500, 0)
        neighbor_ids = [n.node_id for n in channel.neighbors_of(a.node_id)]
        assert b.node_id in neighbor_ids
        assert c.node_id not in neighbor_ids

    def test_range_asymmetry(self):
        world = make_world()
        channel = WirelessChannel(world)
        strong = vehicle_node(world, channel, 0, 0, range_m=1000)
        weak = vehicle_node(world, channel, 500, 0, range_m=100)
        assert channel.in_range(strong, weak)
        assert not channel.in_range(weak, strong)

    def test_moving_vehicle_changes_topology(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0, range_m=100)
        b = vehicle_node(world, channel, 50, 0, range_m=100)
        assert channel.neighbor_count(a.node_id) == 1
        b.vehicle.position = Vec2(1000, 0)
        assert channel.neighbor_count(a.node_id) == 0

    def test_nodes_are_indexed_at_their_position_on_attach(self):
        # Only written nodes are re-bucketed, so nothing would ever move
        # a node indexed at a placeholder position.
        world = make_world()
        channel = WirelessChannel(world)
        rsu = FixedNode(world, channel, "anchor", Vec2(5000, 0), 100.0)
        car = vehicle_node(world, channel, 3000, 0)
        assert world.spatial.position_of(rsu.node_id) == Vec2(5000, 0)
        assert world.spatial.position_of(car.node_id) == Vec2(3000, 0)

    def test_attach_fails_whole_when_position_is_unreadable(self):
        class NoFix:
            node_id = "no-fix"
            radio_range_m = 100.0

            @property
            def position(self):
                raise RuntimeError("no position fix")

            def deliver(self, message, from_id):
                pass

        world = make_world()
        channel = WirelessChannel(world)
        with pytest.raises(RuntimeError):
            channel.attach(NoFix())
        assert not channel.is_attached("no-fix")
        assert "no-fix" not in world.spatial


class TestDelivery:
    def test_unicast_delivers_in_range(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 100, 0)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append((msg, frm)))
        assert a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert len(received) == 1
        assert received[0][1] == a.node_id

    def test_unicast_out_of_range_returns_false(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0, range_m=100)
        b = vehicle_node(world, channel, 5000, 0)
        assert not a.send(b.node_id, data_message(a.node_id, b.node_id, 100, 0.0))

    def test_delivery_has_positive_latency(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 100, 0)
        times = []
        b.on(MessageKind.DATA, lambda msg, frm: times.append(world.now))
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        assert not times, "delivery must not be synchronous"
        world.run_for(1.0)
        assert times and times[0] > 0.0

    def test_larger_messages_take_longer(self):
        world = make_world()
        channel = WirelessChannel(world)
        small = channel.latency(100, 100, 0)
        large = channel.latency(100, 100_000, 0)
        assert large > small

    def test_contention_raises_latency(self):
        world = make_world()
        channel = WirelessChannel(world)
        quiet = channel.latency(100, 500, 0)
        crowded = channel.latency(100, 500, 50)
        assert crowded > quiet

    def test_broadcast_reaches_all_in_range(self):
        world = make_world()
        channel = WirelessChannel(world)
        center = vehicle_node(world, channel, 0, 0)
        near = [vehicle_node(world, channel, 50 * (i + 1), 0) for i in range(3)]
        far = vehicle_node(world, channel, 5000, 0)
        counts = {"n": 0}
        for node in near + [far]:
            node.on(MessageKind.HELLO, lambda msg, frm: counts.__setitem__("n", counts["n"] + 1))
        receivers = center.broadcast(hello_message(center.node_id, (0, 0), 0, 0, 0.0))
        world.run_for(1.0)
        assert receivers == 3
        assert counts["n"] == 3

    def test_lossy_channel_drops_frames(self):
        world = make_world(loss=0.5)
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 10, 0)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(msg))
        for _ in range(200):
            a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(5.0)
        assert 40 < len(received) < 160

    def test_offline_node_neither_sends_nor_receives(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 50, 0)
        b.go_offline()
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(msg))
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert received == []
        assert b.broadcast(hello_message(b.node_id, (0, 0), 0, 0, 0.0)) == 0
        b.go_online()
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert len(received) == 1

    def test_lone_broadcast_creates_no_zero_counters(self):
        world = make_world()
        channel = WirelessChannel(world)
        lone = vehicle_node(world, channel, 0, 0)
        assert channel.broadcast(lone.node_id, hello_message(lone.node_id, (0, 0), 0, 0, 0.0)) == 0
        counters = world.metrics.counters
        assert counters["channel/frames_sent"] == 1
        for name in ("frames_dispatched", "frames_lost", "frames_scheduled"):
            assert f"channel/{name}" not in counters

    def test_detached_destination_counted(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 50, 0)
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        channel.detach(b.node_id)
        world.run_for(1.0)
        assert world.metrics.counter("channel/frames_to_departed") == 1


class TestInterceptors:
    def _pair(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 50, 0)
        received = []
        b.on(MessageKind.DATA, lambda msg, frm: received.append(msg))
        return world, channel, a, b, received

    def test_drop_interceptor(self):
        world, channel, a, b, received = self._pair()
        channel.add_interceptor(lambda frame: InterceptVerdict.drop())
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert received == []
        assert world.metrics.counter("channel/frames_suppressed") == 1

    def test_delay_interceptor(self):
        world, channel, a, b, received = self._pair()
        channel.add_interceptor(lambda frame: InterceptVerdict.delay(2.0))
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert received == []
        world.run_for(2.0)
        assert len(received) == 1

    def test_replace_interceptor(self):
        world, channel, a, b, received = self._pair()
        fake = data_message(a.node_id, b.node_id, 100, 0.0, payload={"evil": True})
        channel.add_interceptor(lambda frame: InterceptVerdict.replace(fake))
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert received[0].payload == {"evil": True}

    def test_remove_interceptor_restores_flow(self):
        world, channel, a, b, received = self._pair()
        interceptor = lambda frame: InterceptVerdict.drop()
        channel.add_interceptor(interceptor)
        channel.remove_interceptor(interceptor)
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        world.run_for(1.0)
        assert len(received) == 1

    def test_interceptors_see_one_frame_per_receiver(self):
        world = make_world()
        channel = WirelessChannel(world)
        src = vehicle_node(world, channel, 0, 0)
        receivers = [vehicle_node(world, channel, 40.0 * (i + 1), 0) for i in range(3)]
        seen = []

        def record(frame):
            seen.append(frame)
            return InterceptVerdict.passthrough()

        hello = hello_message(src.node_id, (0, 0), 0, 0, world.now)
        assert channel.broadcast(src.node_id, hello) == 3
        channel.add_interceptor(record)
        assert channel.broadcast(src.node_id, hello) == 3
        assert seen == [
            Frame(src.node_id, node.node_id, hello, world.now) for node in receivers
        ]
        assert InterceptVerdict.passthrough() is InterceptVerdict.passthrough()
        world.run_for(1.0)
        assert world.metrics.counter("channel/frames_dispatched") == 6
        assert world.metrics.counter("channel/frames_delivered") == 6

    @pytest.mark.parametrize("seconds", [-1.0, -1e-9, float("nan"), float("inf"), -float("inf")])
    def test_delay_verdict_rejects_negative_and_non_finite_delays(self, seconds):
        with pytest.raises(NetworkError):
            InterceptVerdict.delay(seconds)

    def test_delay_verdict_accepts_zero(self):
        assert InterceptVerdict.delay(0.0).delay_s == 0.0

    @pytest.mark.parametrize(
        "verdict_on_second_receiver",
        [
            lambda: InterceptVerdict.delay(-1.0),
            lambda: InterceptVerdict(InterceptAction.REPLACE),
            lambda: 1 / 0,
        ],
        ids=["negative-delay", "replace-without-message", "interceptor-raises"],
    )
    def test_failing_verdict_leaves_conservation_balanced(self, verdict_on_second_receiver):
        world = make_world()
        channel = WirelessChannel(world)
        FixedNode(world, channel, "src", Vec2(0, 0), 300.0)
        for index in range(3):
            FixedNode(world, channel, f"r{index}", Vec2(50.0 * (index + 1), 0), 300.0)
        seen = []

        def second_fails(frame):
            seen.append(frame.dst_id)
            if len(seen) == 2:
                return verdict_on_second_receiver()
            return InterceptVerdict.passthrough()

        channel.add_interceptor(second_fails)
        with pytest.raises((NetworkError, ZeroDivisionError)):
            channel.broadcast("src", hello_message("src", (0, 0), 0, 0, world.now))
        counters = world.metrics.counters
        # The first receiver went on the air; the failing one and the
        # one after it never did.
        assert counters["channel/frames_dispatched"] == 1
        assert counters["channel/frames_scheduled"] == 1
        assert ChannelConservation(world).check(world.now) == []
        world.run_for(1.0)
        assert counters["channel/frames_delivered"] == 1
        assert ChannelConservation(world).check(world.now) == []


class TestTaps:
    def test_tap_hears_nearby_frames(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 50, 0)

        class Tap:
            position = Vec2(10, 0)
            listen_range_m = 300.0
            frames = []

            def on_frame(self, frame: Frame) -> None:
                self.frames.append(frame)

        tap = Tap()
        channel.add_tap(tap)
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        assert len(tap.frames) == 1

    def test_distant_tap_hears_nothing(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        b = vehicle_node(world, channel, 50, 0)

        class Tap:
            position = Vec2(10_000, 0)
            listen_range_m = 300.0
            frames = []

            def on_frame(self, frame: Frame) -> None:
                self.frames.append(frame)

        channel.add_tap(Tap())
        a.send(b.node_id, data_message(a.node_id, b.node_id, 100, world.now))
        assert Tap.frames == []


class TestLossProbabilityClamp:
    def test_loss_clamped_to_non_negative(self):
        world = make_world()
        channel = WirelessChannel(world)
        # Forge a config that slipped past validation (e.g. built by
        # mutation in older code): the channel must still clamp.
        object.__setattr__(channel.config, "base_loss_probability", -0.5)
        assert channel._loss_probability(0.0) == 0.0
        assert channel._loss_probability(100.0) == 0.0

    def test_loss_clamped_to_upper_bound(self):
        world = World(ScenarioConfig(seed=7))  # default lossy channel
        channel = WirelessChannel(world)
        assert channel._loss_probability(1e9) == 0.95


class TestSpatialIndexRegression:
    """The index swap must not change any seeded channel metric."""

    def _beacon_scene(self, use_index):
        from repro.net import BeaconService

        world = World(
            ScenarioConfig(
                seed=314,
                channel=ChannelConfig(base_loss_probability=0.05, loss_per_100m=0.01),
            )
        )
        channel = WirelessChannel(world, use_spatial_index=use_index)
        nodes = [
            VehicleNode(
                world,
                channel,
                Vehicle(
                    vehicle_id=f"r{i}",
                    position=Vec2((i % 6) * 120.0, (i // 6) * 120.0),
                    speed_mps=20.0,
                ),
            )
            for i in range(18)
        ]
        for node in nodes:
            BeaconService(world, node).start()
        # Direct position churn between event batches, as mobility does.
        for step in range(4):
            world.run_for(2.0)
            for index, node in enumerate(nodes):
                node.vehicle.position = node.vehicle.position + Vec2(
                    10.0 * ((index % 3) - 1), 5.0
                )
        world.run_for(2.0)
        return world.metrics

    def test_latency_metrics_unchanged_by_index_and_contention_fix(self):
        indexed = self._beacon_scene(True)
        legacy = self._beacon_scene(False)
        assert indexed.counter("channel/frames_delivered") == legacy.counter(
            "channel/frames_delivered"
        )
        assert indexed.counter("channel/frames_lost") == legacy.counter(
            "channel/frames_lost"
        )
        # Byte-identical latency samples: same receivers, same contention
        # term (computed once per frame vs once per receiver), same RNG.
        assert indexed.samples("channel/delivery_latency_s") == legacy.samples(
            "channel/delivery_latency_s"
        )
        assert indexed.samples("channel/delivery_latency_s")  # non-trivial scene

    def test_broadcast_computes_contention_once_per_frame(self):
        world = make_world()
        channel = WirelessChannel(world)
        center = vehicle_node(world, channel, 0, 0)
        for i in range(5):
            vehicle_node(world, channel, 40.0 * (i + 1), 0)
        calls = {"n": 0}
        original = channel.neighbor_count

        def counting(node_id):
            calls["n"] += 1
            return original(node_id)

        channel.neighbor_count = counting
        receivers = channel.broadcast(
            center.node_id, hello_message(center.node_id, (0, 0), 0, 0, 0.0)
        )
        assert receivers == 5
        # The contention term is passed down from the receiver set; no
        # per-receiver recomputation of the source's neighbor scan.
        assert calls["n"] == 0


class TestFixedNode:
    def test_position_is_static(self):
        world = make_world()
        channel = WirelessChannel(world)
        node = FixedNode(world, channel, "anchor", Vec2(5, 5), 100.0)
        assert node.position == Vec2(5, 5)

    def test_on_any_handler(self):
        world = make_world()
        channel = WirelessChannel(world)
        a = vehicle_node(world, channel, 0, 0)
        node = FixedNode(world, channel, "anchor", Vec2(10, 0), 100.0)
        seen = []
        node.on_any(lambda msg, frm: seen.append(msg.kind))
        a.send("anchor", data_message(a.node_id, "anchor", 100, world.now))
        a.send("anchor", hello_message(a.node_id, (0, 0), 0, 0, world.now))
        world.run_for(1.0)
        assert sorted(k.value for k in seen) == ["data", "hello"]
