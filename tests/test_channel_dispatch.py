"""What one transmission costs, and what it must leave unchanged.

A unicast or a broadcast puts its frame on the air in one call of
``WirelessChannel._dispatch``: one loop over the receivers, with the
frame's constants computed once, and one engine batch holding every
surviving copy, so one heap entry.  A broadcast with no interceptor and
no traced frame reads each link's loss probability and hop latency from
its source's cached link set, so it costs one loss draw per receiver
until something moves.  The guards below pin both costs.  The
differential test runs two identically seeded worlds through the same
transmissions, attaches, detaches, moves and unchanged position writes:
one on the channel as it is, the other on the per-receiver dispatch it
replaced, written out here (one dispatch per receiver and one
``schedule`` per copy, with distance, loss and latency computed for
each receiver by the formulas as they were).  Every delivery, probe
event scheduled by an interceptor, channel counter, latency sample, RNG
state, interceptor call and span must stay equal, in engine order, and
so must every neighbor query.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import (
    FixedNode,
    InterceptAction,
    InterceptVerdict,
    SecurityEnvelope,
    VehicleNode,
    WirelessChannel,
    data_message,
    hello_message,
)
from repro.net.channel import Frame
from repro.obs import Profiler
from repro.sim import ChannelConfig, ScenarioConfig, World

# -- the per-receiver dispatch, as it was ----------------------------------------


def per_receiver_latency(config, distance_m, size_bytes, neighbor_count):
    return (
        config.base_transmit_delay_s
        + size_bytes / config.bytes_per_second
        + (distance_m / 1000.0) * config.propagation_delay_s_per_km * 1000.0
        + config.contention_delay_per_neighbor_s * neighbor_count
    )


def per_receiver_loss_probability(config, distance_m):
    loss = config.base_loss_probability + config.loss_per_100m * distance_m / 100.0
    return min(0.95, max(0.0, loss))


class PerReceiverChannel(WirelessChannel):
    """The channel with one dispatch per receiver."""

    def unicast(self, src_id, dst_id, message):
        src = self.node(src_id)
        dst = self._nodes.get(dst_id)
        if self._taps:
            self._offer_to_taps(Frame(src_id, dst_id, message, self.world.now), src)
        self.world.metrics.increment("channel/frames_sent")
        self.world.metrics.increment("channel/bytes_sent", message.total_bytes)
        tracer = self.world.tracer
        span = self._frame_span("msg.unicast", message, src_id, dst_id)
        if dst is None or not self.in_range(src, dst):
            self.world.metrics.increment("channel/frames_unreachable")
            if span is not None and tracer is not None:
                tracer.end_span(span, "dropped", {"reason": "unreachable"})
            return False
        tally = [0, 0, 0]
        try:
            self._dispatch_to(src, dst, message, tally, span=span)
        finally:
            self._count_frames(tally)
        return True

    def broadcast(self, src_id, message):
        src = self.node(src_id)
        if self._taps:
            self._offer_to_taps(Frame(src_id, None, message, self.world.now), src)
        self.world.metrics.increment("channel/frames_sent")
        self.world.metrics.increment("channel/bytes_sent", message.total_bytes)
        receivers = self.neighbors_of(src_id)
        contention = len(receivers) if self._grid is not None else None
        parent_span = self._frame_span("msg.broadcast", message, src_id, None)
        tracer = self.world.tracer
        tally = [0, 0, 0]
        try:
            for dst in receivers:
                child = None
                if parent_span is not None and tracer is not None:
                    child = tracer.start_span(
                        "msg.delivery",
                        subsystem="net",
                        parent=parent_span,
                        attrs={"dst": dst.node_id},
                    )
                self._dispatch_to(src, dst, message, tally, contention=contention, span=child)
        finally:
            self._count_frames(tally)
        if parent_span is not None and tracer is not None:
            tracer.end_span(parent_span, "ok", {"receivers": len(receivers)})
        return len(receivers)

    def _count_frames(self, tally):
        metrics = self.world.metrics
        dispatched, lost, scheduled = tally
        if dispatched:
            metrics.increment("channel/frames_dispatched", dispatched)
        if lost:
            metrics.increment("channel/frames_lost", lost)
        if scheduled:
            metrics.increment("channel/frames_scheduled", scheduled)

    def _first_verdict(self, frame):
        for interceptor in self._interceptors:
            verdict = interceptor(frame)
            if verdict.action is not InterceptAction.PASS:
                return verdict
        return InterceptVerdict.passthrough()

    def _dispatch_to(self, src, dst, message, tally, contention=None, span=None):
        tally[0] += 1
        tracer = self.world.tracer if span is not None else None
        verdict = (
            self._first_verdict(Frame(src.node_id, dst.node_id, message, self.world.now))
            if self._interceptors
            else InterceptVerdict.passthrough()
        )
        if verdict.action is InterceptAction.DROP:
            self.world.metrics.increment("channel/frames_suppressed")
            if tracer is not None:
                tracer.link_active_faults(span)
                tracer.end_span(span, "dropped", {"reason": "intercepted"})
            return
        extra_delay = 0.0
        transmissions = 1
        if verdict.action is InterceptAction.DELAY:
            extra_delay = verdict.delay_s
            self.world.metrics.increment("channel/frames_delayed")
            if tracer is not None:
                tracer.add_event(span, "delayed", extra_s=extra_delay)
        elif verdict.action is InterceptAction.REPLACE:
            message = verdict.replacement
            self.world.metrics.increment("channel/frames_tampered")
            if tracer is not None:
                tracer.add_event(span, "tampered", replacement=message.msg_id)
        elif verdict.action is InterceptAction.DUPLICATE:
            transmissions += verdict.copies
            self.world.metrics.increment("channel/frames_duplicated", verdict.copies)
            if tracer is not None:
                tracer.add_event(span, "duplicated", copies=verdict.copies)

        distance = src.position.distance_to(dst.position)
        loss_probability = per_receiver_loss_probability(self.config, distance)
        if contention is None:
            contention = self.neighbor_count(src.node_id)
        latency = (
            per_receiver_latency(self.config, distance, message.total_bytes, contention)
            + extra_delay
        )
        deliver = functools.partial(
            self._deliver, dst.node_id, message, src.node_id, latency, tracer, span
        )
        scheduled = 0
        for _ in range(transmissions):
            if self.rng.chance(loss_probability):
                tally[1] += 1
                if tracer is not None:
                    tracer.add_event(span, "lost")
                continue
            self.world.engine.schedule(latency, deliver, label="frame-delivery")
            scheduled += 1
        tally[2] += scheduled
        if tracer is not None and scheduled == 0:
            tracer.link_active_faults(span)
            tracer.end_span(span, "dropped", {"reason": "loss"})


# -- the cost of one transmission ------------------------------------------------


class RecordingBatch:
    """An engine batch that records the label of every entry added."""

    def __init__(self, batch, label, labels):
        self.batch = batch
        self.label = label
        self.labels = labels

    def add(self, delay, args):
        self.labels.append(self.label)
        self.batch.add(delay, args)

    def close(self):
        self.batch.close()


class TestTransmissionCost:
    def test_a_transmission_is_one_dispatch_and_one_schedule_per_surviving_copy(self):
        config = ChannelConfig(base_loss_probability=0.3, loss_per_100m=0.0)
        world = World(ScenarioConfig(seed=5, channel=config))
        channel = WirelessChannel(world)
        FixedNode(world, channel, "src", Vec2(0, 0), 300.0)
        for index in range(40):
            FixedNode(world, channel, f"r{index}", Vec2(5.0 * (index + 1), 0), 300.0)
        # Every third receiver gets two extra copies, every fifth none.
        frames = {"seen": 0}

        def every_third_duplicated(frame):
            frames["seen"] += 1
            if frames["seen"] % 5 == 0:
                return InterceptVerdict.drop()
            if frames["seen"] % 3 == 0:
                return InterceptVerdict.duplicate(2)
            return InterceptVerdict.passthrough()

        channel.add_interceptor(every_third_duplicated)
        calls = {"dispatch": 0}
        dispatch = channel._dispatch

        def counting_dispatch(*args, **kwargs):
            calls["dispatch"] += 1
            dispatch(*args, **kwargs)

        channel._dispatch = counting_dispatch
        engine = world.engine
        # One label per batch entry added, one per batch opened, and the
        # heap size after each transmission.
        labels: List[str] = []
        batches: List[str] = []
        heap_sizes = [len(engine._queue)]
        open_batch = engine.batch

        def recording_batch(label, fn):
            batches.append(label)
            return RecordingBatch(open_batch(label, fn), label, labels)

        engine.batch = recording_batch
        scheduled: List[str] = []
        schedule = engine.schedule

        def recording_schedule(delay, callback, label=""):
            scheduled.append(label)
            return schedule(delay, callback, label)

        engine.schedule = recording_schedule

        assert channel.broadcast("src", hello_message("src", (0, 0), 0, 0, world.now)) == 40
        heap_sizes.append(len(engine._queue))
        broadcast_copies = len(labels)
        assert channel.unicast("src", "r0", data_message("src", "r0", 100, world.now))
        heap_sizes.append(len(engine._queue))
        unicast_copies = len(labels) - broadcast_copies
        assert calls["dispatch"] == 2
        counters = world.metrics.counters
        assert counters["channel/frames_dispatched"] == 41
        assert counters["channel/frames_lost"] > 0
        assert labels == ["frame-delivery"] * int(counters["channel/frames_scheduled"])
        assert len(labels) == (
            counters["channel/frames_dispatched"]
            + counters["channel/frames_duplicated"]
            - counters["channel/frames_suppressed"]
            - counters["channel/frames_lost"]
        )
        # One batch per transmission and no per-copy schedule; a batch
        # with copies is one heap entry, an empty one queues nothing.
        assert batches == ["frame-delivery", "frame-delivery"]
        assert scheduled == []
        assert broadcast_copies > 1
        assert heap_sizes == [0, 1, 1 + min(unicast_copies, 1)]
        assert engine.pending_labeled("frame-delivery") == counters["channel/frames_scheduled"]
        engine.profiler = Profiler()
        world.run_until(1.0)
        assert (
            engine.profiler.profile("frame-delivery").count
            == counters["channel/frames_scheduled"]
            == counters["channel/frames_delivered"]
        )
        assert engine.pending_events == 0

    def test_a_hook_free_broadcast_over_cached_links_costs_one_draw_per_receiver(
        self, monkeypatch
    ):
        config = ChannelConfig(base_loss_probability=0.3, loss_per_100m=0.0)
        world = World(ScenarioConfig(seed=5, channel=config))
        channel = WirelessChannel(world)
        FixedNode(world, channel, "src", Vec2(0, 0), 300.0)
        vehicles = [
            Vehicle(vehicle_id=f"r{i}", position=Vec2(20.0 * (i + 1), 0)) for i in range(10)
        ]
        for vehicle in vehicles:
            VehicleNode(world, channel, vehicle, radio_range_m=300.0)
        calls: List[str] = []

        def counting(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)

            return wrapper

        for name in ("_loss_probability", "_hop_latency"):
            monkeypatch.setattr(
                WirelessChannel, name, counting(name, getattr(WirelessChannel, name))
            )
        monkeypatch.setattr(Vec2, "distance_to", counting("distance", Vec2.distance_to))
        channel.rng.chance = counting("draw", channel.rng.chance)

        def send(size):
            calls.clear()
            assert channel.broadcast("src", data_message("src", "*", size, world.now)) == 10
            return {name: calls.count(name) for name in sorted(set(calls))}

        geometry = {"_loss_probability": 10, "distance": 10}
        # The first frame builds the links and their latencies at its airtime.
        assert send(200) == {**geometry, "_hop_latency": 10, "draw": 10}
        # Another frame of that size reuses both: one draw per receiver.
        assert send(200) == {"draw": 10}
        # A frame of another size adds the latencies at its airtime.
        assert send(500) == {"_hop_latency": 10, "draw": 10}
        assert send(500) == {"draw": 10}
        # Writing a position a vehicle already has is not a move.
        vehicles[3].position = Vec2(80.0, -0.0)
        assert send(200) == {"draw": 10}
        # A real move drops the links.
        vehicles[3].position = Vec2(81.0, 0.0)
        assert send(200) == {**geometry, "_hop_latency": 10, "draw": 10}
        world.run_until(1.0)
        assert world.metrics.counters["channel/frames_delivered"] > 0

    def test_repeated_broadcasts_over_unchanged_links_match_the_per_receiver_dispatch(self):
        messages = [hello_message("src", (0.0, 0.0), 0.0, 0.0, 0.0) for _ in range(12)]
        sides = []
        for channel_class in (WirelessChannel, PerReceiverChannel):
            config = ChannelConfig(base_loss_probability=0.1, loss_per_100m=0.02)
            world = World(ScenarioConfig(seed=9, channel=config))
            channel = channel_class(world)
            FixedNode(world, channel, "src", Vec2(0, 0), 300.0)
            deliveries: list = []
            for index in range(6):
                vehicle = Vehicle(
                    vehicle_id=f"p{index}", position=Vec2(37.5 * index - 90.0, 11.0 * index)
                )
                node = VehicleNode(world, channel, vehicle, radio_range_m=300.0)
                node.on_any(functools.partial(record_delivery, world, node.node_id, deliveries))
            for message in messages:
                channel.broadcast("src", message)
                world.run_for(1.0)
            sides.append((world, channel, deliveries))
        (world, channel, deliveries), (oracle_world, oracle, oracle_deliveries) = sides

        samples = world.metrics.samples("channel/delivery_latency_s")
        oracle_samples = oracle_world.metrics.samples("channel/delivery_latency_s")
        assert len(samples) > len(messages)
        assert [s.hex() for s in samples] == [s.hex() for s in oracle_samples]
        assert deliveries == oracle_deliveries
        assert channel.rng._random.getstate() == oracle.rng._random.getstate()
        # Every delivery over one link shares one latency float.
        by_link: dict = {}
        for _now, node_id, _msg_id, _from_id, latency in deliveries:
            by_link.setdefault(node_id, []).append(latency)
        assert len(by_link) == 6
        assert all(all(latency is shared[0] for latency in shared) for shared in by_link.values())


# -- the differential test --------------------------------------------------------

#: Lattice coordinates 60 m apart: nodes coincide, and sit at exactly
#: 120, 180 or 300 m (a radio range) from each other, 3-4-5 triangles
#: included.
LATTICE = st.integers(min_value=-5, max_value=5).map(lambda k: 60.0 * k)
POSITION = st.one_of(
    st.tuples(LATTICE, LATTICE),
    st.tuples(
        st.floats(min_value=-320.0, max_value=320.0),
        st.floats(min_value=-320.0, max_value=320.0),
    ),
)
NODE = st.tuples(
    st.sampled_from(["vehicle", "fixed"]), POSITION, st.sampled_from([120.0, 180.0, 300.0])
)
#: Frame sizes stay below the replacement's 841 bytes.
SIZES = st.lists(st.integers(min_value=20, max_value=800), min_size=1, max_size=3)
#: A frame size no draw from ``SIZES`` gives.
EXTRA_SIZE = 801
VERDICT = st.one_of(
    st.just(("pass",)),
    st.just(("drop",)),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 0.0004, 0.25, 1.5])),
    st.just(("replace",)),
    st.tuples(st.just("duplicate"), st.integers(min_value=1, max_value=3)),
)
INTERCEPTORS = st.lists(st.lists(VERDICT, min_size=1, max_size=4), max_size=3)
INDEX = st.integers(min_value=0, max_value=11)
OPERATION = st.one_of(
    st.tuples(st.just("broadcast"), INDEX, INDEX),
    # Two broadcasts from one source, back to back, of any two messages.
    st.tuples(st.just("burst"), INDEX, INDEX, INDEX),
    st.tuples(st.just("unicast"), INDEX, INDEX, INDEX),
    st.tuples(st.just("run"), st.sampled_from([0.0005, 0.003, 0.02, 1.0])),
    st.tuples(st.just("move"), INDEX, POSITION),
    # A write of the position a vehicle already has, zero signs flipped.
    st.tuples(st.just("rewrite"), INDEX),
    st.tuples(st.just("attach"), NODE),
    st.tuples(st.just("detach"), INDEX),
)
LOSS = st.tuples(st.sampled_from([0.0, 0.05, 0.4]), st.sampled_from([0.0, 0.015, 0.3]))
#: The prober's plan (no prober at all, so the interceptor-free path
#: stays covered): no event, a fixed delay, or the previous receiver's
#: latency.
PROBES = st.one_of(
    st.none(),
    st.lists(st.sampled_from([None, "earlier", "earlier", 0.0, 0.0004]), min_size=1, max_size=4),
)


class Scripted:
    """An interceptor that plays its verdicts in turn, one per frame seen."""

    def __init__(self, verdicts, seen):
        self.verdicts = verdicts
        self.seen = seen
        self.calls = 0

    def __call__(self, frame):
        self.seen.append((frame.src_id, frame.dst_id, frame.message.msg_id, frame.sent_at))
        verdict = self.verdicts[self.calls % len(self.verdicts)]
        self.calls += 1
        return verdict


class Prober:
    """An interceptor that schedules one engine event per frame it is shown.

    Its plan gives, frame by frame, no event, a fixed delay, or
    ``"earlier"``: exactly the latency the previous receiver of the same
    transmission got if its copy passed undelayed and unreplaced, so the
    event ties in time with that receiver's delivery.  It always passes.
    """

    def __init__(self, world, channel, plan, log):
        self.world = world
        self.channel = channel
        self.plan = plan
        self.log = log
        self.calls = 0
        self.previous = None

    def __call__(self, frame):
        channel = self.channel
        src = channel.node(frame.src_id)
        dst = channel.node(frame.dst_id)
        latency = channel.latency(
            src.position.distance_to(dst.position),
            frame.message.total_bytes,
            channel.neighbor_count(frame.src_id),
        )
        transmission = (frame.src_id, frame.message.msg_id, frame.sent_at)
        choice = self.plan[self.calls % len(self.plan)]
        self.calls += 1
        delay = choice
        if choice == "earlier":
            previous = self.previous
            delay = previous[1] if previous is not None and previous[0] == transmission else None
        self.previous = (transmission, latency)
        if delay is not None:
            self.world.engine.schedule(
                delay, functools.partial(record_probe, self.world, self.log, self.calls), "probe"
            )
        return InterceptVerdict.passthrough()


def record_probe(world, log, number):
    log.append((world.now, "probe", number))


class Side(NamedTuple):
    world: World
    channel: WirelessChannel
    nodes: list
    deliveries: list
    seen: list
    #: Per source, the link set each of its broadcasts used.
    link_sets: dict


def record_delivery(world, node_id, deliveries, message, from_id):
    # The channel observes a delivery's latency just before handing the
    # frame over, so the newest sample is this delivery's.
    latency = world.metrics.samples("channel/delivery_latency_s")[-1]
    deliveries.append((world.now, node_id, message.msg_id, from_id, latency))


def add_node(side, kind, position, range_m):
    """Attach one more node; its id is its index on the side."""
    world, channel = side.world, side.channel
    index = len(side.nodes)
    if kind == "vehicle":
        vehicle = Vehicle(vehicle_id=f"v{index}", position=Vec2(*position))
        node = VehicleNode(world, channel, vehicle, radio_range_m=range_m)
    else:
        node = FixedNode(world, channel, f"f{index}", Vec2(*position), range_m)
    node.on_any(functools.partial(record_delivery, world, node.node_id, side.deliveries))
    side.nodes.append(node)


def build_side(channel_class, seed, loss, indexed, traced, nodes, interceptors, probes):
    config = ChannelConfig(base_loss_probability=loss[0], loss_per_100m=loss[1])
    world = World(ScenarioConfig(seed=seed, channel=config))
    if traced:
        world.enable_observability(channel_frames="all")
    channel = channel_class(world, use_spatial_index=indexed)
    side = Side(world, channel, [], [], [], {})
    for kind, position, range_m in nodes:
        add_node(side, kind, position, range_m)
    if probes is not None:
        channel.add_interceptor(Prober(world, channel, probes, side.deliveries))
    for verdicts in interceptors:
        channel.add_interceptor(Scripted(verdicts, side.seen))
    return side


def observe(side):
    world = side.world
    metrics = world.metrics
    tracer = world.tracer
    return {
        "deliveries": list(side.deliveries),
        "counters": [(k, v) for k, v in metrics.counters.items() if k.startswith("channel/")],
        "latencies": list(metrics.samples("channel/delivery_latency_s")),
        "rng": side.channel.rng._random.getstate(),
        "spans": [span.as_dict() for span in tracer.spans()] if tracer is not None else [],
        "frames_seen": list(side.seen),
        "now": world.now,
        "in_flight": world.engine.pending_labeled("frame-delivery"),
    }


def operated_node(side, operation):
    """The node an operation acts on, or None for a ``run``."""
    kind = operation[0]
    if kind == "run":
        return None
    if kind == "attach":
        return side.nodes[-1]
    return side.nodes[operation[1] % len(side.nodes)]


def broadcast(side, node, message):
    """Broadcast, and note which link set the broadcast used."""
    channel = side.channel
    receivers = channel.broadcast(node.node_id, message)
    side.link_sets.setdefault(node.node_id, []).append(
        channel._neighbor_cache.get(node.node_id)
    )
    return receivers


def apply(side, operation, messages):
    """Run one operation on one side; returns what the channel returned."""
    nodes, channel = side.nodes, side.channel
    kind = operation[0]
    if kind == "run":
        side.world.run_for(operation[1])
        return None
    if kind == "attach":
        add_node(side, *operation[1])
        return None
    node = nodes[operation[1] % len(nodes)]
    if kind in ("move", "rewrite"):
        if isinstance(node, VehicleNode):
            x, y = operation[2] if kind == "move" else node.vehicle.position
            if kind == "rewrite":
                x, y = (-x if x == 0.0 else x), (-y if y == 0.0 else y)
            node.vehicle.position = Vec2(x, y)
        return None
    if not channel.is_attached(node.node_id):
        return None
    if kind == "detach":
        channel.detach(node.node_id)
        return None
    if kind == "broadcast":
        return broadcast(side, node, messages[operation[2] % len(messages)])
    if kind == "burst":
        return [
            broadcast(side, node, messages[index % len(messages)]) for index in operation[2:]
        ]
    target = nodes[operation[2] % len(nodes)]
    return channel.unicast(node.node_id, target.node_id, messages[operation[3] % len(messages)])


def check_neighbors(one_loop, per_receiver, node):
    """``neighbors_of`` and ``neighbor_count`` equal the oracle's."""
    if node is None or not one_loop.channel.is_attached(node.node_id):
        return
    node_id = node.node_id
    expected = [n.node_id for n in per_receiver.channel.neighbors_of(node_id)]
    assert [n.node_id for n in one_loop.channel.neighbors_of(node_id)] == expected
    assert one_loop.channel.neighbor_count(node_id) == len(expected)
    assert per_receiver.channel.neighbor_count(node_id) == len(expected)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "all-frames-traced"])
@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "full-scan"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    loss=LOSS,
    nodes=st.lists(NODE, min_size=2, max_size=12),
    sizes=SIZES,
    scripts=INTERCEPTORS,
    probes=PROBES,
    operations=st.lists(OPERATION, min_size=1, max_size=16),
)
def test_one_loop_dispatch_matches_per_receiver_dispatch(
    indexed, traced, seed, loss, nodes, sizes, scripts, probes, operations
):
    # Messages and verdicts are shared, so both sides see the same ids.
    # The last message's size is drawn for no other, so every source
    # that sends it sends frames of two airtimes.
    messages = [data_message("x", "y", size, 0.0) for size in sizes + [EXTRA_SIZE]]
    replacement = data_message("mitm", "y", 777, 0.0, payload={"forged": True}).with_envelope(
        SecurityEnvelope(claimed_identity="mitm", extra_bytes=64)
    )
    verdict_of = {
        "pass": InterceptVerdict.passthrough,
        "drop": InterceptVerdict.drop,
        "delay": InterceptVerdict.delay,
        "replace": lambda: InterceptVerdict.replace(replacement),
        "duplicate": InterceptVerdict.duplicate,
    }
    interceptors = [[verdict_of[name](*args) for name, *args in script] for script in scripts]
    sides = [
        build_side(channel_class, seed, loss, indexed, traced, nodes, interceptors, probes)
        for channel_class in (WirelessChannel, PerReceiverChannel)
    ]
    one_loop, per_receiver = sides
    # After the drawn operations every node broadcasts once and unicasts
    # to the next node, so every example puts its interceptor stack in
    # front of real receivers.  Then a new node attaches, every node
    # broadcasts a frame of each of two sizes, another node attaches and
    # every node broadcasts again: every example both reuses the cached
    # links (the first new node's second frame) and drops them.
    extra = len(messages) - 1
    first_new = len(nodes) + sum(1 for operation in operations if operation[0] == "attach")
    sweep = [
        operation
        for index in range(len(nodes))
        for operation in (("broadcast", index, index), ("unicast", index, index + 1, index))
    ]
    sweep.append(("attach", ("fixed", (0.0, 0.0), 300.0)))
    sweep += [
        operation
        for index in range(first_new + 1)
        for operation in (("broadcast", index, extra), ("broadcast", index, 0))
    ]
    sweep.append(("attach", ("vehicle", (60.0, 0.0), 300.0)))
    sweep += [("broadcast", index, index) for index in range(first_new + 2)]
    for operation in operations + sweep:
        assert apply(one_loop, operation, messages) == apply(per_receiver, operation, messages)
        assert observe(one_loop) == observe(per_receiver), operation
        check_neighbors(one_loop, per_receiver, operated_node(one_loop, operation))
    for side in sides:
        side.world.run_for(5.0)
    for node in one_loop.nodes:
        check_neighbors(one_loop, per_receiver, node)
    assert observe(one_loop) == observe(per_receiver)
    assert observe(one_loop)["in_flight"] == 0
    if indexed:
        # Some source broadcast twice over one link set, and some
        # source's links were rebuilt after the cache was dropped.
        used = [
            (earlier is later, earlier is not None and later is not None)
            for sets in one_loop.link_sets.values()
            for earlier, later in zip(sets, sets[1:])
        ]
        assert (True, True) in used
        assert (False, True) in used
