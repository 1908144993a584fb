"""Wireless channel model.

The channel is a unit-disc graph (per-node radio range) with a
distance-dependent loss probability and a latency model:

    latency = base_transmit + bytes / rate + propagation(distance)
              + contention_delay * local_neighbor_count

That last term makes dense scenes slower, which is how DoS flooding and
density sweeps exert the time pressure the paper's "stringent time
constraints" arguments turn on.  (The propagation term is 1000 times
the speed-of-light delay; see :class:`~repro.sim.config.ChannelConfig`.)

A transmission costs one dispatch, not one per receiver: ``unicast``
and ``broadcast`` each call ``_dispatch`` once with the transmission's
links (:class:`_LinkSet`: each receiver with its distance and loss
probability), and its one loop walks them with the frame's constants
(source, airtime, tracer, the bound RNG draw and the delivery batch)
computed once.  The surviving copies of a transmission share one
engine batch (:meth:`~repro.sim.engine.Engine.batch`), so the
transmission costs one heap entry and each delivery one entry in a
sorted list.  Every seeded output is the one the earlier per-receiver
dispatch, with one ``schedule`` per copy, gave; ``_dispatch`` lists the
orderings that guarantees.

Range queries (``neighbors_of``, ``broadcast`` receiver sets, tap
audibility) run through the world's :class:`~repro.sim.spatial.SpatialGrid`
rather than brute-force pairwise scans.  The grid is write-tracked: a
node that can report position writes (a :class:`~repro.net.node.VehicleNode`
forwards its vehicle's) gets a watcher on attach, and before each query
the channel re-buckets only the nodes written since the last query.
Nodes that cannot report writes are re-read before every query.  So a
broadcast costs its receivers, not the fleet.  A per-source neighbor
cache holds each source's link set, built once with every link's
geometry, and for each frame airtime the source sends, each receiver's
complete hop latency.  It is dropped whole when a re-bucketed node
really moved, and on attach and detach, so while nobody moves (a
parked fleet) a broadcast with no interceptor and no traced frame costs
one loss draw per receiver and one batch entry per surviving copy.
Construct with ``use_spatial_index=False`` to get the original
full-scan implementation; it builds its links on the fly, is kept as
the correctness oracle and the "before" baseline of experiment E13, and
returns byte-identical results.

Attack hooks: *taps* passively observe frames near an adversary
(eavesdropping, traffic-flow analysis); *interceptors* may drop, delay
or replace frames in flight (MITM, delay/suppression).

Observability: with a tracer attached to the world, the channel emits
message-lifecycle spans — sent → delivered (with the modelled latency)
or dropped (with the reason: unreachable, intercepted, loss, departed).
Which frames get spans is the tracer's ``channel_frames`` policy;
the default traces only messages carrying a trace context, so beacon
storms stay span-free.  Span bookkeeping never touches the RNG or the
engine queue, so traced runs keep byte-identical seeded metrics.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..errors import NetworkError
from ..geometry import Vec2
from ..sim.config import ChannelConfig
from ..sim.spatial import SpatialGrid
from ..sim.world import World
from .messages import Message

if TYPE_CHECKING:
    from ..obs import Tracer

#: Below this many taps a linear audibility scan beats grid upkeep.
_TAP_INDEX_THRESHOLD = 8


class ChannelNode(Protocol):
    """What the channel needs from anything attached to it."""

    node_id: str
    radio_range_m: float

    @property
    def position(self) -> Vec2: ...

    def deliver(self, message: Message, from_id: str) -> None: ...


@runtime_checkable
class ReportsPositionWrites(Protocol):
    """A node that runs a watcher after every change of its ``position``.

    The channel re-buckets such a node only when its watcher ran; it
    re-reads any other node before every indexed query.
    """

    def watch_position(self, watcher: Callable[[], None]) -> None: ...

    def unwatch_position(self, watcher: Callable[[], None]) -> None: ...


@dataclass(frozen=True)
class Frame:
    """One transmission attempt observed on the air."""

    src_id: str
    dst_id: Optional[str]  # None for broadcast
    message: Message
    sent_at: float


class InterceptAction(enum.Enum):
    """What an interceptor decided to do with a frame."""

    PASS = "pass"
    DROP = "drop"
    DELAY = "delay"
    REPLACE = "replace"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class InterceptVerdict:
    """Result of running a frame past an interceptor."""

    action: InterceptAction = InterceptAction.PASS
    delay_s: float = 0.0
    replacement: Optional[Message] = None
    copies: int = 0

    @staticmethod
    def passthrough() -> "InterceptVerdict":
        return _PASS

    @staticmethod
    def drop() -> "InterceptVerdict":
        return InterceptVerdict(InterceptAction.DROP)

    @staticmethod
    def delay(seconds: float) -> "InterceptVerdict":
        """Deliver the frame ``seconds`` late; the delay must be finite and >= 0."""
        if not (math.isfinite(seconds) and seconds >= 0.0):
            raise NetworkError(f"delay verdict needs a finite delay >= 0, got {seconds!r}")
        return InterceptVerdict(InterceptAction.DELAY, delay_s=seconds)

    @staticmethod
    def replace(message: Message) -> "InterceptVerdict":
        return InterceptVerdict(InterceptAction.REPLACE, replacement=message)

    @staticmethod
    def duplicate(copies: int = 1) -> "InterceptVerdict":
        """Deliver the frame ``1 + copies`` times (duplication fault)."""
        if copies < 1:
            raise NetworkError("duplicate verdict needs copies >= 1")
        return InterceptVerdict(InterceptAction.DUPLICATE, copies=copies)


#: The one pass verdict: verdicts are frozen, so every pass can share it.
_PASS = InterceptVerdict(InterceptAction.PASS)


class Tap(Protocol):
    """A passive observer of frames (eavesdropper)."""

    @property
    def position(self) -> Vec2: ...

    @property
    def listen_range_m(self) -> float: ...

    def on_frame(self, frame: Frame) -> None: ...


Interceptor = Callable[[Frame], InterceptVerdict]


class _LinkSet:
    """The links of one transmission source, in receiver order.

    ``distance`` holds each receiver's distance from the source and
    ``loss`` its :meth:`WirelessChannel._loss_probability`.
    ``contention`` is the source's neighbor count when the receiver set
    gives it (a cached neighbor set); it is None for links built on the
    fly (a unicast, the full scan), whose receivers each count the
    source's neighbors after their verdict.  ``latencies`` maps a frame
    airtime to each receiver's complete hop latency; only a set with a
    ``contention`` fills it, one entry per airtime the source sends.
    The per-receiver fields are tuples of strings and floats, which the
    cyclic garbage collector stops tracking at its first pass, so a
    cached set adds two tracked objects (itself and ``latencies``)
    whatever its size.
    """

    __slots__ = ("ids", "distance", "loss", "contention", "latencies")

    def __init__(
        self,
        ids: Tuple[str, ...],
        distance: Tuple[float, ...],
        loss: Tuple[float, ...],
        contention: Optional[int],
    ) -> None:
        self.ids = ids
        self.distance = distance
        self.loss = loss
        self.contention = contention
        self.latencies: Dict[float, Tuple[float, ...]] = {}


class WirelessChannel:
    """Shared broadcast medium connecting all radio-equipped nodes."""

    def __init__(
        self,
        world: World,
        config: Optional[ChannelConfig] = None,
        use_spatial_index: bool = True,
    ) -> None:
        self.world = world
        self.config = config if config is not None else world.config.channel
        self.rng = world.rng.fork("channel")
        self._nodes: Dict[str, ChannelNode] = {}
        self._taps: List[Tap] = []
        self._interceptors: List[Interceptor] = []
        self._grid: Optional["SpatialGrid[str]"] = (
            world.claim_spatial_grid(self) if use_spatial_index else None
        )
        self._neighbor_cache: Dict[str, _LinkSet] = {}
        # Write tracking for the grid: the nodes written since the last
        # sync, how to stop each reporting node's watcher, and the nodes
        # that cannot report writes and so are re-read.
        self._written: Dict[str, ChannelNode] = {}
        self._unwatch: Dict[str, Callable[[], None]] = {}
        self._polled: Dict[str, ChannelNode] = {}
        self._tap_grid: Optional["SpatialGrid[int]"] = None
        self._tap_reach_m = 0.0

    # -- membership --------------------------------------------------------

    def attach(self, node: ChannelNode) -> None:
        """Attach a node to the medium."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise NetworkError(f"node already attached: {node_id!r}")
        if self._grid is not None:
            self._grid.insert(node_id, node.position)
            if isinstance(node, ReportsPositionWrites):
                watcher = functools.partial(self._written.__setitem__, node_id, node)
                node.watch_position(watcher)
                self._unwatch[node_id] = functools.partial(node.unwatch_position, watcher)
            else:
                self._polled[node_id] = node
            self._neighbor_cache.clear()
        self._nodes[node_id] = node

    def detach(self, node_id: str) -> None:
        """Detach a node; pending deliveries to it are lost."""
        self._nodes.pop(node_id, None)
        if self._grid is not None:
            self._grid.remove(node_id)
            self._written.pop(node_id, None)
            self._polled.pop(node_id, None)
            unwatch = self._unwatch.pop(node_id, None)
            if unwatch is not None:
                unwatch()
            self._neighbor_cache.clear()

    def is_attached(self, node_id: str) -> bool:
        """Return True if the node is currently attached."""
        return node_id in self._nodes

    def node(self, node_id: str) -> ChannelNode:
        """Return the attached node with this id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"no such node on channel: {node_id!r}") from None

    def nodes(self) -> List[ChannelNode]:
        """Return all attached nodes."""
        return list(self._nodes.values())

    # -- topology queries ------------------------------------------------------

    def in_range(self, a: ChannelNode, b: ChannelNode) -> bool:
        """True if ``a`` can reach ``b`` with its own radio range."""
        return a.position.distance_to(b.position) <= a.radio_range_m

    def _sync_index(self) -> None:
        """Bring the grid in line with live node positions.

        Entities write their positions directly (mobility models, fault
        teleports, tests).  Before any indexed query the channel
        re-buckets the nodes whose watchers reported a write since the
        last sync, and re-reads the nodes that cannot report writes.  A
        write of an equal position is not a move (``-0.0`` and ``0.0``
        give every cached distance the same ``hypot``); any real move
        drops the whole neighbor cache, link geometry and latencies
        included.
        """
        grid = self._grid
        assert grid is not None
        moved = False
        for node_id, node in self._written.items():
            if grid.move_if_changed(node_id, node.position):
                moved = True
        self._written.clear()
        for node_id, node in self._polled.items():
            if grid.move_if_changed(node_id, node.position):
                moved = True
        if moved:
            self._neighbor_cache.clear()

    def _scan_neighbors(self, node_id: str) -> List[ChannelNode]:
        """Brute-force neighbor scan (the pre-index reference path)."""
        node = self.node(node_id)
        return [
            other
            for other in self._nodes.values()
            if other.node_id != node_id and self.in_range(node, other)
        ]

    def _cached_links(self, node_id: str) -> _LinkSet:
        """The indexed channel's links from ``node_id``, built once per cache life."""
        grid = self._grid
        assert grid is not None
        node = self.node(node_id)
        self._sync_index()
        links = self._neighbor_cache.get(node_id)
        if links is None:
            nodes = self._nodes
            ids = tuple(
                [
                    other_id
                    for other_id in grid.within(node.position, node.radio_range_m)
                    if other_id != node_id and other_id in nodes
                ]
            )
            links = self._neighbor_cache[node_id] = self._link_set(node, ids, len(ids))
        return links

    def _link_set(
        self, src: ChannelNode, ids: Tuple[str, ...], contention: Optional[int]
    ) -> _LinkSet:
        """Links from ``src`` to the attached nodes ``ids`` at their current positions."""
        nodes = self._nodes
        src_position = src.position
        distances = tuple([src_position.distance_to(nodes[dst_id].position) for dst_id in ids])
        return _LinkSet(
            ids, distances, tuple(map(self._loss_probability, distances)), contention
        )

    def neighbors_of(self, node_id: str) -> List[ChannelNode]:
        """Return nodes reachable from ``node_id`` (excluding itself)."""
        if self._grid is None:
            return self._scan_neighbors(node_id)
        nodes = self._nodes
        return [nodes[other_id] for other_id in self._cached_links(node_id).ids]

    def neighbor_count(self, node_id: str) -> int:
        """Return the number of reachable neighbors."""
        if self._grid is None:
            return len(self._scan_neighbors(node_id))
        return len(self._cached_links(node_id).ids)

    # -- attack hooks -------------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Register a passive eavesdropper."""
        self._taps.append(tap)
        self._tap_grid = None

    def remove_tap(self, tap: Tap) -> None:
        """Remove a previously registered tap."""
        self._taps.remove(tap)
        self._tap_grid = None

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Register an in-path interceptor (MITM / delay / suppression)."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Remove a previously registered interceptor."""
        self._interceptors.remove(interceptor)

    # -- transmission ---------------------------------------------------------------

    def unicast(self, src_id: str, dst_id: str, message: Message) -> bool:
        """Transmit to a single in-range destination.

        Returns True if the frame was *sent* (destination in range); the
        actual delivery may still be lost or intercepted.  Out-of-range
        destinations return False without raising, because transient
        disconnection is normal in VANETs, not an error.
        """
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
        self._dispatch(src, self._link_set(src, (dst_id,), None), message, span=span)
        return True

    def broadcast(self, src_id: str, message: Message) -> int:
        """Transmit to every in-range node; returns the receiver count."""
        src = self.node(src_id)
        if self._taps:
            self._offer_to_taps(Frame(src_id, None, message, self.world.now), src)
        self.world.metrics.increment("channel/frames_sent")
        self.world.metrics.increment("channel/bytes_sent", message.total_bytes)
        # The contention term depends only on the *source's* neighborhood,
        # so a cached link set carries it once.  The legacy full-scan mode
        # builds its links on the fly without it, and ``_dispatch``
        # recomputes it per receiver as the E13 baseline.
        if self._grid is not None:
            links = self._cached_links(src_id)
        else:
            scanned = tuple([node.node_id for node in self._scan_neighbors(src_id)])
            links = self._link_set(src, scanned, None)
        parent_span = self._frame_span("msg.broadcast", message, src_id, None)
        tracer = self.world.tracer
        self._dispatch(src, links, message, parent=parent_span)
        receivers = len(links.ids)
        if parent_span is not None and tracer is not None:
            tracer.end_span(parent_span, "ok", {"receivers": receivers})
        return receivers

    # -- internals ------------------------------------------------------------------

    def _frame_span(
        self, name: str, message: Message, src_id: str, dst_id: Optional[str]
    ):
        """Open a lifecycle span for a frame, or None when untraced."""
        tracer = self.world.tracer
        if tracer is None or not tracer.wants_frame(message):
            return None
        return tracer.start_span(
            name,
            subsystem="net",
            parent=message.trace_ctx,
            attrs={
                "msg_id": message.msg_id,
                "kind": message.kind.value,
                "src": src_id,
                "dst": dst_id,
                "bytes": message.total_bytes,
            },
        )

    def _offer_to_taps(self, frame: Frame, src: ChannelNode) -> None:
        taps = self._taps
        if self._grid is None or len(taps) < _TAP_INDEX_THRESHOLD:
            for tap in taps:
                if tap.position.distance_to(src.position) <= tap.listen_range_m:
                    tap.on_frame(frame)
            return
        self._sync_taps()
        assert self._tap_grid is not None
        for index in self._tap_grid.within(src.position, self._tap_reach_m):
            tap = taps[index]
            if tap.position.distance_to(src.position) <= tap.listen_range_m:
                tap.on_frame(frame)

    def _sync_taps(self) -> None:
        """(Re)index tap positions; taps can ride on moving adversaries.

        The grid is queried with the *largest* listen range, then every
        candidate is re-checked against its own range, so per-tap ranges
        (and range changes) stay exact.
        """
        assert self._grid is not None
        grid = self._tap_grid
        if grid is None:
            grid = SpatialGrid(cell_size_m=self._grid.cell_size_m)
            for index, tap in enumerate(self._taps):
                grid.insert(index, tap.position)
            self._tap_grid = grid
        else:
            for index, tap in enumerate(self._taps):
                grid.move_if_changed(index, tap.position)
        self._tap_reach_m = max(tap.listen_range_m for tap in self._taps)

    def _run_interceptors(self, frame: Frame) -> InterceptVerdict:
        """Return the first verdict that is not a pass, checked for use."""
        for interceptor in self._interceptors:
            verdict = interceptor(frame)
            if verdict.action is not InterceptAction.PASS:
                if verdict.action is InterceptAction.REPLACE and verdict.replacement is None:
                    raise NetworkError("REPLACE verdict without a replacement message")
                return verdict
        return _PASS

    def _loss_probability(self, distance_m: float) -> float:
        config = self.config
        loss = config.base_loss_probability + config.loss_per_100m * distance_m / 100.0
        # Clamp both ends: a pathological config or rounding at very
        # short distances must never yield a negative probability.  The
        # two conditionals are ``min(0.95, max(0.0, loss))`` bit for bit
        # (NaN and -0.0 included) at a fraction of the cost per receiver.
        loss = loss if loss > 0.0 else 0.0
        return loss if loss < 0.95 else 0.95

    def latency(self, distance_m: float, size_bytes: int, neighbor_count: int) -> float:
        """Return the modelled one-hop latency for a frame.

        The sum is ``((base_transmit + bytes / rate) + propagation) +
        contention``, split so that a transmission computes the frame's
        part once (:meth:`_airtime_s`) and each receiver's part in
        :meth:`_hop_latency`.  A cached link set keeps each receiver's
        distance, and for each airtime its source sends, each
        receiver's whole sum; both are dropped with the neighbor cache,
        on any real move, attach or detach.  The propagation term is
        1000 times too large; see :class:`~repro.sim.config.ChannelConfig`.
        """
        return self._hop_latency(self._airtime_s(size_bytes), distance_m, neighbor_count)

    def _airtime_s(self, size_bytes: int) -> float:
        """The part of :meth:`latency` that the frame alone fixes."""
        config = self.config
        return config.base_transmit_delay_s + size_bytes / config.bytes_per_second

    def _hop_latency(self, airtime_s: float, distance_m: float, neighbor_count: int) -> float:
        """:meth:`latency` given the frame's :meth:`_airtime_s`.

        This is the one place the propagation expression lives, and it
        keeps the expression every seeded output was recorded with:
        ``distance_m * 3.34e-6`` seconds at the default config, 1000
        times the speed-of-light delay.  The cached hop latencies of
        :meth:`_latencies` come from here too, so a fix here reaches
        them with no other change.
        """
        config = self.config
        return (
            airtime_s
            + (distance_m / 1000.0) * config.propagation_delay_s_per_km * 1000.0
            + config.contention_delay_per_neighbor_s * neighbor_count
        )

    def _latencies(self, links: _LinkSet, airtime_s: float) -> Tuple[float, ...]:
        """Each receiver's hop latency for frames of ``airtime_s``, built once."""
        latencies = links.latencies.get(airtime_s)
        if latencies is None:
            hop_latency = self._hop_latency
            contention = links.contention
            assert contention is not None
            # ``+ 0.0`` is an undelayed copy's ``+ extra_delay``: the
            # same float the per-receiver body computes.
            latencies = links.latencies[airtime_s] = tuple(
                [hop_latency(airtime_s, distance, contention) + 0.0 for distance in links.distance]
            )
        return latencies

    def _dispatch(
        self,
        src: ChannelNode,
        links: _LinkSet,
        message: Message,
        span=None,
        parent=None,
    ) -> None:
        """Put one transmission on the air: every receiver in one loop.

        A unicast passes a link set built on the fly for its one
        in-range destination and the frame's ``span``; a broadcast
        passes its source's link set and the frame's span as
        ``parent``.  The frame's constants are computed once: the
        source id, the airtime, the tracer, the bound RNG draw and one
        ``frame-delivery`` engine batch on :meth:`_deliver`.  Each
        surviving copy costs one batch entry; the transmission costs
        one heap entry.

        The body is chosen once per transmission.  With no interceptor
        registered, an untraced frame and a link set that carries its
        contention (a cached one), each receiver costs one loss draw
        and, if its copy survives, one batch entry holding the
        receiver's cached hop latency from :meth:`_latencies`, keyed by
        the source and the frame's airtime and dropped with the neighbor
        cache on any real move, attach or detach, so every delivery over
        one link shares one latency float.  Otherwise the per-receiver
        body runs, and frames, verdicts, copies, delays and span events
        cost only there.

        Every seeded output is the one the old per-receiver dispatch
        gave, so the order of side effects is fixed:

        * each receiver runs the interceptors (reading
          ``self._interceptors`` live) before its loss draws, and a
          broadcast opens each receiver's ``msg.delivery`` span just
          before that;
        * distance and loss probability are the link set's, computed
          from the positions at its build; latency is
          :meth:`_hop_latency` of the frame's airtime (of the
          replacement's bytes after a REPLACE), the distance and the
          contention, then ``+ extra_delay``;
        * with no contention in the link set (a unicast, or the legacy
          full-scan channel) each receiver calls :meth:`neighbor_count`
          after its verdict;
        * each copy draws its own loss, in order;
        * each surviving copy's batch entry takes its engine sequence
          number at the ``add``, as its own ``schedule`` call did, so an
          event an interceptor schedules between two copies keeps its
          place; the ``finally`` closes the batch, so copies added
          before a raising interceptor are still queued.

        Conservation law (checked by chaos invariants): every receiver
        accounts for all its transmissions exactly once —
          frames_dispatched + frames_duplicated ==
              frames_suppressed + frames_lost + frames_scheduled
        and frames_scheduled - frames_delivered - frames_to_departed is
        the number of frames still in flight (never negative).  A
        receiver counts as dispatched once its verdict is settled, so
        an interceptor that raises leaves the counters balanced.  The
        dispatched, lost and scheduled counts go to the metrics once per
        transmission, and a zero is skipped, so no counter appears that
        per-frame increments would not have created.
        """
        world = self.world
        metrics = world.metrics
        tracer = world.tracer if span is not None or parent is not None else None
        interceptors = self._interceptors
        src_id = src.node_id
        airtime_s = self._airtime_s(message.total_bytes)
        contention = links.contention
        chance = self.rng.chance
        batch = world.engine.batch("frame-delivery", self._deliver)
        add = batch.add
        dispatched = lost = scheduled = 0
        try:
            if tracer is None and not interceptors and contention is not None:
                for dst_id, loss_probability, latency in zip(
                    links.ids, links.loss, self._latencies(links, airtime_s)
                ):
                    dispatched += 1
                    if chance(loss_probability):
                        lost += 1
                    else:
                        add(latency, (dst_id, message, src_id, latency, None, None))
                        scheduled += 1
                return
            now = world.now
            hop_latency = self._hop_latency
            for dst_id, distance, loss_probability in zip(links.ids, links.distance, links.loss):
                if parent is not None and tracer is not None:
                    span = tracer.start_span(
                        "msg.delivery", subsystem="net", parent=parent, attrs={"dst": dst_id}
                    )
                verdict = (
                    self._run_interceptors(Frame(src_id, dst_id, message, now))
                    if interceptors
                    else _PASS
                )
                dispatched += 1
                sent = message
                sent_airtime_s = airtime_s
                extra_delay = 0.0
                copies = 1
                if verdict is not _PASS:
                    action = verdict.action
                    if action is InterceptAction.DROP:
                        metrics.increment("channel/frames_suppressed")
                        if tracer is not None:
                            tracer.link_active_faults(span)
                            tracer.end_span(span, "dropped", {"reason": "intercepted"})
                        continue
                    if action is InterceptAction.DELAY:
                        extra_delay = verdict.delay_s
                        metrics.increment("channel/frames_delayed")
                        if tracer is not None:
                            tracer.add_event(span, "delayed", extra_s=extra_delay)
                    elif action is InterceptAction.REPLACE:
                        assert verdict.replacement is not None
                        sent = verdict.replacement
                        sent_airtime_s = self._airtime_s(sent.total_bytes)
                        metrics.increment("channel/frames_tampered")
                        if tracer is not None:
                            tracer.add_event(span, "tampered", replacement=sent.msg_id)
                    elif action is InterceptAction.DUPLICATE:
                        copies += verdict.copies
                        metrics.increment("channel/frames_duplicated", verdict.copies)
                        if tracer is not None:
                            tracer.add_event(span, "duplicated", copies=verdict.copies)

                latency = (
                    hop_latency(
                        sent_airtime_s,
                        distance,
                        contention if contention is not None else self.neighbor_count(src_id),
                    )
                    + extra_delay
                )
                # One argument tuple serves every copy.
                delivery = (dst_id, sent, src_id, latency, tracer, span)
                survived = 0
                while copies:
                    copies -= 1
                    if chance(loss_probability):
                        lost += 1
                        if tracer is not None:
                            tracer.add_event(span, "lost")
                    else:
                        add(latency, delivery)
                        survived += 1
                scheduled += survived
                if tracer is not None and not survived:
                    tracer.link_active_faults(span)
                    tracer.end_span(span, "dropped", {"reason": "loss"})
        finally:
            batch.close()
            if dispatched:
                metrics.increment("channel/frames_dispatched", dispatched)
            if lost:
                metrics.increment("channel/frames_lost", lost)
            if scheduled:
                metrics.increment("channel/frames_scheduled", scheduled)

    def _deliver(
        self,
        dst_id: str,
        message: Message,
        from_id: str,
        latency: float,
        tracer: Optional["Tracer"],
        span,
    ) -> None:
        """Hand a frame that survived the air to its receiver, if still attached."""
        target = self._nodes.get(dst_id)
        if target is None:
            self.world.metrics.increment("channel/frames_to_departed")
            if tracer is not None:
                tracer.end_span(span, "dropped", {"reason": "departed"})
            return
        self.world.metrics.increment("channel/frames_delivered")
        self.world.metrics.observe("channel/delivery_latency_s", latency)
        if tracer is not None:
            # The first delivery closes the span; duplicates land as
            # events on the already-closed span (end_span is first-
            # close-wins).
            if span.ended:
                tracer.add_event(span, "duplicate_delivered")
            else:
                tracer.end_span(span, "delivered", {"latency_s": latency})
        target.deliver(message, from_id)
