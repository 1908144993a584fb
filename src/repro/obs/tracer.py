"""Causal tracing for simulation runs.

A :class:`Tracer` records :class:`Span`s — named intervals of *simulated*
time with parent/child links and a trace id shared by every span that
belongs to one logical journey (a task from submit to completion, a
message from send to delivery, a storage operation through its quorum).
Spans carry free-form attributes, point-in-time events, and *causal
links* to other spans; the fault-injection layer registers its fault
spans as "active", and any span that degrades while a fault window is
open links back to it, so a stale read can be walked back to the
partition that caused it (:meth:`Tracer.explain`).

Determinism contract: the tracer never touches the engine queue, the
RNG, or the metrics registry.  Span and trace ids come from plain
counters, timestamps come from the injected sim-time clock, and every
hook in the simulator is guarded by an ``is None`` check — so a seeded
run produces byte-identical metrics whether tracing is on or off, and
tracing-off costs one attribute test per hook.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .exporters import write_jsonl

#: How the wireless channel decides which frames deserve spans.
#:
#: * ``"tagged"`` (default) — only frames whose message carries a trace
#:   context (i.e. frames that belong to a journey someone is tracing);
#: * ``"all"`` — every frame, including beacons (expensive, exhaustive);
#: * ``"off"`` — no frame spans even when a tracer is attached.
CHANNEL_FRAME_MODES = ("tagged", "all", "off")

#: A portable span reference: ``(trace_id, span_id)``.  This is the form
#: threaded through message metadata so a context survives serialization
#: boundaries (routing hops, handovers) without carrying object graphs.
TraceContext = Tuple[str, str]


class SpanEvent(NamedTuple):
    """A point-in-time annotation inside a span."""

    time: float
    name: str
    attrs: Mapping[str, Any]


class Span:
    """One named interval of simulated time inside a trace.

    A run keeps every span until export, so a span is one slotted
    object: no per-instance ``__dict__``, and ``events`` holds the
    shared empty tuple until :meth:`Tracer.add_event` gives it a list,
    since most spans never get an event.
    """

    __slots__ = (
        "span_id",
        "trace_id",
        "name",
        "subsystem",
        "start",
        "parent_id",
        "end",
        "status",
        "attrs",
        "events",
        "links",
    )

    span_id: str
    trace_id: str
    name: str
    subsystem: str
    start: float
    parent_id: Optional[str]
    end: Optional[float]
    status: str
    attrs: Dict[str, Any]
    events: Sequence[SpanEvent]
    #: Span ids this span is causally linked to (e.g. the fault that
    #: was active when this span degraded).
    links: Tuple[str, ...]

    def __init__(
        self,
        span_id: str,
        trace_id: str,
        name: str,
        subsystem: str,
        start: float,
        parent_id: Optional[str] = None,
        end: Optional[float] = None,
        status: str = "open",
        attrs: Optional[Dict[str, Any]] = None,
        events: Optional[List[SpanEvent]] = None,
        links: Tuple[str, ...] = (),
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.name = name
        self.subsystem = subsystem
        self.start = start
        self.parent_id = parent_id
        self.end = end
        self.status = status
        self.attrs = {} if attrs is None else attrs
        self.events = () if events is None else events
        self.links = links

    def __repr__(self) -> str:
        return (
            f"Span({self.span_id!r}, trace_id={self.trace_id!r}, name={self.name!r}, "
            f"start={self.start!r}, end={self.end!r}, status={self.status!r})"
        )

    @property
    def context(self) -> TraceContext:
        """The portable ``(trace_id, span_id)`` reference for this span."""
        return (self.trace_id, self.span_id)

    @property
    def duration_s(self) -> Optional[float]:
        """Sim-time duration, or None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def ended(self) -> bool:
        """Whether :meth:`Tracer.end_span` has run for this span."""
        return self.end is not None

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable flat view of the span."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "subsystem": self.subsystem,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [
                {"time": e.time, "name": e.name, "attrs": dict(e.attrs)}
                for e in self.events
            ],
            "links": list(self.links),
        }


ParentRef = Union[Span, TraceContext, None]


class Tracer:
    """Collects causal spans keyed by simulated time.

    ``clock`` supplies the current sim time (normally ``lambda:
    world.now``).  ``max_spans`` bounds memory: once reached, new spans
    are still handed to callers (so instrumentation never branches) but
    are not retained, and :attr:`dropped_spans` counts the loss
    explicitly.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        max_spans: int = 100_000,
        channel_frames: str = "tagged",
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        if channel_frames not in CHANNEL_FRAME_MODES:
            raise ValueError(
                f"channel_frames must be one of {CHANNEL_FRAME_MODES}, got {channel_frames!r}"
            )
        self._clock = clock
        self.max_spans = max_spans
        self.channel_frames = channel_frames
        self._spans: Dict[str, Span] = {}
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: Spans that arrived after the ``max_spans`` cap (not retained).
        self.dropped_spans = 0
        #: span_id -> expiry sim-time (None = active until end of run).
        self._active_faults: Dict[str, Optional[float]] = {}

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        subsystem: str = "",
        parent: ParentRef = None,
        trace_id: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> Span:
        """Open a span; a span with no parent and no trace id roots a new trace."""
        parent_id: Optional[str] = None
        if isinstance(parent, Span):
            trace_id = trace_id or parent.trace_id
            parent_id = parent.span_id
        elif parent is not None:  # a (trace_id, span_id) context tuple
            trace_id = trace_id or parent[0]
            parent_id = parent[1]
        if trace_id is None:
            trace_id = f"t{next(self._trace_ids)}"
        span = Span(
            f"s{next(self._span_ids)}",
            trace_id,
            name,
            subsystem,
            self._clock(),
            parent_id,
            None,
            "open",
            dict(attrs) if attrs else {},
        )
        if len(self._spans) < self.max_spans:
            self._spans[span.span_id] = span
        else:
            self.dropped_spans += 1
        return span

    def end_span(
        self,
        span: Span,
        status: str = "ok",
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Close a span; idempotent (the first close wins)."""
        if span.end is not None:
            return
        span.end = self._clock()
        span.status = status
        if attrs:
            span.attrs.update(attrs)

    def add_event(self, span: Span, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to a span."""
        event = SpanEvent(self._clock(), name, attrs)
        events = span.events
        if isinstance(events, list):
            events.append(event)
        else:  # the span's first event replaces the shared empty tuple
            span.events = [*events, event]

    def link(self, span: Span, *targets: Union[Span, str]) -> None:
        """Causally link ``span`` to other spans (deduplicated, ordered)."""
        existing = set(span.links)
        added = []
        for target in targets:
            target_id = target.span_id if isinstance(target, Span) else target
            if target_id not in existing:
                existing.add(target_id)
                added.append(target_id)
        span.links = span.links + tuple(added)

    # -- fault windows ------------------------------------------------------

    def activate_fault(self, span: Span, until: Optional[float] = None) -> None:
        """Register a fault span as active (until ``until``, or forever)."""
        self._active_faults[span.span_id] = until
        if len(self._spans) >= self.max_spans and span.span_id not in self._spans:
            # Fault spans are the anchors causal explanations hang off;
            # retain them even past the cap (the cap is for bulk spans).
            self._spans[span.span_id] = span

    def deactivate_fault(self, span: Span) -> None:
        """Explicitly close a fault window (idempotent)."""
        self._active_faults.pop(span.span_id, None)

    def active_fault_spans(self) -> List[Span]:
        """Fault spans whose window covers the current sim time.

        Expiry is evaluated lazily against the clock, so no engine
        events are ever scheduled on the tracer's behalf.
        """
        now = self._clock()
        live: List[Span] = []
        expired: List[str] = []
        for span_id, until in self._active_faults.items():
            if until is not None and now > until:
                expired.append(span_id)
                continue
            span = self._spans.get(span_id)
            if span is not None:
                live.append(span)
        for span_id in expired:
            del self._active_faults[span_id]
        return live

    def link_active_faults(self, span: Span) -> int:
        """Link every currently active fault span to ``span``.

        Returns the number of fault spans linked — the degradation
        hooks call this so "which fault broke this operation" is
        answerable straight from the trace.
        """
        faults = self.active_fault_spans()
        if faults:
            self.link(span, *faults)
        return len(faults)

    # -- channel sampling ---------------------------------------------------

    def wants_frame(self, message: Any) -> bool:
        """Whether the channel should open spans for this message."""
        if self.channel_frames == "all":
            return True
        if self.channel_frames == "off":
            return False
        return getattr(message, "trace_ctx", None) is not None

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def get(self, span_id: str) -> Optional[Span]:
        """Return the retained span with this id, if any."""
        return self._spans.get(span_id)

    def spans(self) -> List[Span]:
        """All retained spans in creation order."""
        return list(self._spans.values())

    def trace(self, trace_id: str) -> List[Span]:
        """All retained spans of one trace, in creation order."""
        return [s for s in self._spans.values() if s.trace_id == trace_id]

    def roots(self) -> List[Span]:
        """Retained spans with no parent (trace roots)."""
        return [s for s in self._spans.values() if s.parent_id is None]

    def find(self, name_prefix: str = "", subsystem: str = "") -> List[Span]:
        """Retained spans filtered by name prefix and/or subsystem."""
        return [
            s
            for s in self._spans.values()
            if s.name.startswith(name_prefix)
            and (not subsystem or s.subsystem == subsystem)
        ]

    def ancestry(self, span: Span) -> List[Span]:
        """The span's retained ancestors, nearest first."""
        chain: List[Span] = []
        seen = {span.span_id}
        current = span
        while current.parent_id is not None:
            parent = self._spans.get(current.parent_id)
            if parent is None or parent.span_id in seen:
                break
            chain.append(parent)
            seen.add(parent.span_id)
            current = parent
        return chain

    def explain(self, span: Span) -> List[Span]:
        """Walk a span back to its causes.

        Returns the span, its ancestors (nearest first), and every span
        linked from any of them (fault spans, typically) — the chain an
        E12-style post-mortem reads to answer "which fault broke this
        read".
        """
        chain = [span] + self.ancestry(span)
        seen = {s.span_id for s in chain}
        linked: List[Span] = []
        for member in chain:
            for target_id in member.links:
                if target_id in seen:
                    continue
                seen.add(target_id)
                target = self._spans.get(target_id)
                if target is not None:
                    linked.append(target)
        return chain + linked

    # -- rendering / export -------------------------------------------------

    def render_trace(self, trace_id: str) -> str:
        """Render one trace as an indented tree of spans."""
        members = self.trace(trace_id)
        if not members:
            return f"<empty trace {trace_id}>"
        by_parent: Dict[Optional[str], List[Span]] = {}
        ids = {s.span_id for s in members}
        for span in members:
            # A span whose parent was not retained renders as a root.
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)
        lines = [f"trace {trace_id}"]

        def _walk(parent: Optional[str], depth: int) -> None:
            for span in by_parent.get(parent, []):
                end = f"{span.end:.3f}" if span.end is not None else "…"
                attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
                links = f" ~> {','.join(span.links)}" if span.links else ""
                lines.append(
                    f"{'  ' * (depth + 1)}[{span.start:.3f} → {end}] "
                    f"{span.name} ({span.status})"
                    + (f" {attrs}" if attrs else "")
                    + links
                )
                for event in span.events:
                    event_attrs = " ".join(f"{k}={v}" for k, v in event.attrs.items())
                    lines.append(
                        f"{'  ' * (depth + 2)}@ {event.time:.3f} {event.name}"
                        + (f" {event_attrs}" if event_attrs else "")
                    )
                _walk(span.span_id, depth + 1)

        _walk(None, 0)
        return "\n".join(lines)

    def trace_summaries(self) -> List[Dict[str, Any]]:
        """One summary row per trace: root, span/status counts, duration."""
        grouped: Dict[str, List[Span]] = {}
        for span in self._spans.values():
            grouped.setdefault(span.trace_id, []).append(span)
        summaries: List[Dict[str, Any]] = []
        for trace_id, members in grouped.items():
            root = next((s for s in members if s.parent_id is None), members[0])
            statuses: Dict[str, int] = {}
            linked_faults = 0
            for span in members:
                statuses[span.status] = statuses.get(span.status, 0) + 1
                linked_faults += len(span.links)
            ends = [s.end for s in members if s.end is not None]
            summaries.append(
                {
                    "trace_id": trace_id,
                    "root": root.name,
                    "spans": len(members),
                    "statuses": statuses,
                    "start": min(s.start for s in members),
                    "end": max(ends) if ends else None,
                    "linked_faults": linked_faults,
                }
            )
        return summaries

    def export_jsonl(self, path: str) -> int:
        """Write every retained span as one JSON object per line."""
        write_jsonl(path, (span.as_dict() for span in self._spans.values()))
        return len(self._spans)


def trace_context_of(parent: ParentRef) -> Optional[TraceContext]:
    """Normalize a span or context tuple into a :data:`TraceContext`."""
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return (parent[0], parent[1])


__all__: Sequence[str] = (
    "CHANNEL_FRAME_MODES",
    "Span",
    "SpanEvent",
    "TraceContext",
    "Tracer",
    "trace_context_of",
)
