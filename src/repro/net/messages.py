"""Message model for V2V / V2I communication.

A :class:`Message` is the unit handed to the wireless channel.  The
``path`` field accumulates the ids of nodes that relayed the message —
this is the provenance the trust layer's routing-path-similarity check
uses, and the thing attacks like MITM silently extend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..ids import next_id

BROADCAST = "*"


class MessageKind(enum.Enum):
    """Semantic categories of traffic on the v-cloud air interface."""

    HELLO = "hello"  # periodic beacons
    DATA = "data"  # routed application payloads
    EVENT_REPORT = "event_report"  # trust-layer event observations
    AUTH = "auth"  # authentication handshakes
    ACCESS = "access"  # authorization requests / grants
    TASK = "task"  # task assignment / results
    CONTROL = "control"  # cluster / cloud management
    MODE = "mode"  # operating-mode changes


@dataclass(frozen=True)
class SecurityEnvelope:
    """Security metadata attached to a message.

    ``claimed_identity`` is whatever identity the sender put on the air
    (a pseudonym, a group tag, or a bare id); ``signature`` is an opaque
    object produced by the crypto layer; ``nonce``/``timestamp`` feed the
    replay defence.
    """

    claimed_identity: str
    signature: Optional[object] = None
    nonce: str = ""
    timestamp: float = 0.0
    extra_bytes: int = 0


@dataclass(frozen=True)
class Message:
    """An immutable frame payload travelling on the channel."""

    kind: MessageKind
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 200
    created_at: float = 0.0
    ttl_hops: int = 16
    msg_id: str = field(default_factory=lambda: f"msg-{next_id('message')}")
    path: Tuple[str, ...] = ()
    envelope: Optional[SecurityEnvelope] = None
    #: Causal-trace context ``(trace_id, span_id)`` stamped by whoever
    #: originated the message's journey.  ``forwarded_by``/``replace``
    #: copies preserve it, so the same trace id survives multi-hop
    #: routing and task handovers — how the observability layer stitches
    #: a message's whole lifecycle into one trace.
    trace_ctx: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        if self.ttl_hops < 0:
            raise ConfigurationError("ttl_hops must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Payload size plus any security-envelope overhead."""
        extra = self.envelope.extra_bytes if self.envelope is not None else 0
        return self.size_bytes + extra

    @property
    def hop_count(self) -> int:
        """Number of relays recorded so far."""
        return len(self.path)

    def is_broadcast(self) -> bool:
        """Return True if addressed to every node in range."""
        return self.dst == BROADCAST

    def forwarded_by(self, node_id: str) -> "Message":
        """Return a copy with ``node_id`` appended to the relay path."""
        return replace(self, path=self.path + (node_id,), ttl_hops=self.ttl_hops - 1)

    @property
    def trace_id(self) -> Optional[str]:
        """The causal trace this message belongs to, if traced."""
        return self.trace_ctx[0] if self.trace_ctx is not None else None

    def with_trace(self, ctx: Optional[Tuple[str, str]]) -> "Message":
        """Return a copy stamped with a ``(trace_id, span_id)`` context."""
        return replace(self, trace_ctx=ctx)

    def with_envelope(self, envelope: SecurityEnvelope) -> "Message":
        """Return a copy carrying the given security envelope."""
        return replace(self, envelope=envelope)

    def with_payload(self, **updates: Any) -> "Message":
        """Return a copy with payload keys merged/overridden."""
        merged = dict(self.payload)
        merged.update(updates)
        return replace(self, payload=merged)

    def expired(self) -> bool:
        """Return True once the hop budget is exhausted."""
        return self.ttl_hops <= 0


def hello_message(
    src: str,
    position: Tuple[float, float],
    speed_mps: float,
    heading_rad: float,
    created_at: float,
) -> Message:
    """Build a standard HELLO beacon."""
    return Message(
        kind=MessageKind.HELLO,
        src=src,
        dst=BROADCAST,
        payload={
            "position": position,
            "speed_mps": speed_mps,
            "heading_rad": heading_rad,
        },
        size_bytes=120,
        created_at=created_at,
        ttl_hops=0,
    )


def data_message(
    src: str,
    dst: str,
    size_bytes: int,
    created_at: float,
    payload: Optional[Dict[str, Any]] = None,
    ttl_hops: int = 16,
) -> Message:
    """Build a routed DATA message."""
    return Message(
        kind=MessageKind.DATA,
        src=src,
        dst=dst,
        payload=payload if payload is not None else {},
        size_bytes=size_bytes,
        created_at=created_at,
        ttl_hops=ttl_hops,
    )
