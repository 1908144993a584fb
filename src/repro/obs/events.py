"""Bounded structured event telemetry.

An :class:`EventLog` is the narrative companion to the metrics registry:
where counters say *how many* crashes happened, event records say *which
vehicle*, *when*, and *inside which trace*.  Records are immutable named
tuples with a subsystem, a severity, and free-form attributes, held in a
bounded ring (oldest evicted first, evictions counted explicitly) and
exportable as JSONL for offline analysis.  A run keeps every record
until export, so a record is one small tuple with no ``__dict__``.

Like the tracer, the log never touches the engine, RNG, or metrics —
emitting events cannot perturb a seeded run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, NamedTuple, Optional, Sequence

from .exporters import write_jsonl

#: Severities in increasing order of gravity.
SEVERITIES = ("debug", "info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class EventRecord(NamedTuple):
    """One structured telemetry event."""

    time: float
    subsystem: str
    name: str
    severity: str
    attrs: Mapping[str, Any]
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable flat view of the record."""
        return {
            "time": self.time,
            "subsystem": self.subsystem,
            "name": self.name,
            "severity": self.severity,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
        }


class EventLog:
    """A bounded, severity-filtered store of :class:`EventRecord`s."""

    def __init__(
        self,
        clock: Callable[[], float],
        max_events: int = 100_000,
        min_severity: str = "debug",
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        if min_severity not in _SEVERITY_RANK:
            raise ValueError(
                f"min_severity must be one of {SEVERITIES}, got {min_severity!r}"
            )
        self._clock = clock
        self.max_events = max_events
        self.min_severity = min_severity
        self._records: Deque[EventRecord] = deque()
        #: Records evicted by the ring bound (oldest-first eviction).
        self.evicted = 0
        #: Records filtered out below ``min_severity``.
        self.suppressed = 0

    def emit(
        self,
        subsystem: str,
        name: str,
        severity: str = "info",
        trace_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[EventRecord]:
        """Record one event; returns the record, or None when filtered."""
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}, expected one of {SEVERITIES}")
        if _SEVERITY_RANK[severity] < _SEVERITY_RANK[self.min_severity]:
            self.suppressed += 1
            return None
        record = EventRecord(self._clock(), subsystem, name, severity, attrs, trace_id)
        if len(self._records) >= self.max_events:
            self._records.popleft()
            self.evicted += 1
        self._records.append(record)
        return record

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[EventRecord]:
        """All retained records, oldest first."""
        return list(self._records)

    def query(
        self,
        subsystem: Optional[str] = None,
        severity: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[EventRecord]:
        """Retained records matching every given filter exactly."""
        return [
            r
            for r in self._records
            if (subsystem is None or r.subsystem == subsystem)
            and (severity is None or r.severity == severity)
            and (name is None or r.name == name)
        ]

    def count_by_severity(self) -> Dict[str, int]:
        """Retained record count per severity (only severities seen)."""
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.severity] = counts.get(record.severity, 0) + 1
        return counts

    # -- export -------------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write every retained record as one JSON object per line."""
        write_jsonl(path, (record.as_dict() for record in self._records))
        return len(self._records)


__all__: Sequence[str] = ("SEVERITIES", "EventLog", "EventRecord")
