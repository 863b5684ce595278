"""A unified, bounded, severity-leveled event journal.

The simulator already narrates itself through four disjoint record
streams -- injected faults (:class:`FaultEventRecord`), health-monitor
decisions (:class:`HealthEventRecord`, including integrity faults),
control-plane membership (:class:`DriverEventRecord`), and alert
lifecycle transitions (:class:`AlertEventRecord`).  Debugging an
incident means interleaving all of them by time; the journal does that
fold *online*, via the metrics collector's event-listener hook, into
one bounded stream of :class:`JournalEvent` rows with a uniform
``(t, severity, source, kind, subject, detail)`` shape.

The journal is bounded (oldest dropped first, with a drop counter, so
an always-on serving run cannot grow it without limit) and optionally
tees every event to a :class:`JsonlJournalSink` as it arrives.  Like
``JsonlSpanSink`` and run capsules, the sink writes through
:class:`repro.jsonl.JsonlWriter` -- one JSON object per line, encoded
in one shot, no trailing buffering, deterministic key order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import IO, List, Optional, Union

from repro.errors import ObsError
from repro.jsonl import JsonlWriter

__all__ = ["JournalEvent", "EventJournal", "JsonlJournalSink",
           "fold_event", "severity_of", "SEVERITY_ORDER", "JOURNAL_SCHEMA"]

#: Severity ranks, least to most urgent (journal filters compare ranks).
SEVERITY_ORDER = {"info": 0, "warning": 1, "critical": 2}

#: Version stamped into every JSONL line the journal sink writes.
JOURNAL_SCHEMA = 1

#: Fault kinds that mean lost state/work rather than degradation.
_FAULT_CRITICAL = ("crash", "failure", "partition")
_HEALTH_CRITICAL = ("exclude", "integrity-fault")
_HEALTH_WARNING = ("suspect", "heartbeat-miss", "probation")
_DRIVER_CRITICAL = ("driver-crash", "lost", "isolated")
_DRIVER_WARNING = ("election", "reassign", "driver-partition",
                   "heartbeat-miss", "replay")


def severity_of(source: str, record) -> str:
    """Map one source record to a journal severity.

    The mapping encodes "what would page": lost work and lost state are
    critical; degradation signals and recovery churn are warnings;
    bookkeeping (leader announcements, reinstatements, resolved alerts)
    is info.  Alert records carry their own severity when firing.
    """
    kind = getattr(record, "kind", "")
    if source == "fault":
        if any(word in kind for word in _FAULT_CRITICAL):
            return "critical"
        return "warning"
    if source == "health":
        if kind in _HEALTH_CRITICAL:
            return "critical"
        if kind in _HEALTH_WARNING:
            return "warning"
        return "info"
    if source == "driver":
        if kind in _DRIVER_CRITICAL:
            return "critical"
        if kind in _DRIVER_WARNING:
            return "warning"
        return "info"
    if source == "alert":
        if kind == "firing":
            return record.severity
        return "info"
    raise ObsError(f"unknown journal source {source!r}")


@dataclass
class JournalEvent:
    """One folded event: a uniform row whatever the original stream."""

    t: float
    severity: str
    #: Which stream it came from: fault | health | driver | alert.
    source: str
    kind: str
    #: What it is about: ``machine 1``, ``driver 0``, a rule+labels key.
    subject: str
    detail: str = ""
    #: Exemplar link carried over from alert records (-1 = none).
    span_id: int = -1
    trace_id: str = ""

    def to_dict(self) -> dict:
        """A JSON-ready dict with deterministic field order."""
        return asdict(self)

    def format(self) -> str:
        """One aligned human line (``repro obs events`` output)."""
        link = f" span={self.trace_id}/{self.span_id}" \
            if self.span_id >= 0 else ""
        detail = f": {self.detail}" if self.detail else ""
        return (f"[{self.t:9.3f}] {self.severity.upper():8s} "
                f"{self.source}/{self.kind} {self.subject}{detail}{link}")


def _fold(source: str, record) -> JournalEvent:
    """Build the uniform row for one source record."""
    severity = severity_of(source, record)
    at = getattr(record, "at")
    if source == "fault":
        return JournalEvent(
            t=at, severity=severity, source=source, kind=record.kind,
            subject=f"machine {record.machine_id}", detail=record.detail)
    if source == "health":
        subject = f"machine {record.machine_id}"
        if record.resource:
            subject += f" {record.resource}"
        return JournalEvent(
            t=at, severity=severity, source=source, kind=record.kind,
            subject=subject, detail=record.detail)
    if source == "driver":
        subject = f"driver {record.driver_id}"
        if record.peer_id >= 0:
            subject += f" peer {record.peer_id}"
        if record.tenant:
            subject += f" tenant {record.tenant}"
        return JournalEvent(
            t=at, severity=severity, source=source, kind=record.kind,
            subject=subject, detail=record.detail)
    # source == "alert" (severity_of already rejected anything else)
    subject = record.rule
    if record.labels:
        subject += f"{{{record.labels}}}"
    return JournalEvent(
        t=at, severity=severity, source=source, kind=record.kind,
        subject=subject, detail=record.detail, span_id=record.span_id,
        trace_id=record.trace_id)


#: Public name for the fold (capsule recorders fold the same streams).
fold_event = _fold


class EventJournal:
    """Bounded fold of every event stream, in arrival order.

    Arrival order equals time order here because every producer records
    events at its own simulated ``now`` and the collector notifies
    listeners synchronously.  ``capacity`` bounds retained rows (oldest
    dropped first; :attr:`dropped` counts casualties); ``sink`` tees
    each row out as it arrives, so a bounded journal can still leave a
    complete JSONL audit trail on disk.
    """

    def __init__(self, capacity: int = 4096,
                 sink: Optional["JsonlJournalSink"] = None) -> None:
        if capacity < 1:
            raise ObsError(f"journal capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.sink = sink
        self._events: List[JournalEvent] = []
        self.dropped = 0
        self.total = 0

    def observe(self, source: str, record) -> JournalEvent:
        """Fold one source record in (the collector-listener entry)."""
        event = self._fold_and_append(_fold(source, record))
        return event

    def append(self, event: JournalEvent) -> JournalEvent:
        """Append an already-folded row (synthetic/bridge events)."""
        return self._fold_and_append(event)

    def _fold_and_append(self, event: JournalEvent) -> JournalEvent:
        self._events.append(event)
        self.total += 1
        overflow = len(self._events) - self.capacity
        if overflow > 0:
            del self._events[:overflow]
            self.dropped += overflow
        if self.sink is not None:
            self.sink.write(event)
        return event

    def events(self, min_severity: str = "info",
               source: Optional[str] = None) -> List[JournalEvent]:
        """Retained rows at or above a severity, optionally per source."""
        floor = SEVERITY_ORDER.get(min_severity)
        if floor is None:
            raise ObsError(
                f"unknown severity {min_severity!r}; use one of "
                f"{sorted(SEVERITY_ORDER, key=SEVERITY_ORDER.get)}")
        return [e for e in self._events
                if SEVERITY_ORDER[e.severity] >= floor
                and (source is None or e.source == source)]

    def __len__(self) -> int:
        return len(self._events)

    def format(self, min_severity: str = "info",
               source: Optional[str] = None) -> str:
        """The filtered journal as aligned human-readable lines."""
        rows = self.events(min_severity=min_severity, source=source)
        if not rows:
            return "(journal empty)"
        return "\n".join(event.format() for event in rows)


class JsonlJournalSink(JsonlWriter):
    """Streams journal rows to a JSON-lines file as they happen.

    A :class:`repro.jsonl.JsonlWriter`, like ``repro.trace.JsonlSpanSink``:
    one compact JSON object per line stamped with :data:`JOURNAL_SCHEMA`,
    on a path or a borrowed handle; idempotent :meth:`close`, usable as
    a context manager, and rows arriving after close are dropped.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]]) -> None:
        super().__init__(path_or_handle, JOURNAL_SCHEMA)

    @property
    def written(self) -> int:
        """Rows written so far."""
        return sum(self.counts.values())

    def write(self, event: JournalEvent) -> None:
        """Serialize one row (no-op after close)."""
        self.write_record(event.to_dict())
