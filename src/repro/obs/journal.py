"""A unified, bounded, severity-leveled event journal.

The simulator narrates itself through one stream of incident records,
:class:`repro.metrics.events.Event`: injected faults, health-monitor
decisions (including integrity faults), control-plane membership and
alert lifecycle transitions.  Each record reports its own uniform view
(``t, severity, source, kind, subject, detail``); debugging an incident
means reading them in time order, and the journal keeps them *online*,
via the metrics collector's event-listener hook.

The journal is bounded (oldest dropped first, with a drop counter, so
an always-on serving run cannot grow it without limit) and optionally
tees every event to a :class:`JsonlJournalSink` as it arrives.  Like
``JsonlSpanSink`` and run capsules, the sink writes through
:class:`repro.jsonl.JsonlWriter` -- one JSON object per line, encoded
in one shot, no trailing buffering, deterministic key order.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Deque, List, Optional, Union

from repro.errors import ObsError
from repro.jsonl import JsonlWriter
from repro.metrics.events import Event

__all__ = ["EventJournal", "JsonlJournalSink", "SEVERITY_ORDER",
           "JOURNAL_SCHEMA"]

#: Severity ranks, least to most urgent (journal filters compare ranks).
SEVERITY_ORDER = {"info": 0, "warning": 1, "critical": 2}

#: Version stamped into every JSONL line the journal sink writes.
JOURNAL_SCHEMA = 1


class EventJournal:
    """Bounded view of the event stream, in arrival order.

    Arrival order equals time order here because every producer records
    events at its own simulated ``now`` and the collector notifies
    listeners synchronously.  ``capacity`` bounds retained events
    (oldest dropped first; :attr:`dropped` counts casualties); ``sink``
    tees each row out as it arrives, so a bounded journal can still
    leave a complete JSONL audit trail on disk.
    """

    def __init__(self, capacity: int = 4096,
                 sink: Optional["JsonlJournalSink"] = None) -> None:
        if capacity < 1:
            raise ObsError(f"journal capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.sink = sink
        self._events: Deque[Event] = deque(maxlen=capacity)
        self.total = 0

    @property
    def dropped(self) -> int:
        """Events pushed out by the capacity bound."""
        return self.total - len(self._events)

    def observe(self, event: Event) -> None:
        """Keep one event (the collector-listener entry)."""
        self._events.append(event)
        self.total += 1
        if self.sink is not None:
            self.sink.write(event)

    def events(self, min_severity: str = "info",
               source: Optional[str] = None) -> List[Event]:
        """Retained events at or above a severity, optionally per source."""
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

    def write(self, event: Event) -> None:
        """Serialize one event's row (no-op after close)."""
        self.write_record(event.journal_row())
