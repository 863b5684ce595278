"""A unified, bounded, severity-leveled event journal.

The simulator narrates itself through one stream of incident records,
:class:`repro.metrics.events.Event`: injected faults, health-monitor
decisions (including integrity faults), control-plane membership and
alert lifecycle transitions.  Each record reports its own uniform view
(``t, severity, source, kind, subject, detail``); debugging an incident
means reading them in time order, and the journal keeps them *online*,
via the metrics collector's event-listener hook.

The journal is bounded (oldest dropped first, with a drop counter, so
an always-on serving run cannot grow it without limit).  The complete
stream persists in a run capsule (:class:`repro.xray.RunRecorder`),
one ``journal`` line per event holding :meth:`Event.journal_row`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import ObsError
from repro.metrics.events import Event

__all__ = ["EventJournal", "SEVERITY_ORDER"]

#: Severity ranks, least to most urgent (journal filters compare ranks).
SEVERITY_ORDER = {"info": 0, "warning": 1, "critical": 2}


class EventJournal:
    """Bounded view of the event stream, in arrival order.

    Arrival order equals time order here because every producer records
    events at its own simulated ``now`` and the collector notifies
    listeners synchronously.  ``capacity`` bounds retained events
    (oldest dropped first; :attr:`dropped` counts casualties).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ObsError(f"journal capacity must be >= 1: {capacity}")
        self.capacity = capacity
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

