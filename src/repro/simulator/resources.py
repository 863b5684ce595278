"""Synchronization and measurement primitives built on the event kernel.

These are the building blocks the hardware models and frameworks share:

* :class:`Store` -- an unbounded or bounded FIFO channel of items.
* :class:`Semaphore` -- counted admission control (cores, disk slots...).
* :class:`BusyTracker` -- records how many units of a resource are busy
  over time, from which utilization time series are derived.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.simulator.core import Environment, Event

__all__ = ["Store", "Semaphore", "BusyTracker"]


class Store:
    """A FIFO channel: producers ``put`` items, consumers ``get`` events.

    ``capacity`` bounds the number of buffered items; ``put`` returns an
    event that does not fire until there is room.  An unbounded store
    (the default) completes puts immediately.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Buffer ``item``; the event fires once there is room."""
        event = self.env.event()
        if len(self.items) < self.capacity:
            self._deliver(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """The event fires with the next item, FIFO."""
        event = self.env.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def _deliver(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def _admit_waiting_putter(self) -> None:
        if self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self._deliver(item)
            event.succeed()


class Semaphore:
    """Counted admission control with FIFO waiting.

    ``acquire`` returns an event that fires once a unit is available; the
    holder must call ``release`` exactly once.
    """

    def __init__(self, env: Environment, units: int) -> None:
        if units < 1:
            raise SimulationError(f"semaphore needs at least one unit: {units}")
        self.env = env
        self.units = units
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Units not currently held."""
        return self.units - self.in_use

    @property
    def queue_length(self) -> int:
        """Acquirers currently waiting."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """The event fires once a unit is granted (FIFO order)."""
        event = self.env.event()
        if self.in_use < self.units:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a unit, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class BusyTracker:
    """Step-function record of how many units of a resource are busy.

    The tracker stores change points as three flat arrays (times, busy
    levels, prefix sums of busy unit-seconds), so any window query is two
    bisects instead of a scan from t=0.  Utilization over a window and
    full time series are computed by :mod:`repro.metrics.utilization`
    from these change points.

    With a ``retention_s`` horizon set (the telemetry retention window,
    see :meth:`set_retention`), change points older than twice the
    horizon are compacted away into a checkpoint ``(first change time,
    busy-seconds before it)``.  Totals measured from the tracker's
    creation time stay exact; window queries that reach *inside* the
    compacted region prorate the checkpointed mass uniformly (documented
    approximation -- everything within the retention horizon is exact).
    """

    __slots__ = ("env", "units", "name", "busy", "_times", "_levels",
                 "_cum", "_cum0", "_origin", "retention_s")

    def __init__(self, env: Environment, units: int, name: str = "",
                 retention_s: Optional[float] = None) -> None:
        self.env = env
        self.units = units
        self.name = name
        self.busy = 0
        #: From ``_times[i]`` on, ``_levels[i]`` units are busy;
        #: ``_cum[i]`` = busy unit-seconds from ``_times[0]`` to it.
        self._times = array("d", (env.now,))
        self._levels = array("q", (0,))
        self._cum = array("d", (0.0,))
        #: Busy unit-seconds compacted away before ``_times[0]``.
        self._cum0 = 0.0
        #: Time the tracker started observing (usually 0.0).
        self._origin = env.now
        self.retention_s = None
        self.set_retention(retention_s)

    def __len__(self) -> int:
        """Retained change points (bounded when a horizon is set)."""
        return len(self._times)

    def set_retention(self, retention_s: Optional[float]) -> None:
        """Bound retained change points to roughly ``retention_s`` of
        history (pass ``None`` to retain everything)."""
        if retention_s is not None and not retention_s > 0:
            raise SimulationError(
                f"{self.name}: retention must be positive, got {retention_s!r}")
        self.retention_s = retention_s

    def add(self, delta: int = 1) -> None:
        """Mark ``delta`` more units busy from now on."""
        busy = self.busy + delta
        if busy < 0:
            raise SimulationError(f"{self.name}: busy count went negative")
        self.busy = busy
        self._record()

    def remove(self, delta: int = 1) -> None:
        """Mark ``delta`` units idle again."""
        self.add(-delta)

    def set_busy(self, busy: int) -> None:
        """Set the absolute busy-unit count."""
        if busy < 0:
            raise SimulationError(f"{self.name}: busy count went negative")
        self.busy = busy
        self._record()

    def _record(self) -> None:
        now = self.env.now
        times, levels = self._times, self._levels
        t_last = times[-1]
        if t_last == now:
            levels[-1] = self.busy
        else:
            self._cum.append(self._cum[-1] + levels[-1] * (now - t_last))
            times.append(now)
            levels.append(self.busy)
            retention = self.retention_s
            if retention is not None and times[0] < now - 2.0 * retention:
                self._compact(now - retention)

    def _compact(self, horizon: float) -> None:
        """Fold change points strictly before ``horizon`` into the
        checkpoint, keeping the last one at-or-before it as the new
        first point (its busy level is in effect at the horizon)."""
        idx = bisect_right(self._times, horizon) - 1
        if idx <= 0:
            return
        base = self._cum[idx]
        self._cum0 += base
        del self._times[:idx], self._levels[:idx]
        self._cum = array("d", [c - base for c in self._cum[idx:]])

    def _integral(self, t: float) -> float:
        """Busy unit-seconds from the tracker origin to time ``t``."""
        times = self._times
        t0 = times[0]
        if t <= t0:
            # Inside (or before) the compacted region: prorate the
            # checkpointed mass uniformly over [origin, t0].
            span = t0 - self._origin
            if span <= 0.0 or t <= self._origin:
                return 0.0
            return self._cum0 * ((t - self._origin) / span)
        i = bisect_right(times, t) - 1
        return self._cum0 + self._cum[i] + self._levels[i] * (t - times[i])

    def busy_time(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Total busy unit-seconds in ``[start, end]``."""
        if end is None:
            end = self.env.now
        if end <= start:
            return 0.0
        return self._integral(end) - self._integral(start)

    def busy_integrals(self, times: Sequence[float]) -> List[float]:
        """Busy unit-seconds from the origin to each of ``times``.

        ``times`` must be non-decreasing; the result is computed in one
        merged sweep over the change points, so sampling W window edges
        costs O(W + n) rather than W independent scans.
        """
        points, levels, cum = self._times, self._levels, self._cum
        n = len(points)
        t0 = points[0]
        out: List[float] = []
        i = 0  # index of the last change point at or before t
        for t in times:
            if t <= t0:
                span = t0 - self._origin
                if span <= 0.0 or t <= self._origin:
                    out.append(0.0)
                else:
                    out.append(self._cum0 * ((t - self._origin) / span))
                continue
            while i + 1 < n and points[i + 1] <= t:
                i += 1
            out.append(self._cum0 + cum[i] + levels[i] * (t - points[i]))
        return out

    def utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean fraction of units busy over ``[start, end]``."""
        if end is None:
            end = self.env.now
        window = end - start
        if window <= 0:
            return 0.0
        return self.busy_time(start, end) / (self.units * window)
