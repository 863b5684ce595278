"""A minimal discrete-event simulation kernel.

This module implements the event loop that every other part of the library
runs on: a monotonically advancing virtual clock, a priority queue of
pending events, and generator-based processes in the style of SimPy.

Only the features the frameworks need are implemented, which keeps the
kernel small enough to reason about and test exhaustively:

* :class:`Environment` -- the clock and event queue.
* :class:`Event` -- a one-shot occurrence that callbacks can wait on.
* :class:`Timeout` -- an event that fires after a virtual delay.
* :class:`Process` -- a generator that yields events; it resumes when the
  yielded event fires and is itself an event that fires when the generator
  returns.
* :class:`AllOf` / :class:`AnyOf` -- barrier and race combinators.

Determinism: events scheduled for the same time fire in scheduling order
(a monotone sequence number breaks ties), so a simulation is a pure
function of its inputs and seeds.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import EmptySchedule, Interrupted, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
]

_PENDING = object()


def _defuse_if_failed(event: "Event") -> None:
    """Callback that absorbs a failure nobody is waiting for anymore."""
    if not event._ok:
        event.defused = True


class Event:
    """A one-shot occurrence on an :class:`Environment`.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (at which point it is placed on the event
    queue), and *processed* once the environment has run its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set to True by a waiting process to mark a failure as handled.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (raises while still pending)."""
        if not self.triggered:
            raise SimulationError("value of a pending event is not available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result (raises while still pending)."""
        if self._value is _PENDING:
            raise SimulationError("value of a pending event is not available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A failed event propagates the exception into every process waiting
        on it, unless a callback defuses it first.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, which makes waiting on completed events safe.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


_INF = float("inf")


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Field assignment is inlined (no ``super().__init__``): one Timeout
    is created per scheduled wakeup, which makes this one of the hottest
    constructors in the simulator.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # `not (delay >= 0)` also catches NaN, whose comparisons are all
        # False; inf would enqueue an event that can never fire and hang
        # run() forever, so both are structural errors.
        if not (delay >= 0) or delay == _INF:
            raise SimulationError(f"invalid timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        env._enqueue(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self.defused = False
        env._enqueue(self)


class Interruption(Event):
    """Internal event that throws :class:`Interrupted` into a process."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a completed process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self._ok = False
        self._value = Interrupted(cause)
        self.defused = True
        self.callbacks.append(process._resume_interrupt)
        self.env._enqueue(self)


class Process(Event):
    """Wraps a generator so it can drive, and be awaited as, an event.

    The generator yields :class:`Event` instances.  Each time a yielded
    event fires, the generator resumes with the event's value (or the
    event's exception is thrown into it).  When the generator returns, the
    process event succeeds with the return value; an uncaught exception
    fails the process event.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        Interruption(self, cause)

    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # Completed before the interruption was delivered.
        # Detach from whatever the process was waiting on: the interrupt
        # supersedes it, and the stale wakeup must not resume us later.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                # If the abandoned target later *fails*, nobody is left to
                # handle it; defuse so the stale failure cannot crash the
                # run (this is what makes killing speculative attempts and
                # crashed-machine work safe).
                self._target.add_callback(_defuse_if_failed)
        self._resume(event)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            if event._ok:
                try:
                    next_target = self._generator.send(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break
            else:
                event.defused = True
                try:
                    next_target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_target!r}")
                event = Event(self.env)
                event._ok = False
                event._value = exc
                continue
            callbacks = next_target.callbacks
            if callbacks is None:
                # Already processed: loop around with its outcome.
                event = next_target
                continue
            self._target = next_target
            callbacks.append(self._resume)
            break
        self.env._active_process = None

    def _finish_ok(self, value: Any) -> None:
        self._target = None
        self._ok = True
        self._value = value
        self.env._enqueue(self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._target = None
        self._ok = False
        self._value = exc
        self.env._enqueue(self)


class _Condition(Event):
    """Shared machinery for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        self._remaining = len(self.events)
        if not self.events:
            self._ok = True
            self._value = []
            env._enqueue(self)
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every event has succeeded; fails fast on any failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Already failed fast (or a waiter was interrupted away): a
            # late failure among the remaining events has no handler left.
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Succeeds (or fails) with the outcome of the first event to fire."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The race is settled; losers that fail late have no handler.
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused = True
            self.fail(event._value)


class Environment:
    """The discrete-event simulation clock and event queue.

    The queue is a two-tier hybrid: events triggered *now* (the
    overwhelmingly common case -- ``succeed()``, process completion,
    condition resolution) go to a plain FIFO deque, and only genuine
    timeouts pay for the binary heap.  Virtual time never moves
    backward, so the deque is always sorted by ``(time, seq)`` and the
    true next event is whichever of the two heads compares smaller --
    exactly the order the old single heap produced, at O(1) instead of
    O(log n) per immediate event.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Future events: a binary heap of (time, seq, event) tuples.
        self._heap: list[tuple[float, int, Event]] = []
        #: Zero-delay events, FIFO.  Entries carry the same (time, seq,
        #: event) shape so the two heads compare directly.
        self._immediate: deque[tuple[float, int, Event]] = deque()
        #: Monotone sequence number: breaks same-time ties in scheduling
        #: order, which is what makes runs deterministic.
        self._seq = 0
        self._active_process: Optional[Process] = None

    @property
    def events_scheduled(self) -> int:
        """Total events ever enqueued -- regression guard for code that
        used to leak superseded waiter processes into the heap."""
        return self._seq

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    @property
    def queue_size(self) -> int:
        """Events currently scheduled (triggered but not yet processed)."""
        return len(self._heap) + len(self._immediate)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier: fires when every event has fired (fails fast)."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race: fires with the first event's outcome."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._immediate.append((self._now, seq, event))
        else:
            heappush(self._heap, (self._now + delay, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._immediate:
            when = self._immediate[0][0]
            if self._heap and self._heap[0][0] < when:
                return self._heap[0][0]
            return when
        if self._heap:
            return self._heap[0][0]
        return float("inf")

    def step(self) -> None:
        """Process the single next event."""
        immediate = self._immediate
        heap = self._heap
        if immediate:
            if heap and heap[0] < immediate[0]:
                when, _, event = heappop(heap)
            else:
                when, _, event = immediate.popleft()
        elif heap:
            when, _, event = heappop(heap)
        else:
            raise EmptySchedule("no scheduled events")
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: "Event | float | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until the clock reaches that time), or an :class:`Event` (run
        until it fires, returning its value).  The cyclic garbage
        collector is paused while events dispatch and left on return as
        it was found.
        """
        stop_value: Any = None
        if isinstance(until, Event):
            if until.processed:
                return until.value

            def _stop(event: Event) -> None:
                raise StopSimulation(event)

            until.add_callback(_stop)
            deadline = float("inf")
        elif until is None:
            deadline = float("inf")
        else:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self._now})")

        immediate = self._immediate
        heap = self._heap
        # The loop creates no cyclic garbage (docs/kernel.md), so the
        # cyclic collector would only rescan the retained result heap.
        # Pause it, and leave it as found: a nested run() sees it paused.
        collecting = gc.isenabled()
        gc.disable()
        try:
            if deadline == float("inf"):
                # Hot loop: no deadline to check, so pop-and-dispatch
                # with everything bound locally.
                while True:
                    if immediate:
                        if heap and heap[0] < immediate[0]:
                            when, _, event = heappop(heap)
                        else:
                            when, _, event = immediate.popleft()
                    elif heap:
                        when, _, event = heappop(heap)
                    else:
                        break
                    self._now = when
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
            else:
                while (immediate or heap) and self.peek() <= deadline:
                    self.step()
        except StopSimulation as stop:
            event = stop.value
            if not event._ok:
                raise event._value
            return event._value
        finally:
            if collecting:
                gc.enable()
        if deadline != float("inf"):
            self._now = deadline
        if isinstance(until, Event) and not until.processed:
            raise SimulationError("run() ended before the awaited event fired")
        return stop_value
