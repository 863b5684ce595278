"""Per-resource monotask schedulers (§3.3).

Each scheduler runs "the minimum number of monotasks necessary to keep
the underlying resource fully utilized, and queues remaining monotasks":
one compute monotask per core, one disk monotask per spinning disk,
a configurable number per flash drive, and requests from a limited
number of multitasks on the network receiver.

Queues implement **round-robin over monotask phases** so that, e.g., a
convoy of disk writes cannot starve the disk reads that feed the CPU --
the exact scenario §3.3 ("Queueing monotasks") describes.  Contention is
visible as each scheduler's queue length.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Tuple

from repro.errors import (FaultError, Interrupted, MachineFailure,
                          SimulationError)
from repro.monospark.monotask import Monotask
from repro.simulator import Environment, Event, Process

__all__ = ["ResourceScheduler"]


class ResourceScheduler:
    """Admits at most ``concurrency`` monotasks; queues the rest.

    Dispatch calls :meth:`Monotask.start` and completes the monotask
    from a callback on the event it returns, so running a monotask
    costs no scheduler-side kernel process.
    """

    def __init__(self, env: Environment, concurrency: int, name: str,
                 round_robin_phases: bool = True,
                 prefer_phases_when=None) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"{name}: scheduler concurrency must be >= 1")
        self.env = env
        self.concurrency = concurrency
        self.name = name
        self.round_robin_phases = round_robin_phases
        #: Optional (predicate, phase-substring) pair: while the
        #: predicate holds, queues whose phase contains the substring are
        #: served first (the §3.5 memory-pressure write priority).
        self.prefer_phases_when = prefer_phases_when
        #: One (phase, queue) pair per phase, in first-seen order: the
        #: round-robin ring.  Phases are never removed.
        self._ring: List[Tuple[str, Deque[Monotask]]] = []
        self._queues: Dict[str, Deque[Monotask]] = {}
        self._rr_cursor = 0
        self._queued = 0
        self.running = 0
        #: Longest queue length seen (for contention reporting/tests).
        self.max_queue_length = 0
        #: Monotasks that finished successfully.
        self.completed = 0
        #: True after fail_all(): the machine is down and new monotasks
        #: are rejected immediately.
        self.dead = False
        #: Running monotask -> the completion event its start() returned.
        self._executing: Dict[Monotask, Event] = {}

    @property
    def queue_length(self) -> int:
        """Monotasks waiting (contention made visible, §3.1)."""
        return self._queued

    def submit(self, monotask: Monotask) -> None:
        """Enqueue a ready monotask; runs when the resource frees."""
        if self.dead:
            monotask.done.fail(MachineFailure(f"{self.name} is down"))
            return
        monotask.submitted_at = self.env.now
        phase = monotask.phase if self.round_robin_phases else "all"
        queue = self._queues.get(phase)
        if queue is None:
            queue = self._queues[phase] = deque()
            self._ring.append((phase, queue))
        queue.append(monotask)
        self._queued += 1
        if self._queued > self.max_queue_length:
            self.max_queue_length = self._queued
        self._dispatch()

    def _next_monotask(self) -> Monotask:
        """Pop from the next non-empty phase queue, round-robin; call
        only while :attr:`queue_length` is positive."""
        ring = self._ring
        if self.prefer_phases_when is not None:
            predicate, substring = self.prefer_phases_when
            if predicate():
                for phase, queue in ring:
                    if substring in phase and queue:
                        self._queued -= 1
                        return queue.popleft()
        size = len(ring)
        index = self._rr_cursor
        while not ring[index][1]:
            index = (index + 1) % size
        self._rr_cursor = (index + 1) % size
        self._queued -= 1
        return ring[index][1].popleft()

    def _dispatch(self) -> None:
        while self._queued and self.running < self.concurrency:
            monotask = self._next_monotask()
            self.running += 1
            monotask.started_at = self.env.now
            finished = monotask.start()
            self._executing[monotask] = finished
            finished.add_callback(partial(self._finish, monotask))

    def _finish(self, monotask: Monotask, finished: Event) -> None:
        if self._executing.pop(monotask, None) is None:
            # Killed by fail_all(): the abandoned request's outcome,
            # even a failure on the dead hardware, has no one to tell.
            finished.defused = True
            return
        self.running -= 1
        if finished._ok:
            self.completed += 1
            monotask.record()
            monotask.done.succeed()
        else:
            error = finished._value
            if not isinstance(error, (Interrupted, FaultError)):
                return  # a bug, not a fault: left undefused, it is raised
            # The monotask's I/O failed on dead hardware; its multitask
            # fails, not the simulation.
            finished.defused = True
            if not monotask.done.triggered:
                monotask.done.fail(error)
        self._dispatch()

    # -- fault handling -----------------------------------------------------------

    def fail_all(self) -> None:
        """Machine crash: reject the queue, kill executing monotasks.

        A killed compute or disk monotask fails one kernel step later,
        at the crash instant; the request it started is abandoned, not
        cancelled, so its core or disk stays busy until the request
        would have ended.  A multi-step monotask's process is
        interrupted where it waits, so it takes no further step; its
        failure completes it through :meth:`_finish`.
        """
        self.dead = True
        victims: List[Monotask] = []
        for _, queue in self._ring:
            victims.extend(queue)
            queue.clear()
        self._queued = 0
        for monotask in victims:
            if not monotask.done.triggered:
                monotask.done.fail(MachineFailure(f"{self.name} is down"))
        for monotask, finished in list(self._executing.items()):
            if isinstance(finished, Process):
                if finished.is_alive and finished.target is not None:
                    finished.interrupt(cause="machine-crash")
                continue
            kill = self.env.event()
            kill.callbacks.append(partial(self._kill, monotask))
            kill.succeed()

    def _kill(self, monotask: Monotask, _: Event) -> None:
        if self._executing.pop(monotask, None) is None:
            return  # finished before the kill was delivered
        self.running -= 1
        if not monotask.done.triggered:
            monotask.done.fail(Interrupted("machine-crash"))
        self._dispatch()

    def revive(self) -> None:
        """The machine restarted: accept monotasks again."""
        self.dead = False
