"""CPU model: a pool of cores on one machine.

A compute slice occupies one core for a fixed virtual duration.  Cores are
granted FIFO, which matches both engines' behaviour: Spark runs one task
thread per slot, and MonoSpark's compute scheduler runs one compute
monotask per core.  Busy time is tracked for utilization reporting.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import SimulationError
from repro.simulator.core import Environment, Event
from repro.simulator.resources import BusyTracker, Semaphore

__all__ = ["CpuPool"]


class CpuPool:
    """``cores`` identical cores with FIFO admission."""

    def __init__(self, env: Environment, cores: int, name: str = "cpu",
                 speed_factor: float = 1.0) -> None:
        if cores < 1:
            raise SimulationError(f"need at least one core: {cores}")
        if speed_factor <= 0:
            raise SimulationError(f"speed factor must be positive")
        self.env = env
        self.cores = cores
        self.name = name
        #: Relative core speed: 1.0 is nominal, 0.5 runs everything at
        #: half speed (hardware degradation / heterogeneity experiments).
        self.speed_factor = speed_factor
        self._sem = Semaphore(env, cores)
        self.tracker = BusyTracker(env, cores, name)
        #: Total core-seconds ever consumed (for accounting tests).
        self.total_busy_s = 0.0

    @property
    def queue_length(self) -> int:
        """Compute slices waiting for a core."""
        return self._sem.queue_length

    @property
    def cores_in_use(self) -> int:
        """Cores currently running a slice."""
        return self._sem.in_use

    def acquire(self) -> Event:
        """Claim a core; the caller must pair this with :meth:`release`."""
        event = self._sem.acquire()
        event.add_callback(lambda _: self.tracker.add(1))
        return event

    def release(self) -> None:
        """Return a core claimed with :meth:`acquire`."""
        self.tracker.remove(1)
        self._sem.release()

    def run(self, duration: float, owner: Optional[object] = None) -> Event:
        """Run a compute slice of ``duration`` seconds on one core.

        Returns an event that fires when the slice finishes.  ``owner`` is
        accepted for symmetry with the disk/network APIs (used by metrics
        wrappers); the pool itself does not interpret it.
        """
        _check_duration(duration)
        return self.env.process(self._run(duration))

    def _run(self, duration: float) -> Generator:
        yield self.acquire()
        try:
            yield self.env.timeout(self._charge(duration))
        finally:
            self.release()

    def slice(self, duration: float) -> Event:
        """Run a compute slice as :meth:`run` does, without its process.

        The core is claimed at the call, not one kernel step later, and
        the slice is driven by callbacks on the grant and the timeout:
        one kernel hop instead of a generator's resumes.
        """
        _check_duration(duration)
        env = self.env
        finished = env.event()

        def granted(_: Event) -> None:
            env.timeout(self._charge(duration)).callbacks.append(release)

        def release(_: Event) -> None:
            self.release()
            finished.succeed()

        self.acquire().callbacks.append(granted)
        return finished

    def _charge(self, duration: float) -> float:
        """Price ``duration`` at the current core speed and count it busy."""
        actual = duration / self.speed_factor
        self.total_busy_s += actual
        return actual


def _check_duration(duration: float) -> None:
    if duration < 0:
        raise SimulationError(f"negative compute duration: {duration}")
