"""Per-machine memory accounting.

The paper notes (§3.5, §8) that MonoSpark materializes whole task inputs
and outputs in memory between monotasks, so it uses more memory than
Spark's record-at-a-time pipelining.  We track allocations so experiments
can report peak usage per engine; by default exceeding capacity is
*recorded* rather than fatal (the paper's prototype does not regulate
memory either), but a strict mode raises for tests that want the guard.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.errors import OutOfMemoryError, SimulationError
from repro.simulator.core import Environment

__all__ = ["MemoryPool"]


class MemoryPool:
    """Tracks bytes of task data resident in one machine's heap."""

    def __init__(self, env: Environment, capacity_bytes: float,
                 name: str = "memory", strict: bool = False) -> None:
        if capacity_bytes <= 0:
            raise SimulationError(f"memory capacity must be positive")
        self.env = env
        self.capacity = capacity_bytes
        self.name = name
        self.strict = strict
        self.used = 0.0
        self.peak = 0.0
        self.overcommit_events = 0
        # (time, used) change points, as two columns; one point per
        # instant, the last change at that instant.
        self._times = array("d", (env.now,))
        self._used = array("d", (0.0,))

    def acquire(self, nbytes: float) -> None:
        """Account for ``nbytes`` of new resident data."""
        if nbytes < 0:
            raise SimulationError(f"negative allocation: {nbytes}")
        self.used += nbytes
        if self.used > self.capacity:
            self.overcommit_events += 1
            if self.strict:
                self.used -= nbytes
                raise OutOfMemoryError(
                    f"{self.name}: {self.used + nbytes:.0f} bytes requested "
                    f"of {self.capacity:.0f} capacity")
        self.peak = max(self.peak, self.used)
        self._record()

    def release(self, nbytes: float) -> None:
        """Account for ``nbytes`` of data leaving memory."""
        if nbytes < 0:
            raise SimulationError(f"negative release: {nbytes}")
        self.used -= nbytes
        # Tolerance scales with peak usage: thousands of float adds and
        # subtracts at GB magnitudes accumulate rounding error.
        tolerance = 1e-3 + self.peak * 1e-9
        if self.used < -tolerance:
            raise SimulationError(f"{self.name}: released more than acquired")
        self.used = max(0.0, self.used)
        self._record()

    @property
    def timeline(self) -> List[Tuple[float, float]]:
        """(time, used) change points for plotting memory pressure: a
        list built from the columns."""
        return list(zip(self._times, self._used))

    def _record(self) -> None:
        now = self.env.now
        if self._times[-1] == now:
            self._used[-1] = self.used
        else:
            self._times.append(now)
            self._used.append(self.used)
