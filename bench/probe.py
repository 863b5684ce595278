"""A host-speed probe: how fast this process's CPU is running right now.

The benchmark's hosts are shared virtual machines.  Their speed drifts
over minutes and flips within seconds between a normal state and one
about 1.8x slower, so a timing taken once before a repeat says little
about the seconds that follow.  A :class:`Probe` samples speed *during*
the measured section instead: a 20 Hz wall-clock timer signal runs a
fixed arithmetic loop and records how long it took.  ``run.py`` divides
each measured time by the slowdown the probe saw over the same interval,
giving host seconds at the reference host's quiet speed.

The loop touches no data structures and allocates nothing the garbage
collector tracks, so the simulator's heap and cache footprint do not
change its speed; it costs about 1% of the measured time.  Never edit
the loop, ``NOMINAL_S`` or ``SENSITIVITY``: every reported time is
relative to them.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

#: Mean loop time on the reference host (a quiet 2-vCPU Xeon VM,
#: Python 3.11): reported times are host seconds at this speed.
NOMINAL_S = 4.0e-4
#: The simulator slows more than the loop does.  On the reference host,
#: over about 290 repeats of three workloads, taken while the loop's
#: slowdown ranged from 1.0x to 2.7x, the simulator's slowdown fit the
#: loop's raised to this power best: against a power of 1 it cut the
#: spread of scaled times by a quarter or more, for the timed section
#: and for set-up alike.
SENSITIVITY = 1.3
INTERVAL_S = 0.05
_ITERATIONS = 8000


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class Probe:
    """Samples the loop every ``INTERVAL_S`` between start and stop."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(_spin())

    def start(self) -> None:
        """Begin sampling (installs a SIGALRM handler and timer)."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling and restore the previous SIGALRM handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, first: int = 0, last: Optional[int] = None) -> float:
        """The simulator's slowdown against the reference host, from the
        mean loop time over samples ``[first, last)``; all samples when
        that range is empty, and 1.0 when there are none."""
        window = self.samples[first:last] or self.samples
        if not window:
            return 1.0
        return (statistics.fmean(window) / NOMINAL_S) ** SENSITIVITY
