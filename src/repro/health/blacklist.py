"""The exclusion state machine: suspicion, exclusion, probation.

Pure bookkeeping with no simulation or engine dependencies, so its
decisions are trivially deterministic: the same tick inputs always
produce the same transitions.  Per machine::

    HEALTHY --suspect x SUSPICION_THRESHOLD--> EXCLUDED
    EXCLUDED --PROBATION_AFTER_S elapsed--> PROBATION
    PROBATION --clean x PROBATION_TICKS--> HEALTHY (reinstated)
    PROBATION --suspect on fresh data--> EXCLUDED (re-excluded)

Probation verdicts require *fresh* observations (probe attempts that
actually ran on the machine); stale pre-exclusion rates neither condemn
nor clear it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Blacklist", "HEALTHY", "EXCLUDED", "PROBATION"]

HEALTHY = "healthy"
EXCLUDED = "excluded"
PROBATION = "probation"

#: Consecutive suspect ticks before exclusion.
SUSPICION_THRESHOLD = 2
#: Seconds an exclusion lasts before probation begins.
PROBATION_AFTER_S = 30.0
#: Consecutive clean probation ticks before reinstatement.
PROBATION_TICKS = 2


@dataclass
class _MachineState:
    state: str = HEALTHY
    strikes: int = 0
    since: float = 0.0
    clean_ticks: int = 0


class Blacklist:
    """Tracks each machine's exclusion state across monitor ticks."""

    def __init__(self) -> None:
        self._machines: Dict[int, _MachineState] = {}

    def _entry(self, machine_id: int) -> _MachineState:
        entry = self._machines.get(machine_id)
        if entry is None:
            entry = self._machines[machine_id] = _MachineState()
        return entry

    def state(self, machine_id: int) -> str:
        """The machine's current state name."""
        return self._entry(machine_id).state

    def excluded_count(self) -> int:
        """Machines currently excluded or on probation."""
        return sum(1 for e in self._machines.values()
                   if e.state != HEALTHY)

    def observe(self, machine_id: int, suspect: bool, fresh: bool,
                now: float, can_exclude: bool = True) -> List[str]:
        """Fold one tick's verdict; returns the transitions to enact.

        ``suspect`` is this tick's median test result, ``fresh`` whether
        any new observations from the machine arrived since the last
        tick, ``can_exclude`` whether the exclusion budget allows
        another exclusion.  Possible returns: ``["suspect"]``,
        ``["exclude"]``, ``["probation"]``, ``["reinstate"]``, ``[]``.
        """
        entry = self._entry(machine_id)
        if entry.state == HEALTHY:
            if not suspect:
                entry.strikes = 0
                return []
            entry.strikes += 1
            if entry.strikes >= SUSPICION_THRESHOLD and can_exclude:
                entry.state = EXCLUDED
                entry.since = now
                entry.strikes = 0
                return ["exclude"]
            return ["suspect"]
        if entry.state == EXCLUDED:
            if now - entry.since >= PROBATION_AFTER_S - 1e-9:
                entry.state = PROBATION
                entry.since = now
                entry.clean_ticks = 0
                return ["probation"]
            return []
        # PROBATION: judge only on evidence gathered by probe attempts.
        if not fresh:
            return []
        if suspect:
            entry.state = EXCLUDED
            entry.since = now
            return ["exclude"]
        entry.clean_ticks += 1
        if entry.clean_ticks >= PROBATION_TICKS:
            entry.state = HEALTHY
            entry.strikes = 0
            return ["reinstate"]
        return []
