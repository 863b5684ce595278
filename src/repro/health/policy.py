"""The one setting of online gray-failure detection: its tick."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["HealthPolicy"]


@dataclass(frozen=True)
class HealthPolicy:
    """How often the health monitor decides whether a machine is
    fail-slow.

    Every tick the monitor compares each machine's observed per-resource
    rate to the cluster median; a machine whose rate falls below
    :data:`~repro.health.monitor.SLOW_FACTOR` of the median is
    *suspect*.  After :data:`~repro.health.blacklist.SUSPICION_THRESHOLD`
    consecutive suspect ticks the machine is excluded;
    :data:`~repro.health.blacklist.PROBATION_AFTER_S` seconds later it
    enters probation, where a bounded number of probe attempts generate
    fresh observations, and after
    :data:`~repro.health.blacklist.PROBATION_TICKS` consecutive clean
    ticks it is reinstated (a still-slow machine is re-excluded
    instead).  Those thresholds are fixed constants; only the tick
    interval is a setting.  All of them are deterministic functions of
    the simulation, so exclusion decisions replay byte-identically
    under the same seed.
    """

    #: Seconds between monitor ticks (the heartbeat interval).
    interval_s: float = 5.0

    def __post_init__(self) -> None:
        if not (self.interval_s > 0):
            raise ConfigError(f"interval_s must be > 0: {self.interval_s}")
