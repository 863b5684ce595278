"""Retry, backoff, and speculation settings for fault recovery.

The engines recover from injected faults (``repro.faults.plan``) the way
Spark does: failed attempts retry with bounded exponential backoff,
missing map output triggers lineage re-execution, and stragglers can be
speculatively duplicated.  Everything is a plain number here so a run is
reproducible from (workload, plan, policy, seed) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["RecoveryPolicy"]

#: Give up on a task after this many genuinely failed attempts
#: (killed attempts -- crashes, lost speculation races -- are free).
MAX_ATTEMPTS = 4
#: Fetch failures re-run lineage rather than burning attempts, but are
#: still bounded to catch unrecoverable shuffles.
MAX_FETCH_RETRIES = 8
#: Fraction of a stage's tasks that must have completed before any
#: running task can be called a straggler.
SPECULATION_MIN_COMPLETED_FRACTION = 0.5
#: A running task is overdue when it has run longer than
#: SPECULATION_MULTIPLIER x the SPECULATION_PERCENTILE of completed
#: durations.
SPECULATION_PERCENTILE = 0.75
SPECULATION_MULTIPLIER = 1.5


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engine responds to task failures and stragglers.

    All backoff fields are validated at construction: a NaN or negative
    delay would poison the event heap (``timeout(nan)`` compares as
    neither earlier nor later than anything), and an infinite or
    missing cap would let ``backoff_factor ** failures`` grow without
    bound across many retries.  ``backoff_max_s`` is that validated
    cap: no retry ever waits longer, however many attempts preceded it.

    The attempt and fetch-retry limits and the straggler test are fixed
    constants of this module (:data:`MAX_ATTEMPTS`,
    :data:`MAX_FETCH_RETRIES`, ``SPECULATION_*``), not settings.
    """

    #: Exponential backoff before retrying a failed attempt.
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    #: Hard cap on any single retry delay (the validated ``max_backoff``
    #: bound; must be finite and > 0).
    backoff_max_s: float = 10.0
    #: Speculation is off by default so fault-free runs are identical
    #: to runs without any recovery machinery.
    speculation: bool = False
    #: How often the stage monitor looks for stragglers.
    speculation_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.backoff_base_s)
                and self.backoff_base_s >= 0):
            raise ConfigError(
                f"backoff_base_s must be finite and >= 0: "
                f"{self.backoff_base_s}")
        if not (math.isfinite(self.backoff_factor)
                and self.backoff_factor >= 1.0):
            raise ConfigError(
                f"backoff_factor must be finite and >= 1: "
                f"{self.backoff_factor}")
        if not (math.isfinite(self.backoff_max_s)
                and self.backoff_max_s > 0):
            raise ConfigError(
                f"backoff_max_s must be finite and > 0: "
                f"{self.backoff_max_s}")
        if not (math.isfinite(self.speculation_interval_s)
                and self.speculation_interval_s > 0):
            raise ConfigError(
                f"speculation_interval_s must be finite and > 0: "
                f"{self.speculation_interval_s}")

    def backoff_s(self, failures: int) -> float:
        """Delay before retry number ``failures`` (1-based).

        Capped multiplicatively, so the exponent can never overflow no
        matter how many failures accumulate.
        """
        delay = self.backoff_base_s
        for _ in range(max(failures - 1, 0)):
            delay *= self.backoff_factor
            if delay >= self.backoff_max_s:
                return self.backoff_max_s
        return min(self.backoff_max_s, delay)
