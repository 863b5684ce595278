"""Exemplar-linked metrics: from a number to the job behind it.

An aggregate alone ("p99 latency is 3.1s") tells you *that* something
is slow, never *which request* to go look at.  Production metric
systems attach *exemplars* to hot series -- the trace/span id of a
recent, representative (usually worst) contributor.  The observability
plane does the same: whenever a served job completes, the worst recent
contributor per series key is remembered here, and a firing alert is
stamped with that exemplar, so ``repro obs alerts`` links straight to
the offending job's dominant critical-path span.

Everything is keyed the way the telemetry store keys series --
``(metric name, sorted label pairs)`` -- plus one reserved global key,
:data:`WORST_JOB_METRIC`, holding the worst job seen recently across
all tenants (the fallback when a rule's metric has no per-series
exemplar, e.g. an alert on a derived gauge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ObsError

__all__ = ["Exemplar", "ExemplarStore", "WORST_JOB_METRIC"]

Labels = Tuple[Tuple[str, str], ...]

#: Reserved series key for the globally worst recent job.
WORST_JOB_METRIC = "repro_obs_worst_job"

#: Recent exemplars retained per series key.
KEEP_PER_SERIES = 16


@dataclass(frozen=True)
class Exemplar:
    """One representative contributor behind a metric value.

    ``value`` is whatever makes it "worst" for its series (latency
    seconds for SLO series, dominant-segment seconds for the global
    key); ``trace_id``/``span_id`` point into the span collector;
    ``detail`` is a one-phrase human label ("job 7 network on machine
    1, 2.4s of critical path").
    """

    t: float
    value: float
    trace_id: str
    span_id: int
    detail: str = ""


class ExemplarStore:
    """Bounded per-series lists of recent exemplars.

    :data:`KEEP_PER_SERIES` recent exemplars are retained per key
    (newest last); :meth:`lookup` returns the *worst* (highest value)
    exemplar within ``window_s`` of now, so a firing alert links to the
    most representative recent offender, not merely the latest one.
    """

    def __init__(self, window_s: float = 120.0) -> None:
        if not window_s > 0:
            raise ObsError(f"window_s must be positive: {window_s!r}")
        self.window_s = window_s
        self._series: Dict[Tuple[str, Labels], List[Exemplar]] = {}

    def record(self, metric: str, labels: Labels,
               exemplar: Exemplar) -> None:
        """Remember one contributor for ``(metric, labels)``."""
        key = (metric, labels)
        bucket = self._series.setdefault(key, [])
        bucket.append(exemplar)
        del bucket[:-KEEP_PER_SERIES]

    def lookup(self, metric: str, labels: Labels,
               now: float) -> Optional[Exemplar]:
        """The worst recent exemplar for a series, with fallbacks.

        Tries the exact ``(metric, labels)`` key, then the metric with
        no labels, then the global :data:`WORST_JOB_METRIC` key; only
        exemplars within ``window_s`` of ``now`` qualify.  Ties on
        value break toward the newer exemplar.
        """
        for key in ((metric, labels), (metric, ()),
                    (WORST_JOB_METRIC, ())):
            bucket = self._series.get(key)
            if not bucket:
                continue
            recent = [e for e in bucket if now - e.t <= self.window_s]
            if not recent:
                continue
            return max(recent, key=lambda e: (e.value, e.t))
        return None

    def series(self) -> List[Tuple[str, Labels]]:
        """Every key holding at least one exemplar, sorted."""
        return sorted(self._series)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._series.values())
