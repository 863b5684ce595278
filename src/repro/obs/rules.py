"""Declarative alert rules evaluated over telemetry windows.

Three rule families, mirroring what production monitoring stacks
express as recording + alerting rules:

* :class:`ThresholdRule` -- a windowed aggregate of one metric crosses
  a bound (``mean(repro_resource_queue_depth[15s]) >= 12``).  The rule
  is evaluated once per labeled series of its metric, so one rule over
  ``repro_obs_source_network_relrate`` yields per-machine alerts that
  *name the machine* in their label key.
* :class:`AbsenceRule` -- staleness: a series stopped being sampled (or
  never appeared).  The watchdog for the telemetry pipeline itself.
* :class:`BurnRateRule` -- SRE-style multi-window error-budget burn on
  per-tenant SLO attainment.  Burn rate is ``error_rate / budget``
  where ``budget = 1 - objective``; a window *pair* (short, long) fires
  only when **both** windows burn past the pair's threshold -- the
  short window gives fast detection and fast resolution, the long one
  filters blips.  Defaults follow the SRE workbook's page thresholds
  (14.4x over the fast pair, 6x over the slow pair), scaled to
  simulated seconds: fast 5s/1m, slow 30s/6m.

Every rule carries ``for_s`` (a pending hold before firing, like
Prometheus ``for:``) and a severity.  Rules are frozen dataclasses:
an alert timeline is a deterministic function of (rules, telemetry),
never of evaluation-order accidents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ObsError

__all__ = ["ThresholdRule", "AbsenceRule", "BurnRateRule", "OPS",
           "SEVERITIES", "rule_kind", "validate_rule",
           "exemplar_metric_of"]

#: Comparison operators a threshold rule may use.
OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
}

#: Recognized severities, least to most urgent.
SEVERITIES = ("info", "warning", "critical")


def _check_common(name: str, severity: str, for_s: float) -> None:
    if not name:
        raise ObsError("alert rule needs a non-empty name")
    if severity not in SEVERITIES:
        raise ObsError(f"rule {name!r}: unknown severity {severity!r}; "
                       f"use one of {SEVERITIES}")
    if for_s < 0:
        raise ObsError(f"rule {name!r}: for_s must be >= 0: {for_s!r}")


@dataclass(frozen=True)
class ThresholdRule:
    """Fire when ``agg(metric[window_s]) op threshold`` holds.

    ``agg`` is any :data:`repro.trace.tsdb.AGGREGATIONS` name or a
    ``pNN`` percentile.  ``exemplar_metric`` names the series whose
    recorded exemplar a firing alert links to (defaults to the rule's
    own metric; the observability plane falls back to its global
    worst-job exemplar when no per-series exemplar exists).
    """

    name: str
    metric: str
    op: str
    threshold: float
    window_s: float = 15.0
    agg: str = "last"
    for_s: float = 0.0
    severity: str = "warning"
    #: Human statement of what firing means; ``detail`` on transitions.
    summary: str = ""
    exemplar_metric: str = ""

    def __post_init__(self) -> None:
        _check_common(self.name, self.severity, self.for_s)
        if self.op not in OPS:
            raise ObsError(f"rule {self.name!r}: unknown operator "
                           f"{self.op!r}; use one of {sorted(OPS)}")
        if not self.window_s > 0:
            raise ObsError(f"rule {self.name!r}: window_s must be "
                           f"positive: {self.window_s!r}")


@dataclass(frozen=True)
class AbsenceRule:
    """Fire when a metric has no sample newer than ``stale_after_s``.

    A metric with *no series at all* counts as absent -- that is the
    interesting failure (a component that was supposed to register its
    telemetry never did, or the pipeline feeding it died).
    """

    name: str
    metric: str
    stale_after_s: float = 10.0
    for_s: float = 0.0
    severity: str = "warning"
    summary: str = ""

    def __post_init__(self) -> None:
        _check_common(self.name, self.severity, self.for_s)
        if not self.stale_after_s > 0:
            raise ObsError(f"rule {self.name!r}: stale_after_s must be "
                           f"positive: {self.stale_after_s!r}")


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window error-budget burn on an SLO good/total counter pair.

    ``good_metric`` and ``total_metric`` are counters sharing label
    sets (one series per tenant); over a window,
    ``error_rate = 1 - increase(good) / increase(total)`` and
    ``burn = error_rate / (1 - objective)``.  The rule fires for a
    series when any ``(short, long)`` window pair burns past its
    threshold in *both* windows.
    """

    name: str
    good_metric: str
    total_metric: str
    objective: float = 0.99
    #: (short_window_s, long_window_s) pairs, fastest first.
    windows: Tuple[Tuple[float, float], ...] = ((5.0, 60.0), (30.0, 360.0))
    #: Burn-rate threshold per window pair.
    burn_thresholds: Tuple[float, ...] = (14.4, 6.0)
    for_s: float = 0.0
    severity: str = "critical"
    summary: str = ""
    exemplar_metric: str = ""

    def __post_init__(self) -> None:
        _check_common(self.name, self.severity, self.for_s)
        if not 0.0 < self.objective < 1.0:
            raise ObsError(f"rule {self.name!r}: objective must be in "
                           f"(0, 1): {self.objective!r}")
        if len(self.windows) != len(self.burn_thresholds):
            raise ObsError(
                f"rule {self.name!r}: {len(self.windows)} window pairs "
                f"but {len(self.burn_thresholds)} burn thresholds")
        if not self.windows:
            raise ObsError(f"rule {self.name!r}: needs at least one "
                           f"window pair")
        for short_s, long_s in self.windows:
            if not 0 < short_s < long_s:
                raise ObsError(
                    f"rule {self.name!r}: window pair ({short_s!r}, "
                    f"{long_s!r}) must satisfy 0 < short < long")
        for burn in self.burn_thresholds:
            if not burn > 0:
                raise ObsError(f"rule {self.name!r}: burn threshold "
                               f"must be positive: {burn!r}")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated miss fraction."""
        return 1.0 - self.objective


def rule_kind(rule) -> str:
    """The family name of a rule instance (for journal details)."""
    if isinstance(rule, ThresholdRule):
        return "threshold"
    if isinstance(rule, AbsenceRule):
        return "absence"
    if isinstance(rule, BurnRateRule):
        return "burn-rate"
    raise ObsError(f"unknown rule type {type(rule).__name__}")


def validate_rule(rule) -> None:
    """Type-check one rule object (dataclass validation runs in
    ``__post_init__``; this guards against foreign objects)."""
    rule_kind(rule)


#: Optional attr present on threshold/burn rules; absence rules have no
#: exemplar (there is no offending job behind missing telemetry).
def exemplar_metric_of(rule) -> Optional[str]:
    """The metric whose exemplar a firing alert should link, if any."""
    metric = getattr(rule, "exemplar_metric", "")
    if metric:
        return metric
    if isinstance(rule, ThresholdRule):
        return rule.metric
    if isinstance(rule, BurnRateRule):
        return rule.total_metric
    return None
