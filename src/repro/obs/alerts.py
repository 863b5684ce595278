"""The alert engine: rule evaluation, lifecycle, dedup, exemplars.

Each evaluation tick walks the rules in name order and, per rule, every
matching labeled series in sorted label order -- the alert timeline is
a deterministic function of (rules, sampled telemetry), so same-seed
runs replay it byte-identically.

An alert is keyed by ``(rule name, series labels)``; one key holds one
live alert whatever its age (label-keyed dedup).  Lifecycle::

    inactive --condition true--> pending --held for_s--> firing
    pending  --condition false--> inactive   (dropped silently)
    firing   --condition false--> resolved --> inactive

``pending``/``firing``/``resolved`` transitions are recorded as
:class:`~repro.metrics.events.AlertEventRecord` into the metrics
collector (feeding the journal and the Chrome-trace instant events);
``firing`` records carry the exemplar of the worst recent contributor
when the exemplar store has one for the rule's metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ObsError
from repro.metrics.events import AlertEventRecord
from repro.obs.rules import (OPS, AbsenceRule, BurnRateRule, ThresholdRule,
                             exemplar_metric_of, validate_rule)

__all__ = ["Alert", "AlertEngine", "format_labels"]

#: Sorted (key, value) pairs, as the telemetry store keys series.
Labels = Tuple[Tuple[str, str], ...]


def format_labels(labels: Labels) -> str:
    """Canonical one-line rendering (``machine=1,resource=network``)."""
    return ",".join(f"{k}={v}" for k, v in labels)


@dataclass
class Alert:
    """One live (or resolved) alert instance for a (rule, labels) key."""

    rule: str
    labels: Labels
    severity: str
    state: str = "pending"  # pending | firing | resolved
    #: When the condition first held (pending start).
    since: float = 0.0
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    #: Last evaluated value (burn rate, aggregate, or staleness age).
    value: float = float("nan")
    detail: str = ""
    #: Exemplar ids stamped at firing time (-1 / "" = none).
    trace_id: str = ""
    span_id: int = -1

    @property
    def key(self) -> Tuple[str, Labels]:
        """The dedup key."""
        return (self.rule, self.labels)


@dataclass
class _Verdict:
    """One series' evaluation under one rule at one instant."""

    labels: Labels
    active: bool
    value: float = float("nan")
    detail: str = ""


class AlertEngine:
    """Evaluates declarative rules over a sampled telemetry registry.

    ``registry`` is a :class:`~repro.trace.TelemetryRegistry` whose
    ring-buffered store the windowed conditions read.  ``metrics`` (a
    :class:`~repro.metrics.collector.MetricsCollector`) receives the
    transition records; ``exemplars`` (an
    :class:`~repro.obs.exemplars.ExemplarStore`) resolves firing
    alerts to offending spans.  All three are optional for unit use.
    """

    def __init__(self, registry, metrics=None, exemplars=None) -> None:
        self.registry = registry
        self.metrics = metrics
        self.exemplars = exemplars
        self._rules: Dict[str, object] = {}
        #: (rule, labels) -> live Alert (pending or firing).
        self._active: Dict[Tuple[str, Labels], Alert] = {}
        #: Every transition, in record order (the alert timeline).
        self.transitions: List[AlertEventRecord] = []
        #: Resolved alerts, oldest first (bounded by _history_cap).
        self.history: List[Alert] = []
        self._history_cap = 512
        self.evaluations = 0

    # -- configuration -------------------------------------------------------------

    def add_rule(self, rule) -> None:
        """Register one rule; duplicate names are an error."""
        validate_rule(rule)
        if rule.name in self._rules:
            raise ObsError(f"alert rule {rule.name!r} is already "
                           f"registered")
        self._rules[rule.name] = rule

    def rule_names(self) -> List[str]:
        """Registered rule names, sorted (the evaluation order)."""
        return sorted(self._rules)

    # -- queries -------------------------------------------------------------------

    def firing(self) -> List[Alert]:
        """Currently firing alerts, sorted by (rule, labels)."""
        return sorted((a for a in self._active.values()
                       if a.state == "firing"),
                      key=lambda a: (a.rule, a.labels))

    def pending(self) -> List[Alert]:
        """Alerts holding out their ``for_s``, sorted by (rule, labels)."""
        return sorted((a for a in self._active.values()
                       if a.state == "pending"),
                      key=lambda a: (a.rule, a.labels))

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, now: float) -> List[AlertEventRecord]:
        """Run every rule once; returns this tick's transitions."""
        self.evaluations += 1
        emitted: List[AlertEventRecord] = []
        for name in sorted(self._rules):
            rule = self._rules[name]
            verdicts = self._evaluate_rule(rule, now)
            seen: set = set()
            for verdict in verdicts:
                seen.add((name, verdict.labels))
                emitted.extend(self._advance(rule, verdict, now))
            # Series that vanished from the registry resolve/drop too.
            for key in [k for k in self._active
                        if k[0] == name and k not in seen]:
                emitted.extend(self._advance(
                    rule, _Verdict(labels=key[1], active=False), now))
        return emitted

    def _advance(self, rule, verdict: _Verdict,
                 now: float) -> List[AlertEventRecord]:
        """Drive one (rule, labels) alert state machine one step."""
        key = (rule.name, verdict.labels)
        alert = self._active.get(key)
        out: List[AlertEventRecord] = []
        if verdict.active:
            if alert is None:
                alert = Alert(rule=rule.name, labels=verdict.labels,
                              severity=rule.severity, since=now,
                              value=verdict.value, detail=verdict.detail)
                self._active[key] = alert
                if rule.for_s > 0:
                    out.append(self._record("pending", alert, now))
            alert.value = verdict.value
            if verdict.detail:
                alert.detail = verdict.detail
            if alert.state == "pending" and now - alert.since >= rule.for_s:
                alert.state = "firing"
                alert.fired_at = now
                self._stamp_exemplar(rule, alert, now)
                out.append(self._record("firing", alert, now))
        elif alert is not None:
            if alert.state == "firing":
                alert.state = "resolved"
                alert.resolved_at = now
                out.append(self._record("resolved", alert, now))
                self.history.append(alert)
                del self.history[:-self._history_cap]
            # Pending alerts that recover are dropped silently, like
            # Prometheus: the condition never held for ``for_s``.
            del self._active[key]
        return out

    def _stamp_exemplar(self, rule, alert: Alert, now: float) -> None:
        if self.exemplars is None:
            return
        metric = exemplar_metric_of(rule)
        if metric is None:
            return
        exemplar = self.exemplars.lookup(metric, alert.labels, now=now)
        if exemplar is not None:
            alert.trace_id = exemplar.trace_id
            alert.span_id = exemplar.span_id
            if exemplar.detail:
                alert.detail = (f"{alert.detail}; worst contributor: "
                                f"{exemplar.detail}"
                                if alert.detail else
                                f"worst contributor: {exemplar.detail}")

    def _record(self, kind: str, alert: Alert,
                now: float) -> AlertEventRecord:
        record = AlertEventRecord(
            kind=kind, rule=alert.rule, at=now,
            severity=alert.severity if kind == "firing" else "info",
            labels=format_labels(alert.labels), value=alert.value,
            trace_id=alert.trace_id, span_id=alert.span_id,
            detail=alert.detail)
        self.transitions.append(record)
        if self.metrics is not None:
            self.metrics.record_event(record)
        return record

    # -- per-family condition evaluation -------------------------------------------

    def _evaluate_rule(self, rule, now: float) -> List[_Verdict]:
        if isinstance(rule, ThresholdRule):
            return self._eval_threshold(rule, now)
        if isinstance(rule, AbsenceRule):
            return self._eval_absence(rule, now)
        if isinstance(rule, BurnRateRule):
            return self._eval_burn(rule, now)
        raise ObsError(f"unknown rule type {type(rule).__name__}")

    def _series_of(self, metric: str) -> List[Labels]:
        return [labels for name, labels in self.registry.store.series()
                if name == metric]

    def _eval_threshold(self, rule: ThresholdRule,
                        now: float) -> List[_Verdict]:
        out: List[_Verdict] = []
        compare = OPS[rule.op]
        for labels in self._series_of(rule.metric):
            value = self.registry.store.aggregate(
                rule.metric, rule.agg, window_s=rule.window_s, now=now,
                labels=labels)
            if value is None:
                continue  # no samples in window: no verdict either way
            active = compare(value, rule.threshold)
            detail = (rule.summary or
                      f"{rule.agg}({rule.metric}[{rule.window_s:g}s]) "
                      f"{rule.op} {rule.threshold:g}")
            out.append(_Verdict(labels=labels, active=active, value=value,
                                detail=detail if active else ""))
        return out

    def _eval_absence(self, rule: AbsenceRule, now: float) -> List[_Verdict]:
        series = self._series_of(rule.metric)
        if not series:
            # The metric never produced a series at all -- the watchdog
            # case.  Keyed by the metric name so it dedups as one alert.
            age = now
            active = age > rule.stale_after_s
            return [_Verdict(
                labels=(("metric", rule.metric),), active=active,
                value=age,
                detail=(rule.summary or f"{rule.metric} has no series "
                                        f"after {age:g}s")
                if active else "")]
        out: List[_Verdict] = []
        for labels in series:
            newest = self.registry.store.latest(rule.metric, labels=labels)
            age = now - newest[0] if newest is not None else now
            active = age > rule.stale_after_s
            out.append(_Verdict(
                labels=labels, active=active, value=age,
                detail=(rule.summary or
                        f"{rule.metric} stale for {age:g}s")
                if active else ""))
        return out

    def _increase(self, metric: str, labels: Labels, window_s: float,
                  now: float) -> Optional[float]:
        """Counter increase over the window (first-to-last sample)."""
        points = self.registry.store.window(
            metric, now - window_s, now, labels=labels)
        if len(points) < 2:
            return None
        return points[-1][1] - points[0][1]

    def _eval_burn(self, rule: BurnRateRule, now: float) -> List[_Verdict]:
        out: List[_Verdict] = []
        for labels in self._series_of(rule.total_metric):
            worst_burn = 0.0
            hit: Optional[Tuple[int, float]] = None
            for index, (short_s, long_s) in enumerate(rule.windows):
                burns = []
                for window_s in (short_s, long_s):
                    total = self._increase(rule.total_metric, labels,
                                           window_s, now)
                    good = self._increase(rule.good_metric, labels,
                                          window_s, now) or 0.0
                    if total is None or total <= 0:
                        burns.append(0.0)
                        continue
                    error_rate = min(1.0, max(0.0, (total - good) / total))
                    burns.append(error_rate / rule.budget)
                worst_burn = max(worst_burn, min(burns))
                threshold = rule.burn_thresholds[index]
                if min(burns) >= threshold and hit is None:
                    hit = (index, min(burns))
            active = hit is not None
            detail = ""
            if active:
                index, burn = hit
                short_s, long_s = rule.windows[index]
                detail = (rule.summary or
                          f"burning {burn:.1f}x the error budget over "
                          f"both {short_s:g}s and {long_s:g}s windows "
                          f"(objective {rule.objective:g})")
            out.append(_Verdict(labels=labels, active=active,
                                value=worst_burn, detail=detail))
        return out
