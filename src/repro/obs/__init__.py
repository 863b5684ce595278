"""repro.obs: the streaming observability plane.

Layered on the sampled telemetry the trace/clarity layers already
produce, this package adds the *online* half of performance clarity:

* declarative alert rules (:mod:`repro.obs.rules`) evaluated each
  simulated second by an :class:`~repro.obs.alerts.AlertEngine` --
  thresholds, staleness watchdogs, and SRE-style multi-window
  burn-rate alerts on per-tenant SLO attainment;
* online model-drift detection
  (:class:`~repro.obs.drift.ModelDriftDetector`): the paper's §6
  modeled-vs-measured validation run continuously, so the ideal model
  itself becomes an anomaly detector (and is honestly NOT ATTRIBUTABLE
  on the Spark-style engine, §6.6);
* exemplar-linked metrics (:mod:`repro.obs.exemplars`): firing alerts
  carry the critical-path span of the worst recent contributor;
* a bounded event journal (:mod:`repro.obs.journal`) keeping the one
  stream of fault, health, driver, and alert events as a
  severity-leveled, JSONL-sinkable timeline;
* self-overhead accounting: the plane measures its own wall-clock cost
  per simulated second, and the benchmark budget-gates it.

:class:`~repro.obs.plane.ObservabilityPlane` is the facade the serving
and control-plane layers take via their ``obs=`` parameter.
"""

from repro.obs.alerts import Alert, AlertEngine, format_labels
from repro.obs.drift import DriftVerdict, ModelDriftDetector
from repro.obs.exemplars import WORST_JOB_METRIC, Exemplar, ExemplarStore
from repro.obs.journal import EventJournal, JsonlJournalSink
from repro.obs.plane import ObservabilityPlane
from repro.obs.rules import (OPS, SEVERITIES, AbsenceRule, BurnRateRule,
                             ThresholdRule, exemplar_metric_of,
                             rule_kind, validate_rule)

__all__ = [
    "Alert",
    "AlertEngine",
    "format_labels",
    "DriftVerdict",
    "ModelDriftDetector",
    "Exemplar",
    "ExemplarStore",
    "WORST_JOB_METRIC",
    "EventJournal",
    "JsonlJournalSink",
    "ObservabilityPlane",
    "ThresholdRule",
    "AbsenceRule",
    "BurnRateRule",
    "OPS",
    "SEVERITIES",
    "rule_kind",
    "validate_rule",
    "exemplar_metric_of",
]
