"""Causal span tracing, critical-path attribution, and live telemetry.

The paper's performance-clarity thesis as a subsystem: spans record the
causal structure of execution (:mod:`repro.trace.spans`), the critical
path explains where a job's wall-clock time went
(:mod:`repro.trace.critpath`), and telemetry exposes live cluster state
(:mod:`repro.trace.telemetry`) with its history in bounded per-series
ring buffers (:mod:`repro.trace.tsdb`).
"""

from repro.trace.critpath import (CriticalPathReport, PathSegment,
                                  critical_path)
from repro.trace.sink import JsonlSpanSink
from repro.trace.spans import (LINK_DAG_EDGE, LINK_QUEUE_WAIT,
                               LINK_REDISPATCH, LINK_RETRY,
                               LINK_SHUFFLE_FETCH, LINK_SPECULATION,
                               SPAN_ATTEMPT, SPAN_JOB, SPAN_MONOTASK,
                               SPAN_STAGE, SpanLink, SpanRecord,
                               TraceContext, link_to_json, span_to_json)
from repro.trace.telemetry import (TelemetryRegistry, TelemetrySample,
                                   TelemetrySampler, render_prometheus)
from repro.trace.tsdb import AGGREGATIONS, Labels, TimeSeriesStore

__all__ = [
    "TraceContext",
    "SpanRecord",
    "SpanLink",
    "SPAN_JOB",
    "SPAN_STAGE",
    "SPAN_ATTEMPT",
    "SPAN_MONOTASK",
    "LINK_DAG_EDGE",
    "LINK_SHUFFLE_FETCH",
    "LINK_QUEUE_WAIT",
    "LINK_RETRY",
    "LINK_SPECULATION",
    "LINK_REDISPATCH",
    "span_to_json",
    "link_to_json",
    "JsonlSpanSink",
    "critical_path",
    "CriticalPathReport",
    "PathSegment",
    "TelemetryRegistry",
    "TelemetrySampler",
    "TelemetrySample",
    "render_prometheus",
    "TimeSeriesStore",
    "Labels",
    "AGGREGATIONS",
]
