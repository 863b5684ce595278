"""Metrics: structured records, collection, utilization, reporting."""

from repro.metrics.collector import MetricsCollector
from repro.metrics.events import (CPU, DISK, NETWORK, JobRecord,
                                  MonotaskRecord, PHASE_CLEANUP,
                                  PHASE_COMPUTE, PHASE_INPUT_READ,
                                  PHASE_OUTPUT_WRITE, PHASE_SETUP,
                                  PHASE_SHUFFLE_READ, PHASE_SHUFFLE_SERVE,
                                  PHASE_SHUFFLE_WRITE, ResourceUsageRecord,
                                  ServeRecord)
from repro.metrics.report import format_seconds, format_table, print_table
from repro.metrics.timeline import render_timeline
from repro.metrics.utilization import (UtilizationSummary,
                                       machine_utilization, percentile,
                                       sample_utilization, summarize_machine)

__all__ = [
    "MetricsCollector",
    "MonotaskRecord",
    "ResourceUsageRecord",
    "JobRecord",
    "ServeRecord",
    "CPU",
    "DISK",
    "NETWORK",
    "PHASE_INPUT_READ",
    "PHASE_SHUFFLE_READ",
    "PHASE_SHUFFLE_WRITE",
    "PHASE_OUTPUT_WRITE",
    "PHASE_SHUFFLE_SERVE",
    "PHASE_COMPUTE",
    "PHASE_SETUP",
    "PHASE_CLEANUP",
    "format_seconds",
    "format_table",
    "print_table",
    "render_timeline",
    "UtilizationSummary",
    "machine_utilization",
    "percentile",
    "sample_utilization",
    "summarize_machine",
]
