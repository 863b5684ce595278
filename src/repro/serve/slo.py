"""SLO accounting: per-tenant latency distributions and attainment.

A :class:`ServeReport` summarizes a serving run from the
:class:`~repro.metrics.events.ServeRecord` stream: per-tenant
p50/p95/p99 request latency, the split of that latency into queueing
delay and service time, shed and goodput counts, and SLO attainment.

On MonoSpark the report additionally attributes each tenant's queueing
to specific resources (CPU vs disk vs network queue seconds from the
per-monotask records) -- the paper's performance-clarity signal carried
into a serving context.  Spark exposes no such decomposition, which the
report states explicitly rather than printing zeros.

Everything in the report is a deterministic function of the simulation,
and ``format()`` renders with fixed precision, so a repeated run with
the same seed produces a byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.collector import MetricsCollector
from repro.metrics.events import HealthEventRecord, ServeRecord
from repro.metrics.report import format_table
from repro.metrics.utilization import percentile

__all__ = ["TenantStats", "ServeReport"]


@dataclass
class TenantStats:
    """Aggregates for one tenant over a serving run."""

    tenant: str
    completed: int = 0
    failed: int = 0
    shed: int = 0
    #: Requests lost outright (owning driver died with no checkpoint to
    #: fail over from); zero outside control-plane runs.
    lost: int = 0
    #: Completed-request latency percentiles (arrival -> completion).
    p50_s: Optional[float] = None
    p95_s: Optional[float] = None
    p99_s: Optional[float] = None
    mean_queue_delay_s: Optional[float] = None
    mean_service_s: Optional[float] = None
    slo_s: Optional[float] = None
    #: Completed within the SLO (goodput); None when the tenant has no SLO.
    goodput: Optional[int] = None

    @property
    def submitted(self) -> int:
        """All requests the tenant submitted, whatever their fate."""
        return self.completed + self.failed + self.shed + self.lost

    @property
    def attainment(self) -> Optional[float]:
        """Fraction of *submitted* requests that met the SLO.

        Shed and failed requests count against attainment: from the
        tenant's point of view a rejected request is a missed SLO.
        """
        if self.goodput is None or self.submitted == 0:
            return None
        return self.goodput / self.submitted


def _tenant_stats(tenant: str, records: Sequence[ServeRecord]
                  ) -> TenantStats:
    stats = TenantStats(tenant=tenant)
    latencies: List[float] = []
    queue_delays: List[float] = []
    services: List[float] = []
    goodput = 0
    has_slo = False
    for record in records:
        if record.slo_s is not None:
            has_slo = True
            stats.slo_s = record.slo_s
        if record.outcome == "shed":
            stats.shed += 1
            continue
        if record.outcome == "failed":
            stats.failed += 1
            continue
        if record.outcome == "lost":
            stats.lost += 1
            continue
        stats.completed += 1
        latencies.append(record.latency_s)
        queue_delays.append(record.queue_delay_s)
        services.append(record.service_s)
        if record.slo_met:
            goodput += 1
    if latencies:
        stats.p50_s = percentile(latencies, 50)
        stats.p95_s = percentile(latencies, 95)
        stats.p99_s = percentile(latencies, 99)
        stats.mean_queue_delay_s = sum(queue_delays) / len(queue_delays)
        stats.mean_service_s = sum(services) / len(services)
    if has_slo:
        stats.goodput = goodput
    return stats


def _cell(value: Optional[float], precision: int = 2) -> str:
    return "-" if value is None else f"{value:.{precision}f}"


@dataclass
class ServeReport:
    """The outcome of one serving run, renderable as stable text."""

    engine_name: str
    duration_s: float
    stats: List[TenantStats] = field(default_factory=list)
    #: tenant -> resource -> monotask queue seconds (MonoSpark only).
    queue_attribution: Dict[str, Dict[str, float]] = field(
        default_factory=dict)
    records: List[ServeRecord] = field(default_factory=list)
    #: Health-monitor decisions made during the run, in time order.
    health_events: List[HealthEventRecord] = field(default_factory=list)
    #: metric name -> peak sampled value (summed across a metric's
    #: series at each sample instant); filled by telemetry-enabled runs.
    telemetry_peaks: Dict[str, float] = field(default_factory=dict)
    #: Sample instants the telemetry sampler recorded.
    telemetry_ticks: int = 0
    #: Rolling-window bottleneck attribution
    #: (:class:`~repro.clarity.aggregator.BottleneckWindow`); filled by
    #: clarity-enabled runs.
    clarity: Optional[object] = None
    #: Optional ranked capacity advice
    #: (:class:`~repro.clarity.advisor.AdvisorReport`).
    advice: Optional[object] = None
    #: Data-tier counters (:meth:`~repro.datasvc.DataService.stats`);
    #: filled by runs with a data service attached.
    datasvc_stats: Dict[str, float] = field(default_factory=dict)
    #: Storage-node index -> integrity suspicion count.
    datasvc_suspicions: Dict[int, int] = field(default_factory=dict)
    #: Alert transitions (:class:`~repro.metrics.events.AlertEventRecord`)
    #: in time order; filled by observability-enabled runs.
    obs_timeline: List[object] = field(default_factory=list)
    #: Alerts still firing when the run drained
    #: (:class:`~repro.obs.alerts.Alert`).
    obs_firing: List[object] = field(default_factory=list)
    #: Drift verdicts that left the model envelope or could not be
    #: attributed (:class:`~repro.obs.drift.DriftVerdict`).
    obs_drift: List[object] = field(default_factory=list)
    #: Jobs the drift detector scored, whatever the verdict.
    obs_drift_scored: int = 0
    #: Journal row counts by severity, plus ``dropped``.
    obs_journal: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, metrics: MetricsCollector, engine_name: str,
                     tenants: Sequence[str],
                     duration_s: float) -> "ServeReport":
        """Build the report for ``tenants`` from recorded serve events."""
        report = cls(engine_name=engine_name, duration_s=duration_s,
                     records=list(metrics.serves),
                     health_events=metrics.events_of(HealthEventRecord))
        attributable = False
        for tenant in tenants:
            records = metrics.serve_records(tenant=tenant)
            report.stats.append(_tenant_stats(tenant, records))
            job_ids = [r.job_id for r in records if r.job_id >= 0]
            by_resource = metrics.queue_seconds_by_resource(job_ids)
            report.queue_attribution[tenant] = by_resource
            if any(v > 0 for v in by_resource.values()):
                attributable = True
        if not attributable:
            report.queue_attribution = {}
        return report

    def attach_telemetry(self, registry) -> None:
        """Fold a sampled :class:`~repro.trace.TelemetryRegistry` in.

        Stores, per metric, the peak of the instant-wise total across
        that metric's series -- "the deepest any resource queue ever
        got", not a per-machine breakdown (the full ring-buffered time
        series stays on ``registry.store``).
        """
        totals: Dict[tuple, float] = {}
        ticks = set()
        for name, labels in registry.store.series():
            for t, value in registry.store.points(name, labels=labels):
                ticks.add(t)
                key = (name, t)
                totals[key] = totals.get(key, 0.0) + value
        peaks: Dict[str, float] = {}
        for (name, _), value in totals.items():
            if value > peaks.get(name, float("-inf")):
                peaks[name] = value
        self.telemetry_peaks = dict(sorted(peaks.items()))
        self.telemetry_ticks = len(ticks)

    def attach_clarity(self, aggregator, advisor=None) -> None:
        """Fold a :class:`~repro.clarity.ClarityAggregator`'s window in.

        Stores the aggregator's rolling-window bottleneck answer; with
        an optional :class:`~repro.clarity.CapacityAdvisor`, also its
        ranked recommendations over the window's observations.
        """
        self.clarity = aggregator.bottleneck()
        if advisor is not None:
            self.advice = advisor.advise(aggregator.observations())

    def attach_datasvc(self, service) -> None:
        """Fold a :class:`~repro.datasvc.DataService`'s counters in."""
        self.datasvc_stats = service.stats()
        self.datasvc_suspicions = service.suspicion_counts()

    def attach_obs(self, obs) -> None:
        """Fold an :class:`~repro.obs.ObservabilityPlane`'s outcome in.

        Stores the alert timeline, still-firing alerts, out-of-envelope
        (or unattributable) drift verdicts, and journal severity counts
        -- every one a deterministic function of the run; the plane's
        wall-clock self-overhead deliberately stays off the report (ask
        ``obs.overhead()`` for it).
        """
        self.obs_timeline = obs.alert_timeline()
        self.obs_firing = obs.firing()
        verdicts = obs.drift_verdicts()
        self.obs_drift_scored = len(verdicts)
        self.obs_drift = [v for v in verdicts
                          if v.drifting or not v.attributable]
        counts: Dict[str, int] = {}
        for event in obs.journal.events():
            counts[event.severity] = counts.get(event.severity, 0) + 1
        counts["dropped"] = obs.journal.dropped
        self.obs_journal = counts

    @property
    def total_lost(self) -> int:
        """Requests lost to unrecovered driver failures, across tenants."""
        return sum(s.lost for s in self.stats)

    @property
    def total_completed(self) -> int:
        """Requests served to completion, across tenants."""
        return sum(s.completed for s in self.stats)

    def tenant(self, name: str) -> TenantStats:
        """The named tenant's stats (KeyError if absent)."""
        for stats in self.stats:
            if stats.tenant == name:
                return stats
        raise KeyError(name)

    def format(self) -> str:
        """Render the report; byte-identical across identical runs."""
        title = (f"SLO report ({self.engine_name}, "
                 f"{self.duration_s:.1f}s simulated)")
        # The "lost" column appears only when a control-plane run
        # actually lost requests, so plain serving reports stay
        # byte-identical to earlier releases.
        with_lost = self.total_lost > 0
        rows = []
        for s in self.stats:
            attainment = s.attainment
            row = [s.tenant, s.submitted, s.completed, s.failed, s.shed]
            if with_lost:
                row.append(s.lost)
            row.extend([
                _cell(s.p50_s), _cell(s.p95_s), _cell(s.p99_s),
                _cell(s.mean_queue_delay_s), _cell(s.mean_service_s),
                _cell(s.slo_s, 1),
                "-" if attainment is None else f"{100 * attainment:.1f}%",
            ])
            rows.append(row)
        header = ["tenant", "jobs", "done", "failed", "shed"]
        if with_lost:
            header.append("lost")
        header.extend(["p50 (s)", "p95 (s)", "p99 (s)", "queue (s)",
                       "service (s)", "SLO (s)", "attained"])
        lines = [format_table(header, rows, title=title)]
        if self.queue_attribution:
            attrib_rows = [
                [tenant,
                 f"{by_resource.get('cpu', 0.0):.2f}",
                 f"{by_resource.get('disk', 0.0):.2f}",
                 f"{by_resource.get('network', 0.0):.2f}"]
                for tenant, by_resource in
                sorted(self.queue_attribution.items())]
            lines.append(format_table(
                ["tenant", "cpu (s)", "disk (s)", "network (s)"],
                attrib_rows,
                title="Queueing attribution (monotask queue seconds)"))
        else:
            lines.append("Queueing attribution: unavailable (no monotask "
                         "records; Spark cannot say which resource "
                         "queued)")
        if self.health_events:
            timeline_rows = [
                [f"{h.at:.1f}", f"m{h.machine_id}", h.kind,
                 h.resource or "-", _cell(None if h.relative_rate
                                          != h.relative_rate
                                          else h.relative_rate),
                 h.detail or "-"]
                for h in self.health_events]
            lines.append(format_table(
                ["t (s)", "machine", "event", "resource", "rel rate",
                 "detail"],
                timeline_rows, title="Exclusion timeline (health monitor)"))
            lines.append(self._attribution_section())
        if self.telemetry_peaks:
            peak_rows = [[name, f"{value:g}"]
                         for name, value in self.telemetry_peaks.items()]
            lines.append(format_table(
                ["metric", "peak"], peak_rows,
                title=(f"Live telemetry peaks "
                       f"({self.telemetry_ticks} sample instants)")))
        if self.clarity is not None:
            lines.append(self.clarity.format())
        if self.advice is not None:
            lines.append(self.advice.format())
        if self.datasvc_stats:
            svc_rows = [[name, f"{value:g}"]
                        for name, value in sorted(
                            self.datasvc_stats.items())]
            lines.append(format_table(
                ["counter", "value"], svc_rows,
                title="Data service (disaggregated shuffle/storage)"))
            if self.datasvc_suspicions:
                suspicion_rows = [
                    [f"s{node}", str(count)]
                    for node, count in sorted(
                        self.datasvc_suspicions.items())]
                lines.append(format_table(
                    ["storage node", "integrity suspicions"],
                    suspicion_rows,
                    title="Data-tier integrity suspicions"))
        if self.obs_timeline or self.obs_journal:
            lines.append(self._obs_section())
        return "\n\n".join(lines)

    def _obs_section(self) -> str:
        """Streaming-alerting outcome: timeline, drift, journal counts."""
        parts = []
        if self.obs_timeline:
            rows = [[f"{a.at:.1f}", a.rule, a.kind, a.labels or "-",
                     "-" if a.value != a.value else f"{a.value:.2f}",
                     f"{a.trace_id}/{a.span_id}" if a.span_id >= 0
                     else "-"]
                    for a in self.obs_timeline]
            parts.append(format_table(
                ["t (s)", "rule", "transition", "labels", "value",
                 "exemplar"],
                rows, title="Alert timeline (observability plane)"))
        else:
            parts.append("Alert timeline: no alerts fired")
        if self.obs_firing:
            names = ", ".join(
                f"{a.rule}{{{','.join(f'{k}={v}' for k, v in a.labels)}}}"
                for a in self.obs_firing)
            parts.append(f"Still firing at drain: {names}")
        if self.obs_drift:
            drift_rows = [
                ["-" if v.job_id < 0 else str(v.job_id), v.tenant or "-",
                 f"{v.at:.1f}",
                 "-" if v.normalized != v.normalized
                 else f"{v.normalized:.2f}",
                 v.reason or "-"]
                for v in self.obs_drift]
            parts.append(format_table(
                ["job", "tenant", "t (s)", "vs baseline", "verdict"],
                drift_rows,
                title=(f"Model drift ({self.obs_drift_scored} jobs "
                       f"scored)")))
        elif self.obs_drift_scored:
            parts.append(
                f"Model drift: {self.obs_drift_scored} jobs scored, all "
                f"inside the envelope")
        if self.obs_journal:
            order = {"critical": 0, "warning": 1, "info": 2,
                     "dropped": 3}
            counts = ", ".join(
                f"{key}={self.obs_journal[key]}"
                for key in sorted(self.obs_journal,
                                  key=lambda k: order.get(k, 9)))
            parts.append(f"Event journal: {counts}")
        return "\n\n".join(parts)

    def _attribution_section(self) -> str:
        """What the monitor blamed each suspect machine's slowness on.

        MonoSpark blames a resource (cpu/disk/network) because its
        estimator sees per-resource monotask rates; the Spark baseline's
        task-level EWMA can only say ``task`` -- it knows *that* a
        machine is slow, never *why* (§6.6, online).
        """
        worst: Dict[int, HealthEventRecord] = {}
        for event in self.health_events:
            if event.kind not in ("suspect", "exclude") or not event.resource:
                continue
            seen = worst.get(event.machine_id)
            if seen is None or event.relative_rate < seen.relative_rate:
                worst[event.machine_id] = event
        if not worst:
            return ("Fail-slow attribution: no suspects (no machine fell "
                    "below the cluster-typical rate)")
        rows = [[f"m{machine_id}", worst[machine_id].resource,
                 _cell(worst[machine_id].relative_rate)]
                for machine_id in sorted(worst)]
        section = format_table(
            ["machine", "blamed resource", "worst rel rate"],
            rows, title="Fail-slow attribution")
        if all(event.resource == "task" for event in worst.values()):
            section += ("\nresource \"task\" = blended task rate only: "
                        "this engine has no per-resource telemetry, so "
                        "slowness cannot be attributed to cpu, disk, or "
                        "network")
        return section
