"""The observability plane: one facade over alerts, drift, exemplars,
and the event journal.

An :class:`ObservabilityPlane` owns its *own*
:class:`~repro.trace.TelemetryRegistry` (so it never collides with an
optional :class:`~repro.trace.TelemetrySampler`'s registry on the same
run), asks the engine to register its live gauges into it, adds its own
derived series, and runs a 1 Hz simulated-time tick that samples the
registry and evaluates the alert rules over the sampled windows.
Everything downstream of the tick is a deterministic function of the
simulation, so same-seed runs replay byte-identical alert timelines
and journals.

Derived series (all under the ``repro_obs_`` prefix):

* ``repro_obs_slo_requests_total`` / ``repro_obs_slo_good_total``
  per SLO tenant -- the good/total counter pair the default burn-rate
  rule watches, bumped from the collector's serve-record stream.
* ``repro_obs_source_network_relrate`` per machine -- each source
  machine's recent transfer throughput relative to the cluster median,
  recomputed per tick from :class:`TransferRecord` flows.  This is the
  health monitor's per-source attribution insight recast as plain
  telemetry: a sick uplink shows up as *that machine's* series sinking
  below 1.0, so a plain threshold rule names the machine and resource.
* ``repro_obs_drift_ratio`` -- the drift detector's recent
  measured/modeled ratio (1.0 = the model is tracking reality).
* ``repro_obs_driver_up`` per driver -- 1/0 liveness when a control
  plane is attached.
* ``repro_obs_self_overhead_ms_per_s`` -- the plane's *own* wall-clock
  cost per simulated second (the self-overhead account).  Wall-clock
  values never feed rules, the journal, or report text -- they are
  observable, not load-bearing, so determinism holds.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ObsError, SimulationError
from repro.metrics.events import ServeRecord
from repro.obs.alerts import Alert, AlertEngine
from repro.obs.drift import DRIFT_ENVELOPE, DriftVerdict, ModelDriftDetector
from repro.obs.exemplars import WORST_JOB_METRIC, Exemplar, ExemplarStore
from repro.obs.journal import EventJournal
from repro.obs.rules import (AbsenceRule, BurnRateRule, ThresholdRule)
from repro.stats import percentile
from repro.trace.telemetry import TelemetryRegistry

__all__ = ["ObservabilityPlane"]

Labels = Tuple[Tuple[str, str], ...]


#: Metric names the default rules watch.
SLO_TOTAL_METRIC = "repro_obs_slo_requests_total"
SLO_GOOD_METRIC = "repro_obs_slo_good_total"
RELRATE_METRIC = "repro_obs_source_network_relrate"
DRIFT_METRIC = "repro_obs_drift_ratio"
DRIVER_UP_METRIC = "repro_obs_driver_up"
OVERHEAD_METRIC = "repro_obs_self_overhead_ms_per_s"

#: The evaluation tick, in simulated seconds.
INTERVAL_S = 1.0
#: Relative-throughput floor below which a source uplink is sick.
SOURCE_SLOW_THRESHOLD = 0.5
#: How far back (simulated seconds) a source's flows count.
SOURCE_WINDOW_S = 10.0
#: The burn-rate rule's SLO objective.
SLO_OBJECTIVE = 0.99


class ObservabilityPlane:
    """Streaming alerting over a serving or control-plane run.

    Usage::

        obs = ObservabilityPlane()
        server = JobServer(ctx, ..., obs=obs)
        ...
        report = server.run()        # report carries firing alerts
        print(obs.journal.format())  # the unified event journal

    The plane ticks every :data:`INTERVAL_S` simulated seconds.  A
    source machine's uplink is declared sick when its relative
    throughput falls below :data:`SOURCE_SLOW_THRESHOLD`, and drift
    beyond :data:`~repro.obs.drift.DRIFT_ENVELOPE` fires
    ``model-drift``; both are fixed constants.  The default rules are
    always installed; :meth:`add_rule` adds more beside them.
    """

    def __init__(self) -> None:
        self.registry = TelemetryRegistry()
        self.exemplars = ExemplarStore()
        self.journal = EventJournal()
        #: Built at :meth:`attach` (needs the collector for records).
        self.alerts: Optional[AlertEngine] = None
        self.drift: Optional[ModelDriftDetector] = None
        self.env = None
        self.engine = None
        self.metrics = None
        # SLO counter state, bumped from serve records.
        self._slo_total: Dict[str, int] = {}
        self._slo_good: Dict[str, int] = {}
        # Per-source transfer-rate state, recomputed per tick.
        self._relrate: Dict[int, float] = {}
        self._transfer_cursor = 0
        #: machine -> [(end_t, bytes/s)] flows within SOURCE_WINDOW_S.
        self._flows: Dict[int, List[Tuple[float, float]]] = {}
        # Self-overhead account (wall clock; observable, never
        # load-bearing).
        self._overhead_wall_s = 0.0
        self._sim_start: Optional[float] = None
        self.ticks = 0
        self._process = None
        self._pending_rules: List[object] = []

    # -- wiring --------------------------------------------------------------------

    def add_rule(self, rule) -> None:
        """Register a rule (before or after :meth:`attach`)."""
        if self.alerts is None:
            self._pending_rules.append(rule)
        else:
            self.alerts.add_rule(rule)

    def attach(self, engine, tenants=None) -> None:
        """Bind to an engine: register gauges, listener, default rules.

        ``tenants`` is a name -> Tenant mapping (or iterable of Tenant);
        tenants with an SLO get their good/total counter pair registered
        eagerly so the series exist from the first tick.
        """
        if self.engine is not None:
            raise ObsError("observability plane is already attached")
        self.engine = engine
        self.env = engine.env
        self.metrics = engine.metrics
        self.alerts = AlertEngine(self.registry, metrics=self.metrics,
                                  exemplars=self.exemplars)
        self.drift = ModelDriftDetector(cluster=engine.cluster)
        # The engine's own gauges (queue depths, flows, dirty bytes,
        # plus datasvc / control-plane chains) become rule targets too.
        engine.register_telemetry(self.registry)
        self._register_derived_series()
        self.metrics.add_event_listener(self._on_event)
        for tenant in self._iter_tenants(tenants):
            if tenant.slo_s is not None:
                self._ensure_slo_series(tenant.name)
        self._install_default_rules()
        for rule in self._pending_rules:
            self.alerts.add_rule(rule)
        del self._pending_rules[:]

    @staticmethod
    def _iter_tenants(tenants):
        if tenants is None:
            return ()
        if hasattr(tenants, "values"):
            return tuple(tenants.values())
        return tuple(tenants)

    def _ensure_slo_series(self, tenant: str) -> None:
        if tenant in self._slo_total:
            return
        self._slo_total[tenant] = 0
        self._slo_good[tenant] = 0
        self.registry.counter(
            SLO_TOTAL_METRIC,
            "SLO-scoped requests reaching a terminal outcome",
            lambda t=tenant: float(self._slo_total[t]), tenant=tenant)
        self.registry.counter(
            SLO_GOOD_METRIC,
            "SLO-scoped requests that completed within their SLO",
            lambda t=tenant: float(self._slo_good[t]), tenant=tenant)

    def _register_derived_series(self) -> None:
        engine_name = self.engine.name
        for machine in self.engine.cluster.machines:
            machine_id = machine.machine_id
            self._relrate[machine_id] = 1.0
            self.registry.gauge(
                RELRATE_METRIC,
                "Source machine's recent transfer throughput relative "
                "to the cluster median (1.0 = typical)",
                lambda m=machine_id: self._relrate[m],
                machine=machine_id)
        self.registry.gauge(
            DRIFT_METRIC,
            "Recent job-time drift vs the template-calibrated ideal-"
            "model baseline (1.0 = on baseline)",
            lambda: self.drift.drift_ratio(), engine=engine_name)
        self.registry.counter(
            "repro_obs_unattributable_jobs",
            "Completed jobs the ideal model could not score",
            lambda: float(self.drift.unattributable_count()),
            engine=engine_name)
        self.registry.counter(
            "repro_obs_journal_events_total",
            "Events the journal has observed (dropped ones included)",
            lambda: float(self.journal.total))
        self.registry.gauge(
            "repro_obs_alerts_firing",
            "Alerts currently in the firing state",
            lambda: float(len(self.alerts.firing())))
        self.registry.gauge(
            OVERHEAD_METRIC,
            "Observability-plane wall-clock cost per simulated second",
            lambda: self.overhead()["ms_per_sim_s"])
        plane = getattr(self.engine, "controlplane", None)
        if plane is not None:
            for driver in plane.drivers:
                self.registry.gauge(
                    DRIVER_UP_METRIC,
                    "Driver replica liveness (1 = up)",
                    lambda d=driver.driver_id:
                        0.0 if plane.driver_is_down(d) else 1.0,
                    driver=driver.driver_id)

    def _install_default_rules(self) -> None:
        if self._slo_total:
            self.alerts.add_rule(BurnRateRule(
                name="slo-burn", good_metric=SLO_GOOD_METRIC,
                total_metric=SLO_TOTAL_METRIC,
                objective=SLO_OBJECTIVE, severity="critical",
                summary="tenant is burning its SLO error budget"))
            self.alerts.add_rule(AbsenceRule(
                name="slo-signal", metric=SLO_TOTAL_METRIC,
                stale_after_s=15.0,
                severity="warning",
                summary="SLO request counters stopped being sampled"))
        self.alerts.add_rule(ThresholdRule(
            name="source-slow", metric=RELRATE_METRIC, op="<",
            threshold=SOURCE_SLOW_THRESHOLD,
            window_s=2 * INTERVAL_S, agg="last",
            for_s=2 * INTERVAL_S, severity="critical",
            summary="machine's network uplink is serving transfers far "
                    "below the cluster-typical rate"))
        self.alerts.add_rule(ThresholdRule(
            name="model-drift", metric=DRIFT_METRIC, op=">",
            threshold=DRIFT_ENVELOPE, window_s=5.0, agg="last",
            severity="warning",
            summary="measured job times drifted outside the ideal "
                    "model's envelope"))
        if getattr(self.engine, "controlplane", None) is not None:
            self.alerts.add_rule(ThresholdRule(
                name="driver-down", metric=DRIVER_UP_METRIC, op="<",
                threshold=0.5, window_s=5.0, agg="last", severity="critical",
                summary="driver replica is down"))

    # -- event stream --------------------------------------------------------------

    def _on_event(self, record) -> None:
        """The collector's listener hook: journal + SLO/drift feeds."""
        if isinstance(record, ServeRecord):
            self._observe_serve(record)
            return  # serve records are accounting, not journal events
        self.journal.observe(record)

    def _observe_serve(self, record: ServeRecord) -> None:
        if record.slo_s is not None:
            self._ensure_slo_series(record.tenant)
            self._slo_total[record.tenant] += 1
            if record.slo_met:
                self._slo_good[record.tenant] += 1
        if record.outcome != "completed" or record.job_id < 0:
            return
        now = self.env.now
        self.drift.observe_job(self.metrics, record.job_id,
                               tenant=record.tenant, at=now,
                               template=record.template)
        self._record_exemplars(record, now)

    def _record_exemplars(self, record: ServeRecord, now: float) -> None:
        try:
            report = self.metrics.critical_path_report(
                record.job_id, engine=self.engine.name)
        except SimulationError:
            return  # unknown or unfinished job: no exemplar
        segments = [s for s in report.segments if s.span_id >= 0]
        if not segments:
            return
        worst = max(segments,
                    key=lambda s: (s.duration, s.start, s.span_id))
        where = ("driver" if worst.machine_id < 0
                 else f"machine {worst.machine_id}")
        exemplar = Exemplar(
            t=now, value=record.latency_s,
            trace_id=self.metrics.job_trace_id(record.job_id),
            span_id=worst.span_id,
            detail=(f"job {record.job_id} spent {worst.duration:.3f}s of "
                    f"critical path on {worst.label} ({where})"))
        self.exemplars.record(WORST_JOB_METRIC, (), exemplar)
        if record.slo_s is not None:
            labels: Labels = (("tenant", record.tenant),)
            self.exemplars.record(SLO_TOTAL_METRIC, labels, exemplar)
        if worst.machine_id >= 0:
            self.exemplars.record(
                RELRATE_METRIC,
                (("machine", str(worst.machine_id)),), exemplar)

    # -- the tick ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the tick (needs attach); a no-op while ticking, an error
        once stopped."""
        if self.engine is None:
            raise ObsError("attach() the plane to an engine before "
                           "start()")
        if self._process is None:
            self._sim_start = self.env.now
            self._process = self.env.every(INTERVAL_S, self._tick)
        elif not self._process.is_alive:
            raise SimulationError("a stopped plane cannot restart")

    def stop(self) -> None:
        """Stop ticking now (idempotent)."""
        if self._process is not None:
            self._process.cancel()

    def _tick(self) -> None:
        now = self.env.now
        wall_start = time.perf_counter()
        self._refresh_relrates(now)
        self.registry.sample(now)
        self.alerts.evaluate(now)
        self.ticks += 1
        self._overhead_wall_s += time.perf_counter() - wall_start

    def _refresh_relrates(self, now: float) -> None:
        """Fold new transfers in; recompute per-source relative rates.

        A machine's rate is the *median* of its recent per-flow
        throughputs, not a byte-weighted average: a degraded uplink
        slows every flow the machine sources, while a peer is slowed
        only on the minority of its flows destined *to* the sick
        machine (whose downlink is equally degraded) -- the median
        keeps the peers' rates honest, so the sick source stands out
        against the cluster median instead of dragging it down.
        """
        transfers = self.metrics.transfers
        horizon = now - SOURCE_WINDOW_S
        while self._transfer_cursor < len(transfers):
            t = transfers[self._transfer_cursor]
            self._transfer_cursor += 1
            if t.duration > 0:
                self._flows.setdefault(t.src_machine_id, []).append(
                    (t.end, t.nbytes / t.duration))
        rates: Dict[int, float] = {}
        for machine_id, flows in self._flows.items():
            flows[:] = [f for f in flows if f[0] >= horizon]
            if flows:
                rates[machine_id] = percentile([f[1] for f in flows], 50.0)
        observed = [rates[m] for m in sorted(rates)]
        if not observed:
            for machine_id in self._relrate:
                self._relrate[machine_id] = 1.0
            return
        median = percentile(observed, 50.0)
        for machine_id in self._relrate:
            rate = rates.get(machine_id)
            if rate is None or median <= 0:
                self._relrate[machine_id] = 1.0
            else:
                self._relrate[machine_id] = rate / median

    # -- reading -------------------------------------------------------------------

    def firing(self) -> List[Alert]:
        """Currently firing alerts, sorted by (rule, labels)."""
        return self.alerts.firing() if self.alerts is not None else []

    def alert_timeline(self) -> List:
        """Every alert transition recorded so far, in time order."""
        return list(self.alerts.transitions) \
            if self.alerts is not None else []

    def drift_verdicts(self) -> List[DriftVerdict]:
        """Retained drift verdicts, oldest first."""
        return list(self.drift.verdicts) if self.drift is not None else []

    def overhead(self) -> Dict[str, float]:
        """The self-overhead account (wall-clock; not deterministic).

        ``ms_per_sim_s`` is the headline number the benchmark budget
        gates: milliseconds of real CPU the whole pipeline (relrate
        refresh + sampling + rule evaluation + listener fan-out costs
        charged inside the tick) spent per simulated second observed.
        """
        sim_s = 0.0
        if self._sim_start is not None and self.env is not None:
            sim_s = self.env.now - self._sim_start
        return {
            "wall_s": self._overhead_wall_s,
            "sim_s": sim_s,
            "ticks": float(self.ticks),
            "ms_per_sim_s": (1000.0 * self._overhead_wall_s / sim_s
                             if sim_s > 0 else 0.0),
        }
