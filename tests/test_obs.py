"""Tests for the streaming observability plane (``repro.obs``)."""

import json
from dataclasses import replace

import pytest

from repro.api.context import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.errors import ObsError, SimulationError
from repro.faults import FaultInjector
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import (AlertEventRecord, DriverEventRecord,
                                  FaultEventRecord, HealthEventRecord,
                                  ServeRecord)
from repro.obs import (AbsenceRule, AlertEngine, BurnRateRule, EventJournal,
                       Exemplar, ExemplarStore, ModelDriftDetector,
                       ObservabilityPlane, ThresholdRule, WORST_JOB_METRIC,
                       format_labels)
from repro.obs.bench import ObsWorkload, _fail_slow, _fault_free
from repro.serve import JobServer, TraceArrivals, wordcount_template
from repro.trace.telemetry import TelemetryRegistry
from repro.xray.scenario import CanonicalRun, build_run


def make_engine(**series):
    """An AlertEngine over a registry of mutable scalar gauges.

    ``series`` maps metric name -> initial value; returns (engine,
    registry, values) where mutating ``values[name]`` changes what the
    next ``registry.sample`` records.
    """
    registry = TelemetryRegistry()
    values = dict(series)
    for name in series:
        registry.gauge(name, f"test metric {name}",
                       lambda n=name: values[n])
    return AlertEngine(registry), registry, values


class TestRules:
    def test_validation_rejects_bad_rules(self):
        with pytest.raises(ObsError, match="non-empty name"):
            ThresholdRule(name="", metric="m", op=">", threshold=1.0)
        with pytest.raises(ObsError, match="unknown operator"):
            ThresholdRule(name="r", metric="m", op="!=", threshold=1.0)
        with pytest.raises(ObsError, match="window_s"):
            ThresholdRule(name="r", metric="m", op=">", threshold=1.0,
                          window_s=0.0)
        with pytest.raises(ObsError, match="unknown severity"):
            ThresholdRule(name="r", metric="m", op=">", threshold=1.0,
                          severity="page")
        with pytest.raises(ObsError, match="for_s"):
            AbsenceRule(name="r", metric="m", for_s=-1.0)
        with pytest.raises(ObsError, match="stale_after_s"):
            AbsenceRule(name="r", metric="m", stale_after_s=0.0)
        with pytest.raises(ObsError, match="objective"):
            BurnRateRule(name="r", good_metric="g", total_metric="t",
                         objective=1.0)
        with pytest.raises(ObsError, match="burn thresholds"):
            BurnRateRule(name="r", good_metric="g", total_metric="t",
                         windows=((5.0, 60.0),),
                         burn_thresholds=(14.4, 6.0))
        with pytest.raises(ObsError, match="short < long"):
            BurnRateRule(name="r", good_metric="g", total_metric="t",
                         windows=((60.0, 5.0),), burn_thresholds=(6.0,))

    def test_budget_and_duplicate_names(self):
        rule = BurnRateRule(name="b", good_metric="g", total_metric="t",
                            objective=0.99)
        assert rule.budget == pytest.approx(0.01)
        engine, _, _ = make_engine(m=0.0)
        engine.add_rule(ThresholdRule(name="r", metric="m", op=">",
                                      threshold=1.0))
        with pytest.raises(ObsError, match="already registered"):
            engine.add_rule(AbsenceRule(name="r", metric="m"))
        with pytest.raises(ObsError, match="unknown rule type"):
            engine.add_rule(object())


class TestAlertLifecycle:
    def test_immediate_fire_and_resolve(self):
        engine, registry, values = make_engine(m=0.0)
        engine.add_rule(ThresholdRule(name="hot", metric="m", op=">",
                                      threshold=5.0, window_s=10.0))
        registry.sample(0.0)
        assert engine.evaluate(0.0) == []
        values["m"] = 9.0
        registry.sample(1.0)
        (fired,) = engine.evaluate(1.0)
        assert (fired.kind, fired.rule, fired.at) == ("firing", "hot", 1.0)
        assert fired.value == 9.0
        assert engine.firing()[0].state == "firing"
        values["m"] = 1.0
        registry.sample(2.0)
        (resolved,) = engine.evaluate(2.0)
        assert resolved.kind == "resolved"
        assert resolved.severity == "info"  # only firing carries severity
        assert engine.firing() == [] and engine.history[0].rule == "hot"

    def test_for_s_hold_and_silent_pending_drop(self):
        engine, registry, values = make_engine(m=9.0)
        engine.add_rule(ThresholdRule(name="hot", metric="m", op=">",
                                      threshold=5.0, window_s=10.0,
                                      for_s=3.0))
        registry.sample(0.0)
        (pending,) = engine.evaluate(0.0)
        assert pending.kind == "pending"
        # Recovers before for_s elapses: dropped with no transition.
        values["m"] = 0.0
        registry.sample(1.0)
        assert engine.evaluate(1.0) == []
        assert engine.pending() == [] and engine.firing() == []
        # Holds past for_s: pending then firing, stamped at hold expiry.
        values["m"] = 9.0
        registry.sample(2.0)
        engine.evaluate(2.0)
        registry.sample(4.0)
        assert engine.evaluate(4.0) == []  # still holding
        registry.sample(5.0)
        (fired,) = engine.evaluate(5.0)
        assert (fired.kind, fired.at) == ("firing", 5.0)

    def test_per_series_dedup_by_labels(self):
        registry = TelemetryRegistry()
        depths = {0: 9.0, 1: 1.0}
        for machine in depths:
            registry.gauge("depth", "queue depth",
                           lambda m=machine: depths[m], machine=machine)
        engine = AlertEngine(registry)
        engine.add_rule(ThresholdRule(name="deep", metric="depth", op=">",
                                      threshold=5.0, window_s=10.0))
        registry.sample(0.0)
        (fired,) = engine.evaluate(0.0)
        assert fired.labels == "machine=0"
        # Re-evaluating does not re-fire the same (rule, labels) key.
        registry.sample(1.0)
        assert engine.evaluate(1.0) == []
        depths[1] = 20.0
        registry.sample(2.0)
        (second,) = engine.evaluate(2.0)
        assert second.labels == "machine=1"
        assert len(engine.firing()) == 2

    def test_absence_no_series_and_staleness(self):
        engine, registry, _ = make_engine(m=1.0)
        engine.add_rule(AbsenceRule(name="ghost", metric="never",
                                    stale_after_s=5.0))
        engine.add_rule(AbsenceRule(name="stale", metric="m",
                                    stale_after_s=5.0))
        registry.sample(0.0)
        # At t=4 nothing is stale (both ages are 4 < 5); at t=6 both the
        # never-registered watchdog and the stale series fire.
        assert engine.evaluate(4.0) == []
        transitions = engine.evaluate(6.0)
        assert [t.rule for t in transitions] == ["ghost", "stale"]
        assert transitions[0].labels == "metric=never"
        # Fresh samples resolve the staleness alert.
        registry.sample(7.0)
        resolved = engine.evaluate(7.0)
        assert [t.kind for t in resolved] == ["resolved"]
        assert resolved[0].rule == "stale"


class TestBurnRate:
    def make_slo_engine(self):
        registry = TelemetryRegistry()
        counts = {"good": 0.0, "total": 0.0}
        registry.counter("good", "good requests", lambda: counts["good"],
                         tenant="t0")
        registry.counter("total", "all requests", lambda: counts["total"],
                         tenant="t0")
        engine = AlertEngine(registry)
        engine.add_rule(BurnRateRule(
            name="burn", good_metric="good", total_metric="total",
            objective=0.9, windows=((5.0, 20.0),), burn_thresholds=(2.0,)))
        return engine, registry, counts

    def test_burn_requires_both_windows(self):
        engine, registry, counts = self.make_slo_engine()
        # 100% success for 20s: no burn.
        for t in range(21):
            counts["total"] += 1
            counts["good"] += 1
            registry.sample(float(t))
            assert engine.evaluate(float(t)) == []
        # Sudden 100% failure: burn 10x the 0.1 budget in the short
        # window, but the long window still dilutes below 2x until
        # enough errors accumulate -- then both agree and it fires.
        fired_at = None
        for t in range(21, 41):
            counts["total"] += 1
            registry.sample(float(t))
            transitions = engine.evaluate(float(t))
            if transitions:
                fired_at = (transitions[0].at, transitions[0].kind)
                break
        assert fired_at is not None and fired_at[1] == "firing"
        # Long window (20s) error rate must have reached 0.2 => at
        # least 4 of the last 20 requests failed before firing.
        assert fired_at[0] >= 24.0

    def test_burn_labels_name_the_tenant(self):
        engine, registry, counts = self.make_slo_engine()
        for t in range(10):
            counts["total"] += 1
            registry.sample(float(t))
        transitions = engine.evaluate(9.0)
        assert transitions and transitions[0].labels == "tenant=t0"


class TestExemplars:
    def test_lookup_prefers_exact_then_global(self):
        store = ExemplarStore(window_s=10.0)
        store.record("m", (("machine", "1"),),
                     Exemplar(t=1.0, value=3.0, trace_id="job-1",
                              span_id=10))
        store.record(WORST_JOB_METRIC, (),
                     Exemplar(t=2.0, value=9.0, trace_id="job-2",
                              span_id=20))
        hit = store.lookup("m", (("machine", "1"),), now=5.0)
        assert hit.trace_id == "job-1"
        # No per-series exemplar: falls back to the global worst-job.
        hit = store.lookup("m", (("machine", "2"),), now=5.0)
        assert hit.trace_id == "job-2"
        # Outside the window nothing resolves.
        assert store.lookup("m", (("machine", "1"),), now=50.0) is None

    def test_firing_alert_stamps_exemplar(self):
        registry = TelemetryRegistry()
        values = {"m": 9.0}
        registry.gauge("m", "x", lambda: values["m"])
        exemplars = ExemplarStore()
        exemplars.record("m", (), Exemplar(t=0.0, value=5.0,
                                           trace_id="job-7", span_id=77,
                                           detail="slow span"))
        engine = AlertEngine(registry, exemplars=exemplars)
        engine.add_rule(ThresholdRule(name="hot", metric="m", op=">",
                                      threshold=5.0, window_s=10.0))
        registry.sample(1.0)
        (fired,) = engine.evaluate(1.0)
        assert (fired.trace_id, fired.span_id) == ("job-7", 77)
        assert "worst contributor: slow span" in fired.detail


class TestJournal:
    def test_severity_mapping(self):
        crash = FaultEventRecord(kind="machine-crash", machine_id=1, at=1.0)
        degrade = FaultEventRecord(kind="net-degradation", machine_id=1,
                                   at=1.0)
        assert crash.severity == "critical"
        assert degrade.severity == "warning"
        for kind, severity in [
                ("disk-failure", "critical"), ("storage-crash", "critical"),
                ("driver-crash", "critical"), ("link-partition", "critical"),
                ("driver-partition", "critical"),
                ("disk-failure-skipped", "info"),
                ("driver-crash-skipped", "info"),
                ("storage-crash-skipped", "info"),
                ("net-degradation-skipped", "info"),
                ("driver-partition-heal-skipped", "info"),
                ("driver-partition-heal", "warning"),
                ("link-heal", "warning"), ("machine-restart", "warning"),
                ("cache-invalidation", "warning")]:
            record = FaultEventRecord(kind=kind, machine_id=0, at=0.0)
            assert record.severity == severity, kind
        exclude = HealthEventRecord(kind="exclude", machine_id=1, at=2.0)
        reinstate = HealthEventRecord(kind="reinstate", machine_id=1,
                                      at=3.0)
        assert exclude.severity == "critical"
        assert reinstate.severity == "info"
        lost = DriverEventRecord(kind="lost", driver_id=0, at=3.5)
        leader = DriverEventRecord(kind="leader", driver_id=0, at=3.5)
        assert lost.severity == "critical"
        assert leader.severity == "info"
        # An alert carries its own severity: the alert engine stamps the
        # rule's on a firing transition and info on the others
        # (TestAlertLifecycle checks the stamping).
        firing = AlertEventRecord(kind="firing", rule="r", at=4.0,
                                  severity="critical")
        assert firing.severity == "critical"
        assert [r.source for r in (crash, exclude, lost, firing)] == \
            ["fault", "health", "driver", "alert"]

    def test_skipped_injections_do_not_page(self):
        # A plain job server has no control plane and no data service,
        # so both faults are skipped: the journal rows are info.
        from repro.faults import DriverCrash, FaultPlan, StorageNodeCrash

        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        FaultInjector(ctx.engine, FaultPlan([
            DriverCrash(at=1.0, driver_id=0),
            StorageNodeCrash(at=1.0, node_index=0)])).start()
        obs = ObservabilityPlane()
        server = JobServer(ctx, seed=0, obs=obs)
        server.add_tenant("t")
        template = wordcount_template(ctx, num_blocks=1, block_mb=2.0)
        server.add_workload("t", template, TraceArrivals([2.0]))
        server.run()
        rows = [event.journal_row() for event in obs.journal.events()]
        faults = [(r["kind"], r["severity"]) for r in rows
                  if r["source"] == "fault"]
        assert sorted(faults) == [("driver-crash-skipped", "info"),
                                  ("storage-crash-skipped", "info")]

    def test_bounded_with_drop_counter_and_filters(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.observe(FaultEventRecord(
                kind="net-degradation", machine_id=i, at=float(i)))
        journal.observe(HealthEventRecord(
            kind="exclude", machine_id=9, at=9.0))
        assert len(journal) == 3 and journal.dropped == 3
        assert journal.total == 6
        critical = journal.events(min_severity="critical")
        assert [e.subject for e in critical] == ["machine 9"]
        assert journal.events(source="fault")[0].severity == "warning"
        with pytest.raises(ObsError, match="unknown severity"):
            journal.events(min_severity="fatal")

    def test_format_empty_and_alignment(self):
        journal = EventJournal()
        assert journal.format() == "(journal empty)"
        journal.observe(HealthEventRecord(
            kind="suspect", machine_id=2, at=12.5, resource="network"))
        line = journal.format()
        assert "WARNING" in line and "machine 2 network" in line


class TestDrift:
    def test_template_calibration_then_scoring(self):
        detector = ModelDriftDetector()
        # Bypass profiling: exercise the calibration bookkeeping via
        # the baseline map directly (observe_job needs a full run; the
        # end-to-end path is covered by the serving tests below).
        detector._baselines["wc"] = 18.0
        assert detector.baseline_for("wc") == 18.0
        assert detector.baseline_for("other") != detector.baseline_for(
            "other")  # NaN
        assert detector.drift_ratio() == 1.0  # nothing scored yet

    def test_spark_jobs_are_not_attributable(self):
        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=3)
        ctx = AnalyticsContext(cluster, engine="spark")
        obs = ObservabilityPlane()
        server = JobServer(ctx, seed=3, obs=obs)
        server.add_tenant("t")
        template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
        server.add_workload("t", template, TraceArrivals([1.0, 5.0]))
        server.run()
        verdicts = obs.drift_verdicts()
        assert verdicts and all(not v.attributable for v in verdicts)
        assert all("NOT ATTRIBUTABLE" in v.reason for v in verdicts)
        assert obs.drift.drift_ratio() == 1.0  # gauge stays neutral


class TestCollectorListener:
    def test_alert_records_and_listener_fanout(self):
        metrics = MetricsCollector()
        seen = []
        metrics.add_event_listener(seen.append)
        alert = AlertEventRecord(kind="firing", rule="r", at=1.0)
        fault = FaultEventRecord(kind="machine-crash", machine_id=0, at=2.0)
        serve = ServeRecord(tenant="t", template="wc", arrival=0.5)
        metrics.record_event(alert)
        metrics.record_serve(serve)
        metrics.record_event(fault)
        assert seen == [alert, serve, fault]
        assert metrics.events == [alert, fault]
        assert [a.rule for a in metrics.events_of(AlertEventRecord)
                if a.kind == "firing"] == ["r"]
        assert metrics.events_of(FaultEventRecord) == [fault]
        assert metrics.events_of(HealthEventRecord) == []


@pytest.fixture(scope="module")
def fail_slow_run():
    """One canonical fail-slow serving run with the plane attached."""
    workload = ObsWorkload(fail_slow=replace(ObsWorkload().fail_slow,
                                             jobs=12))
    return _fail_slow(workload), workload


class TestServingIntegration:
    def test_alerts_name_machine_and_tenant_before_exclusion(
            self, fail_slow_run):
        invariants, workload = fail_slow_run
        assert invariants["source_slow_fired_at"] < \
            invariants["health_excluded_at"]
        assert invariants["exemplars_resolve"] is True
        rules_fired = {(row["rule"], row["kind"]): row
                       for row in invariants["timeline"]}
        assert rules_fired[("source-slow", "firing")]["labels"] == \
            f"machine={workload.fail_slow.degrade_machine}"
        assert rules_fired[("slo-burn", "firing")]["labels"] == \
            f"tenant={workload.fail_slow.tenant}"

    def test_fail_slow_journal_interleaves_streams(self, fail_slow_run):
        invariants, _ = fail_slow_run
        counts = invariants["journal"]
        # fault injection (warning) + alert firings and health
        # exclusion (critical) all land in one journal.
        assert counts["critical"] >= 2 and counts["warning"] >= 2
        assert counts["dropped"] == 0

    def test_fault_free_run_is_silent_and_cheap(self):
        workload = ObsWorkload(free_horizon_s=60.0)
        invariants, overhead = _fault_free(workload)
        assert invariants["alert_transitions"] == 0
        assert invariants["drift_outside_envelope"] == 0
        assert invariants["drift_scored"] >= 1
        assert overhead["ms_per_sim_s"] < \
            workload.overhead_budget_ms_per_sim_s

    def test_same_seed_timeline_is_byte_identical(self):
        workload = ObsWorkload(fail_slow=replace(ObsWorkload().fail_slow,
                                                 jobs=10))
        first = _fail_slow(workload)
        second = _fail_slow(workload)
        assert first == second

    def test_report_carries_obs_section(self):
        ctx, server, _, _ = build_run(
            CanonicalRun(block_mb=16.0, jobs=10, health=True).degraded(1))
        report = server.run()
        text = report.format()
        assert "Alert timeline (observability plane)" in text
        assert "source-slow" in text and "machine=1" in text
        assert "Event journal:" in text
        assert report.obs_timeline and report.obs_journal
        # The exemplar column resolves to a real span of a real job.
        fired = [r for r in report.obs_timeline if r.kind == "firing"]
        assert fired and any(r.span_id >= 0 for r in fired)
        for record in fired:
            if record.span_id < 0:
                continue
            job_id = int(record.trace_id[len("job-"):])
            spans = ctx.metrics.spans_for_job(job_id)
            assert any(span.span_id == record.span_id for span in spans)

    def test_attach_is_exclusive_and_start_needs_attach(self):
        obs = ObservabilityPlane()
        with pytest.raises(ObsError, match="attach"):
            obs.start()
        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        obs.attach(ctx.engine)
        with pytest.raises(ObsError, match="already attached"):
            obs.attach(ctx.engine)

    def test_custom_rule_beside_default_rules(self):
        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        obs = ObservabilityPlane()
        obs.add_rule(ThresholdRule(name="always", metric="repro_obs_"
                                   "drift_ratio", op=">=", threshold=0.0,
                                   window_s=10.0))
        obs.attach(ctx.engine)
        assert obs.alerts.rule_names() == ["always", "model-drift",
                                           "source-slow"]
        obs.start()
        server_env = ctx.engine.env
        server_env.run(until=server_env.timeout(3.0))
        obs.stop()
        assert [t.rule for t in obs.alert_timeline()] == ["always"]

    def test_stopped_plane_stays_stopped(self):
        # A restart must not run a second tick loop beside the first,
        # which would evaluate every later instant twice.
        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        obs = ObservabilityPlane()
        obs.attach(ctx.engine)
        obs.start()
        obs.start()  # a no-op while ticking
        env = ctx.engine.env
        env.run(until=2.5)
        obs.stop()
        with pytest.raises(SimulationError, match="restart"):
            obs.start()
        env.run(until=10.5)
        assert obs.ticks == 3


class TestChromeTraceInstants:
    def test_alert_and_driver_instant_events(self, fail_slow_run):
        # Re-run a tiny scenario to get a collector in hand.
        from repro.metrics.chrometrace import DRIVER_PID, trace_events

        ctx, server, _, _ = build_run(
            CanonicalRun(block_mb=16.0, jobs=8).degraded(1))
        server.run()
        events = trace_events(ctx.metrics)
        instants = [e for e in events if e["ph"] == "i"]
        alert_instants = [e for e in instants if e["cat"] == "alert"]
        assert alert_instants, "no alert instant events on whole-run export"
        for event in alert_instants:
            assert event["pid"] == DRIVER_PID
            assert event["tid"] == "alerts"
            assert event["s"] == "g"
            assert event["args"]["rule"]
        # Single-job exports omit instants (their timestamps would
        # dangle outside the job's window).
        job_id = sorted(ctx.metrics.jobs)[0]
        single = trace_events(ctx.metrics, job_id=job_id)
        assert not [e for e in single if e["ph"] == "i"]

    def test_driver_event_instants_from_controlplane(self):
        from repro.controlplane import ControlPlane
        from repro.faults import DriverCrash, FaultPlan
        from repro.metrics.chrometrace import trace_events
        from repro.serve import PoissonArrivals

        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=2)
        ctx = AnalyticsContext(cluster, engine="monospark")
        obs = ObservabilityPlane()
        plane = ControlPlane(ctx, num_drivers=2, seed=2, obs=obs)
        template = wordcount_template(ctx, num_blocks=1, block_mb=2.0)
        plane.add_workload("t0", template,
                           PoissonArrivals(0.3, horizon_s=20.0))
        FaultInjector(ctx.engine, FaultPlan(
            [DriverCrash(at=10.0, driver_id=1)])).start()
        plane.run()
        events = trace_events(ctx.metrics)
        control = [e for e in events
                   if e["ph"] == "i" and e["cat"] == "control"]
        kinds = {e["args"]["kind"] for e in control}
        assert "driver-crash" in kinds
        assert any(k in kinds for k in ("leader", "election"))
        # driver-down alert rides along on the alerts track.
        alert_rules = {e["args"]["rule"] for e in events
                       if e["ph"] == "i" and e["cat"] == "alert"}
        assert "driver-down" in alert_rules

    def test_whole_run_export_validates(self, tmp_path):
        import os
        import subprocess
        import sys

        from repro.controlplane import ControlPlane
        from repro.faults import DriverCrash, FaultPlan
        from repro.metrics.chrometrace import write_chrome_trace
        from repro.serve import PoissonArrivals

        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=2)
        ctx = AnalyticsContext(cluster, engine="monospark")
        plane = ControlPlane(ctx, num_drivers=2, seed=2,
                             obs=ObservabilityPlane())
        template = wordcount_template(ctx, num_blocks=1, block_mb=2.0)
        plane.add_workload("t0", template,
                           PoissonArrivals(0.3, horizon_s=20.0))
        FaultInjector(ctx.engine, FaultPlan(
            [DriverCrash(at=10.0, driver_id=1)])).start()
        plane.run()
        path, _ = write_chrome_trace(ctx.metrics, str(tmp_path / "run.json"))
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(e["ph"] == "i" for e in events)
        script = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "scripts", "validate_trace.py")
        result = subprocess.run([sys.executable, script, path],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stdout
        # An instant with an unknown scope is still rejected.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "x", "ph": "i", "pid": 0, "ts": 1.0, "s": "q"}]}))
        result = subprocess.run([sys.executable, script, str(bad)],
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert "bad instant scope 'q'" in result.stdout


class TestFormatLabels:
    def test_format_labels(self):
        assert format_labels((("machine", "1"), ("resource", "net"))) == \
            "machine=1,resource=net"
        assert format_labels(()) == ""
