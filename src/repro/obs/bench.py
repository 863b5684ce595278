"""Observability benchmark: alert timelines, detection latency, overhead.

Three seeded, deterministic scenarios pin the streaming alerting
plane's claims (ISSUE 9; the paper's §6.6 "performance clarity as a
health signal" recast online):

* **Fault-free** -- a light Poisson serving stream with the full plane
  attached.  The gate: *zero* alerts fire and every scored drift
  verdict stays inside the envelope, so the default rulebook has no
  false positives on a healthy cluster.  This run also measures the
  plane's self-overhead (wall-clock ms per simulated second), which
  the bench's gate holds under the documented budget.
* **Fail-slow** -- machine 1's network degrades 10x at t=5s under an
  SLO-bearing tenant, with the health monitor running alongside.  The
  gates: the ``source-slow`` alert names machine 1, the ``slo-burn``
  alert names the tenant, both fire *before* the health monitor
  excludes the machine (the alert is the early warning, the exclusion
  the remediation), and the firing alert's exemplar span resolves to a
  real critical-path span in the trace store.
* **Driver-crash** -- the control-plane leader fail-stops mid-run; the
  ``driver-down`` alert names the dead replica and the journal records
  the crash as critical.

Every invariant is a deterministic function of the seed: the benchmark
runs the scenario set twice and raises on any cross-run drift, so CI
diffs the committed ``BENCH_obs.json`` invariants exactly.  Wall-clock
overhead is machine-dependent -- it is budget-gated, never diffed.

``scripts/bench_trajectory.py --bench obs`` runs :data:`BENCH`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.trajectory import Bench, repeat_deterministic

__all__ = ["ObsWorkload", "BENCH"]


@dataclass(frozen=True)
class ObsWorkload:
    """The seeded scenarios the observability benchmark drives."""

    machines: int = 4
    disks: int = 2
    seed: int = 1
    #: Plane's own wall-clock budget: ms of real CPU per simulated
    #: second observed.  Generous vs the ~0.2 measured locally so slow
    #: CI machines gate gross regressions, not scheduler noise.
    overhead_budget_ms_per_sim_s: float = 50.0
    # Fault-free scenario: light open-loop stream, lenient SLO.
    free_rate_per_s: float = 0.05
    free_horizon_s: float = 120.0
    free_slo_s: float = 120.0
    free_num_blocks: int = 2
    free_block_mb: float = 8.0
    # Fail-slow scenario: machine 1's NIC degrades under a tight SLO.
    slow_machine: int = 1
    slow_at: float = 5.0
    slow_factor: float = 10.0
    slow_tenant: str = "analytics"
    slow_slo_s: float = 3.0
    slow_num_blocks: int = 4
    slow_block_mb: float = 16.0
    slow_jobs: int = 20
    slow_period_s: float = 2.5
    # Driver-crash scenario: the leader replica dies mid-run.
    crash_num_drivers: int = 2
    crash_driver: int = 1
    crash_at: float = 15.0
    crash_rate_per_s: float = 0.3
    crash_horizon_s: float = 40.0
    crash_tenants: int = 4


def _timeline(obs) -> List[Dict]:
    """The alert transitions as plain, exactly-diffable dicts."""
    return [{
        "t": round(record.at, 3),
        "rule": record.rule,
        "kind": record.kind,
        "labels": record.labels,
        "value": (None if record.value != record.value
                  else round(record.value, 3)),
        "exemplar": (f"{record.trace_id}/{record.span_id}"
                     if record.span_id >= 0 else ""),
    } for record in obs.alert_timeline()]


def _journal_counts(obs) -> Dict[str, int]:
    counts = {"critical": 0, "warning": 0, "info": 0}
    for event in obs.journal.events():
        counts[event.severity] += 1
    counts["dropped"] = obs.journal.dropped
    return counts


def _exemplar_resolves(metrics, record) -> bool:
    """Does the firing alert's exemplar point at a real stored span?"""
    if record.span_id < 0 or not record.trace_id.startswith("job-"):
        return False
    job_id = int(record.trace_id[len("job-"):])
    return any(span.span_id == record.span_id
               for span in metrics.spans_for_job(job_id))


def _first(timeline_records, rule: str, kind: str):
    for record in timeline_records:
        if record.rule == rule and record.kind == kind:
            return record
    return None


def _fault_free(workload: ObsWorkload):
    """Healthy stream: the rulebook must stay silent."""
    from repro.api.context import AnalyticsContext
    from repro.cluster import hdd_cluster
    from repro.obs import ObservabilityPlane
    from repro.serve import JobServer
    from repro.serve.workload import PoissonArrivals, wordcount_template

    cluster = hdd_cluster(num_machines=workload.machines,
                          num_disks=workload.disks, seed=workload.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    obs = ObservabilityPlane()
    server = JobServer(ctx, seed=workload.seed, obs=obs)
    server.add_tenant("batch", slo_s=workload.free_slo_s)
    template = wordcount_template(ctx,
                                  num_blocks=workload.free_num_blocks,
                                  block_mb=workload.free_block_mb)
    server.add_workload("batch", template,
                        PoissonArrivals(workload.free_rate_per_s,
                                        horizon_s=workload.free_horizon_s))
    report = server.run()
    timeline = _timeline(obs)
    if timeline:
        raise AssertionError(
            f"fault-free run fired alerts: {timeline}")
    verdicts = obs.drift_verdicts()
    drifting = [v for v in verdicts if v.drifting]
    if drifting:
        raise AssertionError(
            f"fault-free run drifted off its own baseline: {drifting}")
    invariants = {
        "completed": report.total_completed,
        "alert_transitions": 0,
        "drift_scored": sum(1 for v in verdicts if v.attributable),
        "drift_outside_envelope": 0,
        "journal": _journal_counts(obs),
    }
    return invariants, obs.overhead()


def _fail_slow(workload: ObsWorkload) -> Dict:
    """Machine 1 fails slow: alerts must name it before exclusion."""
    from repro.api.context import AnalyticsContext
    from repro.cluster import hdd_cluster
    from repro.faults import FaultInjector, fail_slow_plan
    from repro.health import HealthMonitor, HealthPolicy
    from repro.metrics.events import HealthEventRecord
    from repro.obs import ObservabilityPlane
    from repro.serve import JobServer
    from repro.serve.workload import TraceArrivals, wordcount_template

    cluster = hdd_cluster(num_machines=workload.machines,
                          num_disks=workload.disks, seed=workload.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    plan = fail_slow_plan(machine_id=workload.slow_machine,
                          at=workload.slow_at,
                          factor=workload.slow_factor)
    FaultInjector(ctx.engine, plan).start()
    monitor = HealthMonitor(ctx.engine, HealthPolicy())
    obs = ObservabilityPlane()
    server = JobServer(ctx, seed=workload.seed, health=monitor, obs=obs)
    server.add_tenant(workload.slow_tenant, slo_s=workload.slow_slo_s)
    template = wordcount_template(ctx,
                                  num_blocks=workload.slow_num_blocks,
                                  block_mb=workload.slow_block_mb)
    arrivals = TraceArrivals([1.0 + workload.slow_period_s * i
                              for i in range(workload.slow_jobs)])
    server.add_workload(workload.slow_tenant, template, arrivals)
    report = server.run()

    transitions = obs.alert_timeline()
    source_firing = _first(transitions, "source-slow", "firing")
    if source_firing is None:
        raise AssertionError("fail-slow run never fired source-slow: "
                             f"{_timeline(obs)}")
    expected = f"machine={workload.slow_machine}"
    if expected not in source_firing.labels:
        raise AssertionError(
            f"source-slow fired on {source_firing.labels!r}, "
            f"not {expected}")
    burn_firing = _first(transitions, "slo-burn", "firing")
    if burn_firing is None:
        raise AssertionError("fail-slow run never fired slo-burn: "
                             f"{_timeline(obs)}")
    if f"tenant={workload.slow_tenant}" not in burn_firing.labels:
        raise AssertionError(
            f"slo-burn fired on {burn_firing.labels!r}, not tenant="
            f"{workload.slow_tenant}")
    excludes = [h for h in ctx.metrics.events_of(HealthEventRecord)
                if h.kind == "exclude"]
    if not excludes:
        raise AssertionError("health monitor never excluded the "
                             "fail-slow machine")
    excluded_at = excludes[0].at
    if not source_firing.at < excluded_at:
        raise AssertionError(
            f"source-slow fired at {source_firing.at} but the health "
            f"monitor had already excluded at {excluded_at} -- the "
            f"alert is supposed to be the early warning")
    for record in (source_firing, burn_firing):
        if not _exemplar_resolves(ctx.metrics, record):
            raise AssertionError(
                f"{record.rule} exemplar {record.trace_id}/"
                f"{record.span_id} does not resolve to a stored span")
    return {
        "completed": report.total_completed,
        "timeline": _timeline(obs),
        "source_slow_fired_at": round(source_firing.at, 3),
        "slo_burn_fired_at": round(burn_firing.at, 3),
        "health_excluded_at": round(excluded_at, 3),
        "detection_latency_s": round(
            source_firing.at - workload.slow_at, 3),
        "alert_led_exclusion_by_s": round(
            excluded_at - source_firing.at, 3),
        "exemplars_resolve": True,
        "journal": _journal_counts(obs),
    }


def _driver_crash(workload: ObsWorkload) -> Dict:
    """The control-plane leader dies: driver-down must name it."""
    from repro.api.context import AnalyticsContext
    from repro.cluster import hdd_cluster
    from repro.controlplane import ControlPlane
    from repro.faults import DriverCrash, FaultInjector, FaultPlan
    from repro.obs import ObservabilityPlane
    from repro.serve.workload import PoissonArrivals, wordcount_template

    cluster = hdd_cluster(num_machines=workload.machines,
                          num_disks=workload.disks, seed=workload.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    obs = ObservabilityPlane()
    plane = ControlPlane(ctx, num_drivers=workload.crash_num_drivers,
                         seed=workload.seed, obs=obs)
    template = wordcount_template(ctx, num_blocks=1, block_mb=2.0)
    for i in range(workload.crash_tenants):
        tenant = f"tenant{i}"
        plane.add_tenant(tenant)
        plane.add_workload(
            tenant, template,
            PoissonArrivals(workload.crash_rate_per_s,
                            horizon_s=workload.crash_horizon_s))
    FaultInjector(ctx.engine, FaultPlan([
        DriverCrash(at=workload.crash_at,
                    driver_id=workload.crash_driver)])).start()
    report = plane.run()

    transitions = obs.alert_timeline()
    down_firing = _first(transitions, "driver-down", "firing")
    if down_firing is None:
        raise AssertionError("driver crash never fired driver-down: "
                             f"{_timeline(obs)}")
    expected = f"driver={workload.crash_driver}"
    if expected not in down_firing.labels:
        raise AssertionError(
            f"driver-down fired on {down_firing.labels!r}, "
            f"not {expected}")
    counts = _journal_counts(obs)
    if counts["critical"] < 1:
        raise AssertionError(
            f"driver crash left no critical journal events: {counts}")
    return {
        "completed": report.total_completed,
        "jobs_lost": report.jobs_lost,
        "driver_down_fired_at": round(down_firing.at, 3),
        "driver_down_labels": down_firing.labels,
        "timeline": _timeline(obs),
        "journal": counts,
    }


def _once(workload: ObsWorkload) -> Tuple[Dict, Tuple[float, ...]]:
    """One pass over the three scenarios: invariants, overhead timing."""
    free, overhead = _fault_free(workload)
    return {
        "fault_free": free,
        "fail_slow": _fail_slow(workload),
        "driver_crash": _driver_crash(workload),
    }, (overhead["ms_per_sim_s"], overhead["ticks"], overhead["sim_s"])


def _run(repeats: int, committed: Optional[Dict]) -> Dict:
    """The dict ``BENCH_obs.json`` holds.

    ``observed_overhead`` is the best (lowest ms per simulated second)
    measurement across repeats: wall clock is the machine's, not the
    seed's, so it is budget-gated, never diffed.
    """
    workload = ObsWorkload()
    invariants, (ms_per_sim_s, ticks, sim_s) = repeat_deterministic(
        lambda: _once(workload), repeats)
    return {
        "benchmark": "obs_alerting",
        "workload": asdict(workload),
        "repeats": repeats,
        "invariants": invariants,
        "observed_overhead": {
            "ms_per_sim_s": round(ms_per_sim_s, 4),
            "ticks": int(ticks),
            "sim_s": round(sim_s, 3),
            "note": "wall-clock; budget-gated, not diffed",
        },
    }


def _gate(result: Dict) -> List[str]:
    """The plane's self-overhead must stay under the workload's budget."""
    budget = result["workload"]["overhead_budget_ms_per_sim_s"]
    measured = result["observed_overhead"]["ms_per_sim_s"]
    if measured > budget:
        return [f"observability self-overhead {measured} ms per "
                f"simulated second exceeds the {budget} ms budget"]
    return []


BENCH = Bench("obs", _run, timing=("observed_overhead",), gate=_gate)
