"""Streaming alerts: name the sick machine while the incident unfolds.

The health monitor (gray_failure.py) eventually *excludes* a fail-slow
machine -- but exclusion is a deliberate, evidence-gathering decision.
The observability plane pages earlier: burn-rate rules notice the
tenant's SLO budget burning within a couple of jobs, per-machine
relative-rate rules name the machine that owns the slow NIC, and each
firing alert carries an exemplar -- the critical-path span of the worst
recent job -- so the on-call jumps straight from the alert to the span
that paid for the slowdown.  Every transition also lands in a unified
event journal next to the fault injection and the health monitor's own
decisions, in severity order, on simulated time: the same seed replays
the identical timeline.

Run:  python examples/alerting.py
"""

from repro import AnalyticsContext, hdd_cluster
from repro.faults import FaultInjector, fail_slow_plan
from repro.health import HealthMonitor, HealthPolicy
from repro.metrics.events import HealthEventRecord
from repro.obs import ObservabilityPlane, format_labels
from repro.serve import JobServer, TraceArrivals, wordcount_template

MACHINES = 4
DEGRADE_MACHINE = 1
DEGRADE_AT = 5.0
FACTOR = 10.0
JOBS = 12
PERIOD_S = 2.5
SLO_S = 3.0


def main():
    cluster = hdd_cluster(num_machines=MACHINES, num_disks=2, seed=1)
    ctx = AnalyticsContext(cluster, engine="monospark")
    plan = fail_slow_plan(machine_id=DEGRADE_MACHINE, at=DEGRADE_AT,
                          factor=FACTOR)
    FaultInjector(ctx.engine, plan).start()
    monitor = HealthMonitor(ctx.engine, HealthPolicy())
    obs = ObservabilityPlane()
    server = JobServer(ctx, seed=1, health=monitor, obs=obs)
    server.add_tenant("analytics", slo_s=SLO_S)
    template = wordcount_template(ctx, num_blocks=MACHINES, block_mb=16.0)
    server.add_workload(
        "analytics", template,
        TraceArrivals([1.0 + PERIOD_S * i for i in range(JOBS)]))

    print(f"== machine {DEGRADE_MACHINE} NIC degraded {FACTOR:g}x at "
          f"t={DEGRADE_AT:.0f}s; tenant 'analytics' holds a "
          f"{SLO_S:g}s SLO ==\n")
    report = server.run()
    obs.close()

    print("alert timeline (what the on-call sees, in order):")
    for record in obs.alert_timeline():
        value = ("" if record.value != record.value
                 else f" value={record.value:.2f}")
        exemplar = (f"  exemplar={record.trace_id}/{record.span_id}"
                    if record.span_id >= 0 else "")
        print(f"  t={record.at:6.2f}  {record.kind:9s} "
              f"{record.rule}{{{record.labels}}}{value}{exemplar}")

    timeline = obs.alert_timeline()
    first_fire = next(r for r in timeline if r.kind == "firing")
    exclude = next(h for h in ctx.metrics.events_of(HealthEventRecord)
                   if h.kind == "exclude")
    print(f"\nfirst alert fired at t={first_fire.at:.1f}s "
          f"({first_fire.rule}{{{first_fire.labels}}}); the health "
          f"monitor excluded machine {exclude.machine_id} at "
          f"t={exclude.at:.1f}s -- the alert led the exclusion by "
          f"{exclude.at - first_fire.at:.1f}s.")

    fired = [r for r in timeline if r.kind == "firing" and r.span_id >= 0]
    worst = fired[0]
    spans = {s.span_id: s for s in
             ctx.metrics.spans_for_job(int(worst.trace_id.split("-")[1]))}
    span = spans[worst.span_id]
    print(f"the exemplar resolves to a real span: {worst.trace_id}/"
          f"{worst.span_id} is '{span.name}' "
          f"[{span.start:.2f}s, {span.end:.2f}s] -- "
          f"the worst critical-path contributor behind the page.")

    verdicts = obs.drift_verdicts()
    drifting = [v for v in verdicts if v.drifting]
    print(f"\nmodel drift: {len(verdicts)} completed jobs scored "
          f"against the ideal model; {len(drifting)} outside the "
          f"envelope (template-calibrated, so the small-job bias does "
          f"not page).")

    still = [f"{a.rule}{{{format_labels(a.labels)}}}"
             for a in obs.firing()]
    print(f"still firing at drain: {', '.join(still) or 'none'}")

    print(f"\nunified event journal (faults, health, alerts -- one "
          f"severity-leveled stream):")
    print(obs.journal.format())

    print(f"\nserved {report.total_completed} jobs; the same seed "
          f"replays this timeline byte-for-byte.")


if __name__ == "__main__":
    main()
