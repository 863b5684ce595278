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

from repro.metrics.events import HealthEventRecord
from repro.obs import format_labels
from repro.xray import CanonicalRun, build_run

#: The obs benchmark's fail-slow stream, trimmed to 12 jobs: machine
#: 1's NIC degrades 10x at t=5s under a 3 s SLO, health monitor on.
RUN = CanonicalRun(block_mb=16.0, health=True).degraded(1)


def main():
    ctx, server, obs, _ = build_run(RUN)

    print(f"== machine {RUN.degrade_machine} NIC degraded "
          f"{RUN.degrade_factor:g}x at t={RUN.degrade_at:.0f}s; tenant "
          f"'{RUN.tenant}' holds a {RUN.slo_s:g}s SLO ==\n")
    report = server.run()

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
