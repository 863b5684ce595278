"""Tail latency under a gray failure, with and without health exclusion.

Not a paper figure -- the paper's clusters fail cleanly.  This benchmark
degrades one machine's NIC to a tenth of its bandwidth partway into a
continuous word-count request stream and serves the same trace twice on
MonoSpark: once with the online health monitor (which attributes the
slowness to the sick machine's network and excludes it) and once
without.  The monitor-on run should show materially lower tail latency,
because jobs stop fetching shuffle data through the degraded uplink.
"""

from helpers import emit, make_cluster, once

from repro import AnalyticsContext
from repro.faults import FaultInjector, fail_slow_plan
from repro.health import HealthMonitor, HealthPolicy
from repro.metrics.events import HealthEventRecord
from repro.serve import (AdmissionController, JobServer, PoissonArrivals,
                         wordcount_template)

FRACTION = 0.01
MACHINES = 4
SEED = 42
DURATION_S = 600.0
RATE = 0.1            # ~60 arrivals over the horizon
SLO_S = 30.0
DEGRADE_MACHINE = 1
DEGRADE_AT = 30.0
FACTOR = 10.0


def serve_stream(monitor_on):
    cluster = make_cluster("hdd", MACHINES, 2, FRACTION, seed=SEED)
    ctx = AnalyticsContext(cluster, engine="monospark",
                           scheduling_policy="fair")
    plan = fail_slow_plan(machine_id=DEGRADE_MACHINE, at=DEGRADE_AT,
                          factor=FACTOR)
    FaultInjector(ctx.engine, plan).start()
    health = (HealthMonitor(ctx.engine, HealthPolicy())
              if monitor_on else None)
    server = JobServer(ctx,
                       admission=AdmissionController(max_queued_jobs=6),
                       policy="weighted_fair", max_concurrent_jobs=3,
                       seed=SEED, health=health)
    server.add_tenant("interactive", weight=1.0, slo_s=SLO_S)
    server.add_workload(
        "interactive",
        wordcount_template(ctx, num_blocks=8, block_mb=32.0, seed=SEED),
        PoissonArrivals(RATE, horizon_s=DURATION_S))
    report = server.run()
    ctx.engine.env.run()  # drain the monitor's last pending tick
    return ctx, report


def run_all():
    return {label: serve_stream(monitor_on)
            for label, monitor_on in (("monitor on", True),
                                      ("monitor off", False))}


def test_gray_failure_exclusion(benchmark):
    results = once(benchmark, run_all)

    rows = []
    notes = [f"{DURATION_S:.0f}s Poisson word-count stream on monospark, "
             f"machine {DEGRADE_MACHINE} NIC degraded {FACTOR:g}x at "
             f"{DEGRADE_AT:.0f}s (permanent), queue bound 6, "
             f"3 concurrent jobs"]
    for label in ("monitor on", "monitor off"):
        ctx, report = results[label]
        stats = report.tenant("interactive")
        excluded = sorted(ctx.engine.excluded_machines)
        attainment = ("-" if stats.attainment is None
                      else f"{100 * stats.attainment:.1f}%")
        rows.append([
            label, stats.submitted, stats.completed, stats.shed,
            f"{stats.p50_s:.2f}", f"{stats.p95_s:.2f}",
            f"{stats.p99_s:.2f}", attainment,
            ",".join(f"m{m}" for m in excluded) or "-"])
    on_ctx, on_report = results["monitor on"]
    on_excludes = [h for h in on_ctx.metrics.events_of(HealthEventRecord)
                   if h.kind == "exclude"]
    for event in on_excludes:
        notes.append(f"t={event.at:.1f}s: excluded m{event.machine_id} "
                     f"({event.resource}, rel rate "
                     f"{event.relative_rate:.3f}, {event.detail})")

    emit("gray_failure", "Gray failure: health exclusion on vs off "
         "(monospark)",
         ["run", "jobs", "done", "shed", "p50 (s)", "p95 (s)", "p99 (s)",
          "attained", "excluded"],
         rows, notes=notes)

    off_ctx, off_report = results["monitor off"]
    on_stats = on_report.tenant("interactive")
    off_stats = off_report.tenant("interactive")

    # The monitor found the sick machine and blamed its network.
    excludes = [h for h in on_excludes if h.machine_id == DEGRADE_MACHINE]
    assert excludes, "monitor never excluded the degraded machine"
    assert all(e.resource == "network" for e in excludes)
    assert DEGRADE_MACHINE in on_ctx.engine.excluded_machines
    # Without the monitor nothing is excluded and the tail stays slow.
    assert not off_ctx.engine.excluded_machines
    assert on_stats.p95_s < off_stats.p95_s
    # The report carries the exclusion timeline and attribution.
    assert "Exclusion timeline" in on_report.format()
    assert "Fail-slow attribution" in on_report.format()
