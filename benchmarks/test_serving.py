"""Tail latency under continuous multi-tenant load, on both engines.

Not a paper figure -- the paper measures batch jobs one at a time.  This
benchmark runs the same open-loop two-tenant request stream (an
interactive word-count tenant with a latency SLO plus a CPU-bound batch
ML tenant) against Spark and MonoSpark, with a machine crashing and
restarting mid-stream, and reports per-tenant p50/p95/p99 latency, the
queueing-delay vs service-time split, shed counts, and SLO attainment.
The clarity contrast: the MonoSpark report attributes each tenant's
queueing to a specific resource; the Spark report cannot.
"""

from helpers import emit, make_cluster, once

from repro import AnalyticsContext
from repro.faults import FaultInjector, FaultPlan, MachineCrash
from repro.metrics.events import FaultEventRecord
from repro.serve import (AdmissionController, JobServer, PoissonArrivals,
                         ml_template, wordcount_template)

FRACTION = 0.01
MACHINES = 4
SEED = 42
DURATION_S = 600.0
INTERACTIVE_RATE = 0.1   # ~60 arrivals over the horizon
BATCH_RATE = 0.03        # ~18 arrivals
SLO_S = 30.0
CRASH_AT = 150.0
RESTART_AFTER = 60.0


def serve_stream(engine):
    cluster = make_cluster("hdd", MACHINES, 2, FRACTION, seed=SEED)
    ctx = AnalyticsContext(cluster, engine=engine,
                           scheduling_policy="fair")
    plan = FaultPlan([MachineCrash(at=CRASH_AT, machine_id=1,
                                   restart_after=RESTART_AFTER)])
    FaultInjector(ctx.engine, plan).start()

    server = JobServer(ctx,
                       admission=AdmissionController(max_queued_jobs=6),
                       policy="weighted_fair", max_concurrent_jobs=3,
                       seed=SEED)
    server.add_tenant("interactive", weight=2.0, slo_s=SLO_S)
    server.add_tenant("batch", weight=1.0)
    server.add_workload(
        "interactive",
        wordcount_template(ctx, num_blocks=8, block_mb=32.0, seed=SEED),
        PoissonArrivals(INTERACTIVE_RATE, horizon_s=DURATION_S))
    server.add_workload(
        "batch",
        ml_template(ctx, num_partitions=MACHINES, seed=SEED),
        PoissonArrivals(BATCH_RATE, horizon_s=DURATION_S))
    report = server.run()
    return ctx, report


def run_all():
    return {engine: serve_stream(engine)
            for engine in ("spark", "monospark")}


def test_serving_tail_latency(benchmark):
    results = once(benchmark, run_all)

    rows = []
    notes = [f"{DURATION_S:.0f}s Poisson stream, crash machine 1 at "
             f"{CRASH_AT:.0f}s (restart {RESTART_AFTER:.0f}s later), "
             f"weighted fair 2:1, queue bound 6, 3 concurrent jobs"]
    for engine in ("spark", "monospark"):
        _, report = results[engine]
        for stats in report.stats:
            attainment = ("-" if stats.attainment is None
                          else f"{100 * stats.attainment:.1f}%")
            rows.append([
                engine, stats.tenant, stats.submitted, stats.completed,
                stats.shed, f"{stats.p50_s:.2f}", f"{stats.p95_s:.2f}",
                f"{stats.p99_s:.2f}", f"{stats.mean_queue_delay_s:.2f}",
                f"{stats.mean_service_s:.2f}", attainment])
        if report.queue_attribution:
            for tenant, by_resource in sorted(
                    report.queue_attribution.items()):
                split = ", ".join(f"{res} {by_resource[res]:.1f}s"
                                  for res in ("cpu", "disk", "network"))
                notes.append(f"{engine} queueing attribution "
                             f"[{tenant}]: {split}")
        else:
            notes.append(f"{engine}: queueing attribution unavailable "
                         f"(no monotask records)")
    emit("serving",
         f"two-tenant serving under a mid-stream crash, {MACHINES} "
         f"workers x 2 HDD",
         ["engine", "tenant", "jobs", "done", "shed", "p50 (s)",
          "p95 (s)", "p99 (s)", "queue (s)", "service (s)", "SLO"],
         rows, notes=notes)

    for engine in ("spark", "monospark"):
        ctx, report = results[engine]
        # A real stream: >= 50 requests across >= 2 tenants, all
        # accounted for (completed + failed + shed).
        submitted = sum(s.submitted for s in report.stats)
        assert submitted >= 50
        assert len(report.stats) == 2
        for stats in report.stats:
            assert stats.completed > 0
            assert stats.p99_s >= stats.p50_s > 0
        # The crash fired and the machine came back.
        assert [f.kind for f in ctx.metrics.events_of(FaultEventRecord)] == \
            ["machine-crash", "machine-restart"]
        # No leaked events after the stream drains.
        env = ctx.cluster.env
        env.run()
        assert env.queue_size == 0

    # The clarity contrast, as data: only MonoSpark attributes queueing
    # to resources.
    _, spark_report = results["spark"]
    _, mono_report = results["monospark"]
    assert not spark_report.queue_attribution
    assert mono_report.queue_attribution
    assert any(v > 0 for by_resource in
               mono_report.queue_attribution.values()
               for v in by_resource.values())
