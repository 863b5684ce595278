"""Sort under a mid-job machine crash: recovery in both engines.

Not a paper figure -- the paper inherits Spark's fault-tolerance story
("like Spark, MonoSpark re-executes tasks to recover from failures",
§4) and never measures it.  This benchmark exercises that inherited
story: one worker dies partway through the sort and restarts later;
both engines must finish via retries and lineage re-execution, at a
bounded overhead over the fault-free run.
"""

from helpers import emit, make_cluster, once

from repro import GB, AnalyticsContext
from repro.faults import FaultInjector, FaultPlan, MachineCrash
from repro.metrics.events import FaultEventRecord
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort)

FRACTION = 0.01
MACHINES = 8
NUM_TASKS = 64
CRASH_MACHINE = 1
RESTART_AFTER = 15.0


def run_engine(engine, plan=None):
    cluster = make_cluster("hdd", MACHINES, 2, FRACTION)
    workload = SortWorkload(total_bytes=600 * GB * FRACTION,
                            values_per_key=25, num_map_tasks=NUM_TASKS)
    generate_sort_input(cluster, workload)
    ctx = AnalyticsContext(cluster, engine=engine)
    if plan is not None:
        FaultInjector(ctx.engine, plan).start()
    result = run_sort(ctx, workload)
    return ctx, result


def run_all():
    results = {}
    for engine in ("spark", "monospark"):
        _, baseline = run_engine(engine)
        crash_at = baseline.duration * 0.35
        plan = FaultPlan([MachineCrash(at=crash_at,
                                       machine_id=CRASH_MACHINE,
                                       restart_after=RESTART_AFTER)])
        ctx, crashed = run_engine(engine, plan)
        results[engine] = (baseline, crashed, ctx)
    return results


def test_sort_survives_machine_crash(benchmark):
    results = once(benchmark, run_all)

    rows = []
    for engine in ("spark", "monospark"):
        baseline, crashed, ctx = results[engine]
        outcomes = ctx.metrics.attempt_outcome_counts(crashed.job_id)
        retries = ctx.metrics.retry_count(crashed.job_id)
        rows.append([engine, f"{baseline.duration:.1f}",
                     f"{crashed.duration:.1f}",
                     f"{crashed.duration / baseline.duration:.2f}x",
                     outcomes.get("killed", 0),
                     outcomes.get("fetch-failed", 0), retries])
    emit("fault_recovery",
         f"600 GB sort (fraction {FRACTION}) with a mid-job crash, "
         f"{MACHINES} workers x 2 HDD",
         ["engine", "fault-free (s)", "crashed (s)", "overhead",
          "killed", "fetch-failed", "retries"],
         rows,
         notes=[f"machine {CRASH_MACHINE} dies at 35% of the fault-free "
                f"runtime, restarts {RESTART_AFTER:.0f}s later"])

    for engine in ("spark", "monospark"):
        baseline, crashed, ctx = results[engine]
        # Recovery happened (the crash killed work / lost map output) ...
        assert ctx.metrics.retry_count(crashed.job_id) > 0
        assert [f.kind for f in ctx.metrics.events_of(FaultEventRecord)] == \
            ["machine-crash", "machine-restart"]
        # ... the job finished, slower than fault-free but not unboundedly
        # (losing 1/8 of the cluster for a while should not triple time).
        assert crashed.duration > baseline.duration
        assert crashed.duration < baseline.duration * 3.0
        # ... and a churn-heavy run leaks nothing into the event queue.
        env = ctx.cluster.env
        env.run()
        assert env.queue_size == 0
