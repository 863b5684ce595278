"""Surviving a mid-job machine crash -- fault injection and recovery.

The paper's framework inherits Spark's fault-tolerance story (§4: "like
Spark, MonoSpark re-executes tasks to recover from failures").  This
example kills one worker partway through a sort: its in-flight attempts
die, its shuffle output vanishes, and the engine recovers by re-running
the lost map tasks from lineage -- all visible in the attempt log the
framework already keeps.

Run:  python examples/fault_recovery.py
"""

from repro import AnalyticsContext, GB, hdd_cluster
from repro.faults import FaultInjector, FaultPlan, MachineCrash
from repro.metrics.report import format_fault_report
from repro.workloads.scaling import scaled_memory_overrides
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort)

FRACTION = 0.01
CRASH_MACHINE = 1
RESTART_AFTER = 15.0


def run(plan=None):
    cluster = hdd_cluster(num_machines=4,
                          **scaled_memory_overrides(FRACTION))
    workload = SortWorkload(total_bytes=600 * GB * FRACTION,
                            values_per_key=25, num_map_tasks=32)
    generate_sort_input(cluster, workload)
    ctx = AnalyticsContext(cluster, engine="monospark")
    if plan is not None:
        FaultInjector(ctx.engine, plan).start()
    result = run_sort(ctx, workload)
    return ctx, result


def main():
    _, healthy = run()
    print(f"fault-free run: {healthy.duration:.1f}s")

    crash_at = healthy.duration * 0.4
    plan = FaultPlan([MachineCrash(at=crash_at, machine_id=CRASH_MACHINE,
                                   restart_after=RESTART_AFTER)])
    ctx, crashed = run(plan)
    slowdown = crashed.duration / healthy.duration
    print(f"machine {CRASH_MACHINE} crashes at {crash_at:.1f}s, "
          f"restarts {RESTART_AFTER:.0f}s later: "
          f"{crashed.duration:.1f}s ({slowdown:.2f}x)\n")

    print(format_fault_report(ctx.metrics, crashed.job_id))
    print()

    outcomes = ctx.metrics.attempt_outcome_counts(crashed.job_id)
    print(f"the crash killed {outcomes.get('killed', 0)} running attempts; "
          f"{outcomes.get('fetch-failed', 0)} reducers hit missing map "
          "output and")
    print("waited while the engine re-ran the lost maps from lineage --")
    print("the job still finished with the fault-free answer.")


if __name__ == "__main__":
    main()
