"""Gray failure: a machine that is slow, not dead -- and who can tell.

A NIC that silently drops to a tenth of its bandwidth is worse than a
crash: nothing times out, every job still finishes, and in an all-to-all
shuffle *every* machine's fetches slow down, because they all pull data
through the sick uplink.  This example degrades one machine's NIC
mid-stream and runs the online health monitor on both engines:

* MonoSpark's estimator sees per-resource monotask rates, and its fetch
  monotask times each source machine's response flow separately -- so
  the slow uplink is pinned on the machine that owns it, which gets
  excluded, and latency recovers.
* Spark's estimator has only blended task wall-clock.  The degradation
  slows all machines' tasks roughly equally, so nothing ever falls
  below the cluster-typical rate: the baseline never even finds a
  suspect, and every job stays slow.

Run:  python examples/gray_failure.py
"""

from repro import AnalyticsContext, hdd_cluster
from repro.faults import FaultInjector, fail_slow_plan
from repro.health import HealthMonitor, HealthPolicy
from repro.metrics.events import HealthEventRecord
from repro.serve import wordcount_template
from repro.workloads.scaling import scaled_memory_overrides

FRACTION = 0.01
MACHINES = 4
DEGRADE_MACHINE = 1
DEGRADE_AT = 5.0
FACTOR = 10.0
JOBS = 10


def run(engine):
    cluster = hdd_cluster(num_machines=MACHINES, num_disks=2, seed=42,
                          **scaled_memory_overrides(FRACTION))
    ctx = AnalyticsContext(cluster, engine=engine)
    env = ctx.engine.env
    plan = fail_slow_plan(machine_id=DEGRADE_MACHINE, at=DEGRADE_AT,
                          factor=FACTOR)
    FaultInjector(ctx.engine, plan).start()
    monitor = HealthMonitor(ctx.engine, HealthPolicy())
    monitor.start()
    template = wordcount_template(ctx, num_blocks=8, block_mb=32.0, seed=42)
    durations = []
    for _ in range(JOBS):
        driver = ctx.engine.submit_job(template.instantiate(ctx))
        start = env.now
        env.run(until=driver)
        durations.append(env.now - start)
    monitor.stop()
    env.run()
    return ctx, durations


def main():
    for engine in ("monospark", "spark"):
        ctx, durations = run(engine)
        print(f"== {engine}: machine {DEGRADE_MACHINE} NIC degraded "
              f"{FACTOR:g}x at t={DEGRADE_AT:.0f}s ==")
        print("job durations: "
              + "  ".join(f"{d:.1f}s" for d in durations))
        events = ctx.metrics.events_of(HealthEventRecord)
        if events:
            print("health events:")
            for h in events:
                relative = ("" if h.relative_rate != h.relative_rate
                            else f" rel={h.relative_rate:.2f}")
                resource = f" {h.resource}" if h.resource else ""
                print(f"  t={h.at:6.1f}  {h.kind:10s} "
                      f"machine {h.machine_id}{resource}{relative}")
            excluded = sorted(ctx.engine.excluded_machines)
            print(f"excluded at end: {excluded if excluded else 'none'}")
        else:
            print("health events: none -- task-level rates slowed "
                  "uniformly, so the baseline cannot find the sick "
                  "machine")
        print()


if __name__ == "__main__":
    main()
