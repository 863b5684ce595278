"""Sharded drivers -- a crash that loses nothing, and an election.

One driver is a throughput ceiling and a single point of failure: every
dispatch serializes through its admission loop, and when it dies its
queued and in-flight requests die with it.  This example runs the same
four-tenant stream twice on a two-driver `ControlPlane`, crashing the
leader replica mid-run both times.

With checkpointed failover ON, the survivor misses heartbeats, wins the
bully election, adopts the dead shard from its replicated checkpoints,
and *resumes* the in-flight engine jobs (the task pool never stopped
them) -- zero requests lost.  With failover OFF the identical crash
loses every request the dead driver held or receives afterwards.

Run:  python examples/driver_failover.py
"""

from repro import AnalyticsContext, hdd_cluster
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.faults import DriverCrash, FaultInjector, FaultPlan
from repro.serve import PoissonArrivals, wordcount_template

NUM_DRIVERS = 2
CRASH_DRIVER = NUM_DRIVERS - 1  # the initial leader: forces an election
CRASH_AT = 20.0
TENANTS = 4
RATE_PER_S = 0.5
HORIZON_S = 40.0


def run(failover):
    cluster = hdd_cluster(num_machines=4, seed=2)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(control_service_s=0.05, failover=failover)
    plane = ControlPlane(ctx, num_drivers=NUM_DRIVERS, config=policy,
                         seed=2)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(TENANTS):
        plane.add_workload(f"tenant{i}", template,
                           PoissonArrivals(RATE_PER_S,
                                           horizon_s=HORIZON_S))
    plan = FaultPlan([DriverCrash(at=CRASH_AT, driver_id=CRASH_DRIVER)])
    FaultInjector(ctx.engine, plan).start()
    return plane.run()


def main():
    print("-- leader crash, checkpointed failover ON ".ljust(66, "-"))
    report = run(failover=True)
    counters = report.counters
    summary = report.failovers[0]
    print(f"driver d{CRASH_DRIVER} (the leader) crashed at "
          f"{CRASH_AT:.0f}s; driver d{report.leader_id} won the election "
          f"(epoch {report.leader_epoch:.0f}).")
    print(f"adopted {len(summary.tenants)} tenant(s) in "
          f"{summary.duration_s * 1000:.0f} ms: "
          f"{summary.restored} checkpoint(s) restored, "
          f"{summary.resumed} in-flight job(s) resumed, "
          f"{summary.replayed} replayed, {summary.lost} lost.")
    print(f"{report.total_completed} requests completed, "
          f"{report.jobs_lost} lost "
          f"({counters['checkpoint_writes']:g} checkpoint writes, "
          f"{counters['checkpoint_bytes']:g} bytes).")
    assert report.jobs_lost == 0, "failover must lose nothing"
    assert summary.resumed > 0, "in-flight jobs must be resumed, not rerun"
    print()

    print("-- the same crash, failover OFF ".ljust(66, "-"))
    report = run(failover=False)
    print(f"{report.total_completed} requests completed, "
          f"{report.jobs_lost} lost with the driver.")
    assert report.jobs_lost > 0
    print()
    print("same stream, same crash: checkpointed failover turned "
          f"{report.jobs_lost} lost requests into zero.")


if __name__ == "__main__":
    main()
