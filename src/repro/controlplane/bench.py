"""Control-plane benchmark: driver scaling and crash failover.

Two seeded, deterministic scenarios pin the sharded control plane's
claims (PAPERS.md: Sparrow's distributed schedulers, Borg/Omega-style
replicated masters):

* **Driver scaling** -- the same open-loop workload (8 tenants, Poisson
  arrivals, cached wordcount plans) served by 1, 2, and 4 driver
  replicas.  Every dispatch serializes for ``control_service_s`` on its
  shard's driver, so once the control plane is the bottleneck an
  N-driver plane must admit measurably more jobs/sec than one driver --
  the gate asserts it, and the per-tenant p95 collapse shows where the
  single driver's admission queue was the whole story.
* **Crash failover** -- the leader driver is crashed mid-run under a
  busier workload, with checkpointed failover on vs off.  With failover
  on, a survivor wins the election, adopts the dead shard from its
  checkpoints, and resumes the in-flight jobs: the gates demand zero
  lost requests and at least one resumed (not re-executed) job.  With
  failover off the same crash must lose requests -- that contrast is
  the benchmark's headline number.

Every number in the summary is a deterministic function of the seed, so
CI diffs the committed ``BENCH_controlplane.json`` exactly; the
benchmark runs twice and raises on cross-run drift, making every
invocation double as a determinism check.

``scripts/bench_trajectory.py --bench controlplane`` runs
:data:`BENCH`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.trajectory import Bench, repeat_deterministic

__all__ = ["ControlPlaneWorkload", "BENCH"]


@dataclass(frozen=True)
class ControlPlaneWorkload:
    """The seeded scenarios the control-plane benchmark drives."""

    machines: int = 4
    disks: int = 2
    seed: int = 11
    tenants: int = 8
    #: Per-dispatch driver serialization; high enough that one driver
    #: saturates under the scaling workload's aggregate arrival rate.
    control_service_s: float = 0.2
    # Scaling scenario: light jobs arriving faster than one driver
    # can admit them.
    scale_rate_per_s: float = 1.5
    scale_horizon_s: float = 40.0
    scale_driver_counts: tuple = (1, 2, 4)
    # Crash scenario: heavier jobs so the shard has work in flight
    # when its driver dies.
    crash_rate_per_s: float = 0.5
    crash_horizon_s: float = 40.0
    crash_num_drivers: int = 2
    #: The leader (highest id) dies, forcing an election too.
    crash_driver: int = 1
    crash_at: float = 20.0


def _plane(workload: ControlPlaneWorkload, num_drivers: int,
           rate_per_s: float, horizon_s: float, num_blocks: int,
           block_mb: float, failover: bool = True):
    """Build one ready-to-run plane over a fresh context."""
    from repro.api.context import AnalyticsContext
    from repro.cluster import hdd_cluster
    from repro.controlplane import ControlPlane, ControlPlanePolicy
    from repro.serve.workload import PoissonArrivals, wordcount_template

    cluster = hdd_cluster(num_machines=workload.machines,
                          num_disks=workload.disks, seed=workload.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(
        control_service_s=workload.control_service_s, failover=failover)
    plane = ControlPlane(ctx, num_drivers=num_drivers, config=policy,
                         seed=workload.seed)
    template = wordcount_template(ctx, num_blocks=num_blocks,
                                  block_mb=block_mb)
    for i in range(workload.tenants):
        tenant = f"tenant{i}"
        plane.add_tenant(tenant)
        plane.add_workload(tenant, template,
                           PoissonArrivals(rate_per_s,
                                           horizon_s=horizon_s))
    return plane


def _worst_p95(report) -> float:
    """The slowest tenant's p95 latency (the fairness-tail headline)."""
    values = [stats.p95_s for stats in report.serve.stats]
    return max(v for v in values if v is not None)


def _scaling_invariants(workload: ControlPlaneWorkload) -> Dict:
    """jobs/sec at each driver count; N>1 must beat one driver."""
    by_drivers: Dict[str, Dict] = {}
    throughput: Dict[int, float] = {}
    for num_drivers in workload.scale_driver_counts:
        plane = _plane(workload, num_drivers,
                       workload.scale_rate_per_s,
                       workload.scale_horizon_s,
                       num_blocks=1, block_mb=0.5)
        report = plane.run()
        if report.jobs_lost:
            raise AssertionError(
                f"scaling run with {num_drivers} drivers lost "
                f"{report.jobs_lost} jobs with no fault injected")
        throughput[num_drivers] = report.jobs_per_s
        by_drivers[str(num_drivers)] = {
            "jobs_per_s": round(report.jobs_per_s, 3),
            "completed": report.total_completed,
            "worst_p95_s": round(_worst_p95(report), 3),
        }
    base = throughput[workload.scale_driver_counts[0]]
    for num_drivers in workload.scale_driver_counts[1:]:
        if throughput[num_drivers] <= base * 1.2:
            raise AssertionError(
                f"{num_drivers} drivers admitted {throughput[num_drivers]:.3f}"
                f" jobs/s vs {base:.3f} for one driver -- sharding "
                f"bought no throughput")
    return by_drivers


def _crash_invariants(workload: ControlPlaneWorkload,
                      failover: bool) -> Dict:
    """One mid-run leader crash, failover on or off."""
    from repro.faults import DriverCrash, FaultInjector, FaultPlan

    plane = _plane(workload, workload.crash_num_drivers,
                   workload.crash_rate_per_s, workload.crash_horizon_s,
                   num_blocks=2, block_mb=4.0, failover=failover)
    plan = FaultPlan([DriverCrash(at=workload.crash_at,
                                  driver_id=workload.crash_driver)])
    FaultInjector(plane.engine, plan).start()
    report = plane.run()
    counters = report.counters
    invariants = {
        "completed": report.total_completed,
        "jobs_lost": report.jobs_lost,
        "jobs_resumed": int(counters["jobs_resumed"]),
        "jobs_replayed": int(counters["jobs_replayed"]),
        "elections": int(counters["elections"]),
        "tenants_reassigned": int(counters["tenants_reassigned"]),
        "worst_p95_s": round(_worst_p95(report), 3),
        "leader_id": report.leader_id,
    }
    if failover:
        invariants["checkpoint_restores"] = int(
            counters["checkpoint_restores"])
        if report.jobs_lost:
            raise AssertionError(
                f"failover-on crash lost {report.jobs_lost} jobs: "
                f"{invariants}")
        if invariants["jobs_resumed"] < 1:
            raise AssertionError(
                f"failover resumed no in-flight jobs (all re-executed "
                f"or lost): {invariants}")
        if invariants["elections"] < 1:
            raise AssertionError(
                f"leader crash triggered no election: {invariants}")
        if invariants["checkpoint_restores"] < 1:
            raise AssertionError(
                f"failover restored no checkpoints: {invariants}")
    elif not report.jobs_lost:
        raise AssertionError(
            "crash with failover disabled lost nothing -- the "
            "failover-on gate is vacuous")
    return invariants


def _run(repeats: int, committed: Optional[Dict]) -> Dict:
    """The dict ``BENCH_controlplane.json`` holds."""
    workload = ControlPlaneWorkload()
    invariants, _ = repeat_deterministic(lambda: ({
        "driver_scaling": _scaling_invariants(workload),
        "crash_failover_on": _crash_invariants(workload, failover=True),
        "crash_failover_off": _crash_invariants(workload, failover=False),
    }, None), repeats)
    return {
        "benchmark": "controlplane_failover",
        "workload": asdict(workload),
        "repeats": repeats,
        "invariants": invariants,
    }


BENCH = Bench("controlplane", _run)
