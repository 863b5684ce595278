"""Injector-driven driver faults under the CI fault matrix.

The fault-matrix CI job runs this file under ``REPRO_TEST_SEED`` 0/1/2:
every scenario must hold for each seed offset, so the assertions are
invariants (nothing lost with failover on, exactly-once accounting),
never exact counts.
"""

import os

import pytest

from repro.api.context import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.faults import (DriverCrash, DriverPartition, FaultInjector,
                          FaultPlan, random_plan)
from repro.serve import PoissonArrivals, wordcount_template
from repro.simulator.rng import RngStreams

SEED_OFFSET = int(os.environ.get("REPRO_TEST_SEED", "0"))


def run_plane(plan, num_drivers=2, tenants=4, horizon=30.0,
              seed=2 + SEED_OFFSET, failover=True):
    cluster = hdd_cluster(num_machines=4, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(control_service_s=0.05, failover=failover)
    plane = ControlPlane(ctx, num_drivers=num_drivers, config=policy,
                         seed=seed)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(tenants):
        plane.add_workload(f"tenant{i}", template,
                           PoissonArrivals(0.5, horizon_s=horizon))
    if plan is not None:
        FaultInjector(ctx.engine, plan).start()
    return plane.run()


def accounted(report) -> int:
    """Every submitted request must reach exactly one terminal state."""
    return sum(s.completed + s.failed + s.shed + s.lost
               for s in report.serve.stats)


class TestDriverCrashMatrix:
    @pytest.mark.parametrize("driver_id", [0, 1])
    def test_crash_either_driver_loses_nothing(self, driver_id):
        plan = FaultPlan([DriverCrash(at=12.0, driver_id=driver_id)])
        report = run_plane(plan)
        assert report.jobs_lost == 0
        assert accounted(report) == sum(s.submitted
                                        for s in report.serve.stats)
        assert report.counters["tenants_reassigned"] >= 1

    def test_crash_with_restart(self):
        plan = FaultPlan([DriverCrash(at=10.0, driver_id=1,
                                      restart_after=8.0)])
        report = run_plane(plan)
        assert report.jobs_lost == 0
        kinds = [e.kind for e in report.events]
        assert "driver-restart" in kinds
        assert kinds.index("driver-crash") < kinds.index("driver-restart")

    def test_partition_with_heal(self):
        plan = FaultPlan([DriverPartition(at=10.0, driver_id=0,
                                          heal_after=10.0)])
        report = run_plane(plan)
        assert report.jobs_lost == 0
        kinds = {e.kind for e in report.events}
        assert {"driver-partition", "partition-heal"} <= kinds

    def test_random_plan_with_driver_kinds(self):
        # Seeded sampling must produce a valid, reproducible mix of
        # driver crashes and partitions that the plane survives intact.
        rng = RngStreams(5 + SEED_OFFSET)
        plan = random_plan(
            rng, machine_ids=[0, 1, 2, 3], horizon_s=20.0, num_faults=2,
            restart_after=6.0,
            kind_weights={"driver-crash": 1.0, "driver-partition": 1.0},
            num_drivers=2)
        again = random_plan(
            RngStreams(5 + SEED_OFFSET), machine_ids=[0, 1, 2, 3],
            horizon_s=20.0, num_faults=2, restart_after=6.0,
            kind_weights={"driver-crash": 1.0, "driver-partition": 1.0},
            num_drivers=2)
        assert plan.faults == again.faults
        report = run_plane(plan)
        assert report.jobs_lost == 0
        assert accounted(report) == sum(s.submitted
                                        for s in report.serve.stats)
