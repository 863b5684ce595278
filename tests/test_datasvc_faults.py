"""Data-service fault behavior: crashes, corruption, failover.

The headline contrast: with shuffle output co-located on compute
machines, a mid-job crash forces lineage re-execution (``fetch-failed``
attempts); with the disaggregated data tier the same crash loses
nothing.  Corruption is detected by checksums on read, served from a
surviving replica, and surfaced in the health monitor's suspicion
counters.  Every scenario must be byte-stable under the same seed.
"""

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.datasvc import DataService
from repro.errors import PlanError
from repro.faults import (BlockCorruption, FaultInjector, FaultPlan,
                          MachineCrash, StorageNodeCrash)
from repro.health import HealthMonitor
from repro.metrics.events import FaultEventRecord, HealthEventRecord

ENGINES = ("monospark", "spark")
RECORDS = [f"w{i % 17} w{i % 11}" for i in range(4000)]


def run_job(engine, disaggregated, plan=None, seed=2, health=False):
    cluster = hdd_cluster(num_machines=4, seed=seed)
    service = None
    options = {}
    if disaggregated:
        service = DataService(cluster, num_nodes=3, replication=2)
        options["datasvc"] = service
    ctx = AnalyticsContext(cluster, engine=engine, **options)
    monitor = HealthMonitor(ctx.engine) if health else None
    if plan is not None:
        FaultInjector(ctx.engine, plan).start()
    rdd = ctx.parallelize(RECORDS, num_partitions=8)
    results = sorted(rdd.flat_map(lambda line: line.split())
                        .map(lambda word: (word, 1))
                        .reduce_by_key(lambda a, b: a + b)
                        .collect())
    return ctx, service, results, monitor


def outcomes(ctx):
    counts = ctx.metrics.attempt_outcome_counts(ctx.last_result.job_id)
    return {kind: count for kind, count in sorted(counts.items()) if count}


def crash_plan(ctx, machine_id=1, restart_after=1.0):
    """Crash just after the map stage ends, while reduces fetch."""
    stages = ctx.metrics.stage_records(ctx.last_result.job_id)
    at = min(stage.end for stage in stages) * 1.02
    return FaultPlan([MachineCrash(at=at, machine_id=machine_id,
                                   restart_after=restart_after)])


@pytest.mark.parametrize("engine", ENGINES)
class TestComputeCrash:
    def test_colocated_crash_forces_lineage_reexecution(self, engine):
        clean_ctx, _, expected, _ = run_job(engine, disaggregated=False)
        ctx, _, results, _ = run_job(engine, disaggregated=False,
                                     plan=crash_plan(clean_ctx))
        assert results == expected
        assert outcomes(ctx).get("fetch-failed", 0) > 0

    def test_disaggregated_crash_loses_no_map_output(self, engine):
        clean_ctx, _, expected, _ = run_job(engine, disaggregated=False)
        ctx, service, results, _ = run_job(engine, disaggregated=True,
                                           plan=crash_plan(clean_ctx))
        assert results == expected
        counts = outcomes(ctx)
        assert counts.get("fetch-failed", 0) == 0
        assert counts.get("failed", 0) == 0
        assert service.stats()["lineage_losses"] == 0


@pytest.mark.parametrize("engine", ENGINES)
class TestStorageNodeCrash:
    def test_reads_fail_over_to_surviving_replica(self, engine):
        _, _, expected, _ = run_job(engine, disaggregated=False)
        plan = FaultPlan([StorageNodeCrash(at=0.004, node_index=0)])
        ctx, service, results, _ = run_job(engine, disaggregated=True,
                                           plan=plan)
        assert results == expected
        assert service.live_node_count == 2
        assert [f.kind for f in ctx.metrics.events_of(FaultEventRecord)] \
            == ["storage-crash"]

    def test_restart_brings_the_node_back(self, engine):
        _, _, expected, _ = run_job(engine, disaggregated=False)
        plan = FaultPlan([StorageNodeCrash(at=0.004, node_index=0,
                                           restart_after=0.002)])
        ctx, service, results, _ = run_job(engine, disaggregated=True,
                                           plan=plan)
        assert results == expected
        ctx.engine.env.run()  # drain the scheduled restart
        assert service.live_node_count == 3


@pytest.mark.parametrize("engine", ENGINES)
class TestCorruption:
    def test_detected_served_from_replica_and_suspected(self, engine):
        _, _, expected, _ = run_job(engine, disaggregated=False)
        plan = FaultPlan([BlockCorruption(at=0.004, node_index=0)])
        ctx, service, results, _ = run_job(engine, disaggregated=True,
                                           plan=plan)
        assert results == expected
        stats = service.stats()
        assert stats["integrity_faults"] == 1
        assert stats["failovers"] == 1
        assert stats["re_replications"] == 1
        assert service.suspicion_counts() == {0: 1}
        events = [(h.kind, h.machine_id)
                  for h in ctx.metrics.events_of(HealthEventRecord)]
        assert ("integrity-fault", service.node_machine_id(0)) in events

    def test_suspicions_land_in_health_monitor(self, engine):
        plan = FaultPlan([BlockCorruption(at=0.004, node_index=0)])
        _, service, _, monitor = run_job(engine, disaggregated=True,
                                         plan=plan, health=True)
        assert monitor.integrity_suspicions \
            == {service.node_machine_id(0): 1}

    def test_repeat_offender_excluded_from_placement(self, engine):
        plan = FaultPlan([BlockCorruption(at=0.004, node_index=0,
                                          block_seq=0),
                          BlockCorruption(at=0.0041, node_index=0,
                                          block_seq=1)])
        _, service, _, _ = run_job(engine, disaggregated=True, plan=plan)
        if service.stats()["integrity_faults"] >= 2:
            assert 0 in service.excluded_nodes
            assert service.stats()["excluded_nodes"] == 1


class TestByteStability:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_seed_same_everything(self, engine):
        clean_ctx, _, _, _ = run_job(engine, disaggregated=False)
        plan = crash_plan(clean_ctx)

        def one():
            ctx, service, results, _ = run_job(engine, disaggregated=True,
                                               plan=plan)
            return (results, outcomes(ctx), service.stats(),
                    ctx.last_result.duration)

        assert one() == one()


class TestPlanValidation:
    def test_storage_crash_rejects_bad_values(self):
        with pytest.raises(PlanError):
            FaultPlan([StorageNodeCrash(at=-1.0, node_index=0)])
        with pytest.raises(PlanError):
            FaultPlan([StorageNodeCrash(at=1.0, node_index=-1)])
        with pytest.raises(PlanError):
            FaultPlan([StorageNodeCrash(at=1.0, node_index=0,
                                        restart_after=0.0)])

    def test_corruption_rejects_bad_values(self):
        with pytest.raises(PlanError):
            FaultPlan([BlockCorruption(at=-1.0, node_index=0)])
        with pytest.raises(PlanError):
            FaultPlan([BlockCorruption(at=1.0, node_index=-1)])

    def test_faults_without_a_service_are_skipped(self):
        cluster = hdd_cluster(num_machines=2, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        plan = FaultPlan([StorageNodeCrash(at=0.001, node_index=0)])
        FaultInjector(ctx.engine, plan).start()
        rdd = ctx.parallelize(["a b", "b c"], num_partitions=2)
        assert rdd.count() > 0
        skipped = [f for f in ctx.metrics.events_of(FaultEventRecord)
                   if "skipped" in f.kind]
        assert len(skipped) == 1
