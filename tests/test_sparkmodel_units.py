"""Unit tests for the §6.6 Spark-based models."""

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.config import MB
from repro.datamodel import Partition
from repro.errors import ModelError
from repro.api.ops import OpCost
from repro.api.plan import DfsOutput
from repro.model.sparkmodel import (AttributionEstimate,
                                    attribution_errors,
                                    slot_share_stage_usage,
                                    spark_stage_profiles, true_stage_usage)
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     sort_boundaries)


def spark_run(blocks=6):
    cluster = hdd_cluster(num_machines=2)
    payloads = [Partition.from_records([(i, i)], record_count=1,
                                       data_bytes=32 * MB)
                for i in range(blocks)]
    cluster.dfs.create_file("input", payloads, [32 * MB] * blocks)
    ctx = AnalyticsContext(cluster, engine="spark")
    (ctx.text_file("input")
        .map(lambda kv: (kv[0] % 2, 1), size_ratio=1.0)
        .reduce_by_key(lambda a, b: a + b, num_partitions=2)
        .collect())
    return ctx


class TestSparkStageProfiles:
    def test_profiles_built_from_usage_records(self):
        ctx = spark_run()
        profiles = spark_stage_profiles(ctx.metrics,
                                        ctx.last_result.job_id)
        assert len(profiles) == 2
        assert all(p.compute_s > 0 for p in profiles)
        map_stage = max(profiles, key=lambda p: p.total_disk_bytes)
        assert map_stage.total_disk_bytes >= 6 * 32 * MB

    def test_deserialization_not_separable(self):
        """The §6.3 limitation: Spark profiles carry no deser split."""
        ctx = spark_run()
        profiles = spark_stage_profiles(ctx.metrics,
                                        ctx.last_result.job_id)
        assert all(p.input_deserialize_s == 0.0 for p in profiles)
        assert all(not p.reads_dfs_input for p in profiles)

    def test_missing_job_rejected(self):
        ctx = spark_run()
        with pytest.raises(ModelError):
            spark_stage_profiles(ctx.metrics, 99)


class TestAttribution:
    def test_true_usage_from_task_records(self):
        ctx = spark_run()
        job = ctx.last_result.job_id
        stage0 = ctx.metrics.stage_records(job)[0].attrs["stage_id"]
        truth = true_stage_usage(ctx.metrics, job, stage0)
        assert truth.cpu_s > 0

    def test_single_job_cpu_share_is_accurate(self):
        """With one job, slot-share CPU attribution has nothing to
        confuse (it is concurrency that breaks it, Fig 16)."""
        ctx = spark_run(blocks=8)
        job = ctx.last_result.job_id
        for stage in ctx.metrics.stage_records(job):
            stage_id = stage.attrs["stage_id"]
            truth = true_stage_usage(ctx.metrics, job, stage_id)
            estimate = slot_share_stage_usage(ctx.metrics, ctx.cluster,
                                              job, stage_id)
            assert estimate.relative_errors(truth)["cpu_s"] < 0.05

    def test_cache_hides_logical_io_from_machine_observation(self):
        """§2.2 in numbers: the task logically wrote its output, but the
        machine-level disk log shows (almost) nothing -- the OS buffer
        cache absorbed it, so even single-job external observation
        under-counts Spark's I/O."""
        ctx = spark_run(blocks=8)
        job = ctx.last_result.job_id
        stages = ctx.metrics.stage_records(job)
        map_stage = max(stages, key=lambda s: s.attrs["num_tasks"])
        map_stage_id = map_stage.attrs["stage_id"]
        truth = true_stage_usage(ctx.metrics, job, map_stage_id)
        estimate = slot_share_stage_usage(ctx.metrics, ctx.cluster, job,
                                          map_stage_id)
        assert estimate.disk_bytes < truth.disk_bytes * 0.75

    def test_relative_errors_skip_zero_truth(self):
        estimate = AttributionEstimate(cpu_s=1.0)
        truth = AttributionEstimate(cpu_s=2.0, disk_bytes=0.0)
        errors = estimate.relative_errors(truth)
        assert errors == {"cpu_s": 0.5}


def concurrent_spark_sorts():
    """Two sorts of different profiles sharing two machines (Fig 16)."""
    cluster = hdd_cluster(num_machines=2, seed=3)
    ctx = AnalyticsContext(cluster, engine="spark")
    plans = []
    for values in (10, 50):
        workload = SortWorkload(total_bytes=0.5 * 1024 * MB,
                                values_per_key=values, num_map_tasks=12,
                                num_reduce_tasks=6)
        generate_sort_input(cluster, workload, name=f"in-{values}")
        sorted_rdd = (ctx.text_file(f"in-{values}")
                      .map(lambda record: record,
                           cost=OpCost(per_record_s=1.5e-6), size_ratio=1.0)
                      .sort_by_key(num_partitions=workload.reduce_tasks,
                                   boundaries=sort_boundaries(workload)))
        plans.append(ctx.compile(sorted_rdd,
                                 DfsOutput(file_name=f"out-{values}"),
                                 name=f"sort-{values}"))
    return ctx, ctx.run_jobs(plans)


def scanned_stage_usage(metrics, cluster, job_id, stage_id):
    """The slot-share estimate read from full scans of the logs' tuple
    views: the reference the windowed reads must equal bit for bit."""
    window_start, window_end = metrics.stage_window(job_id, stage_id)
    estimate = AttributionEstimate()
    for machine in cluster.machines:
        machine_id = machine.machine_id
        stage_slot_s = total_slot_s = 0.0
        for span in metrics.attempts:
            if span.machine_id != machine_id:
                continue
            slot_s = max(0.0, min(span.end, window_end)
                         - max(span.start, window_start))
            total_slot_s += slot_s
            if (span.attrs["job_id"], span.attrs["stage_id"]) == \
                    (job_id, stage_id):
                stage_slot_s += slot_s
        if total_slot_s <= 0 or stage_slot_s <= 0:
            continue
        share = stage_slot_s / total_slot_s
        cpu_s = machine.cpu.tracker.busy_time(window_start, window_end)
        disk_bytes = sum(nbytes for disk in machine.disks
                         for (when, nbytes, _kind) in disk.transfer_log
                         if window_start <= when <= window_end)
        network_bytes = sum(
            nbytes
            for (when, nbytes, dst, _src) in machine.network.completion_log
            if dst == machine_id and window_start <= when <= window_end)
        estimate.cpu_s += cpu_s * share
        estimate.disk_bytes += disk_bytes * share
        estimate.network_bytes += network_bytes * share
    return estimate


class TestWindowedLogReads:
    def test_attribution_matches_full_log_scan(self):
        ctx, results = concurrent_spark_sorts()
        metrics, cluster = ctx.metrics, ctx.cluster
        assert len(cluster.network.completion_log) > 0
        checked = 0
        for result in results:
            expected = {}
            for stage in metrics.stage_records(result.job_id):
                stage_id = stage.attrs["stage_id"]
                reference = scanned_stage_usage(metrics, cluster,
                                                result.job_id, stage_id)
                assert slot_share_stage_usage(
                    metrics, cluster, result.job_id, stage_id) == reference
                expected[stage_id] = reference.relative_errors(
                    true_stage_usage(metrics, result.job_id, stage_id))
                checked += reference.network_bytes > 0
            assert attribution_errors(metrics, cluster,
                                      result.job_id) == expected
        assert checked > 0

    def test_open_window_reads_nothing(self):
        # A stage still running has a NaN end; no entry lies in it.
        ctx = spark_run()
        disk = ctx.cluster.machines[0].disks[0]
        network = ctx.cluster.network
        assert len(disk.transfer_log) > 0
        assert list(disk.completed_bytes(0.0, float("nan"))) == []
        assert network.delivered_bytes(0, 0.0, float("nan")) == []
        assert list(disk.completed_bytes(0.0, float("inf"))) == [
            nbytes for _, nbytes, _ in disk.transfer_log]
