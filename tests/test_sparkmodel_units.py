"""Unit tests for the §6.6 Spark-based models."""

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.config import MB
from repro.datamodel import Partition
from repro.errors import ModelError
from repro.model.sparkmodel import (AttributionEstimate,
                                    slot_share_stage_usage,
                                    spark_stage_profiles, true_stage_usage)


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
