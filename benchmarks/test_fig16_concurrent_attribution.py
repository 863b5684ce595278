"""Figure 16: attributing resource use across concurrent jobs.

Paper: two sort jobs with different resource profiles (10-value:
CPU-heavy; 50-value: I/O-heavy) run concurrently on Spark.  Estimating
each job's resource use by scaling executor totals by slot share "is
consistently incorrect, sometimes by a factor of two or more ... The
median and 75th percentile error for all resources in both stages of
both jobs is 17% and 68%, respectively, with Spark.  Monotask times can
easily be used to decouple resource use for the same two jobs: with
MonoSpark, the error is consistently less than 1%."
"""

import pytest

from repro import AnalyticsContext, GB
from repro.api.plan import DfsOutput
from repro.metrics.utilization import percentile
from repro.model.sparkmodel import (slot_share_stage_usage,
                                    true_stage_usage)
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort, sort_boundaries,
                                     PARTITION_S_PER_RECORD,
                                     SORT_S_PER_RECORD)
from repro.api.ops import OpCost

from helpers import emit, make_cluster, once

FRACTION = 0.05
TOTAL = 600 * GB * FRACTION / 2  # each job sorts half the paper's volume


def build_sort_plan(ctx, workload, input_name, output_name, name):
    source = ctx.text_file(input_name)
    partitioned = source.map(
        lambda record: record,
        cost=OpCost(per_record_s=PARTITION_S_PER_RECORD), size_ratio=1.0)
    sorted_rdd = partitioned.sort_by_key(
        num_partitions=workload.reduce_tasks,
        boundaries=sort_boundaries(workload),
        cost=OpCost(per_record_s=SORT_S_PER_RECORD))
    return ctx.compile(sorted_rdd, DfsOutput(file_name=output_name),
                       name=name)


def run_concurrent(engine):
    cluster = make_cluster("hdd", machines=20, disks=2, fraction=FRACTION)
    cpu_heavy = SortWorkload(total_bytes=TOTAL, values_per_key=10,
                             num_map_tasks=240)
    io_heavy = SortWorkload(total_bytes=TOTAL, values_per_key=50,
                            num_map_tasks=240)
    generate_sort_input(cluster, cpu_heavy, name="in-10")
    generate_sort_input(cluster, io_heavy, name="in-50")
    ctx = AnalyticsContext(cluster, engine=engine)
    plans = [
        build_sort_plan(ctx, cpu_heavy, "in-10", "out-10", "sort-10"),
        build_sort_plan(ctx, io_heavy, "in-50", "out-50", "sort-50"),
    ]
    results = ctx.run_jobs(plans)
    return ctx, results


def spark_attribution_errors(ctx, results):
    """Slot-share estimate vs per-task ground truth, per stage/resource."""
    errors = []
    for result in results:
        for stage in ctx.metrics.stage_records(result.job_id):
            stage_id = stage.attrs["stage_id"]
            truth = true_stage_usage(ctx.metrics, result.job_id, stage_id)
            estimate = slot_share_stage_usage(ctx.metrics, ctx.cluster,
                                              result.job_id, stage_id)
            errors.extend(estimate.relative_errors(truth).values())
    return errors


def monospark_attribution_errors(ctx, results):
    """Monotask self-reports vs simulator hardware ground truth.

    MonoSpark *measures* per-job use directly from monotask reports; we
    validate them against what the hardware actually served during the
    run (cluster-wide, both jobs together).
    """
    reported_disk = sum(m.nbytes for m in ctx.metrics.monotasks
                        if m.resource == "disk")
    served_disk = sum(d.bytes_read + d.bytes_written
                      for machine in ctx.cluster.machines
                      for d in machine.disks)
    reported_net = sum(m.nbytes for m in ctx.metrics.monotasks
                       if m.resource == "network")
    served_net = ctx.cluster.network.bytes_transferred
    return [abs(reported_disk - served_disk) / served_disk,
            abs(reported_net - served_net) / served_net]


def run_experiment():
    spark_ctx, spark_results = run_concurrent("spark")
    spark_errors = spark_attribution_errors(spark_ctx, spark_results)
    mono_ctx, mono_results = run_concurrent("monospark")
    mono_errors = monospark_attribution_errors(mono_ctx, mono_results)
    return spark_errors, mono_errors


def test_fig16_concurrent_attribution(benchmark):
    spark_errors, mono_errors = once(benchmark, run_experiment)

    spark_median = percentile(spark_errors, 50)
    spark_p75 = percentile(spark_errors, 75)
    mono_max = max(mono_errors)
    emit("fig16_concurrent_attribution",
         "Figure 16: per-job resource attribution error, concurrent sorts",
         ["system", "median error", "p75 error", "max error"],
         [["spark (slot-share)", f"{spark_median * 100:.0f}%",
           f"{spark_p75 * 100:.0f}%",
           f"{max(spark_errors) * 100:.0f}%"],
          ["monospark (monotask reports)", f"{mono_max * 100:.2f}%",
           f"{mono_max * 100:.2f}%", f"{mono_max * 100:.2f}%"]],
         notes=["Paper: Spark median 17%, p75 68%; MonoSpark < 1%."])

    # Slot-share attribution misassigns resources between the two jobs.
    assert spark_median > 0.08
    assert spark_p75 > 0.2
    # Monotask self-reports match the hardware's ground truth.
    assert mono_max < 0.01
