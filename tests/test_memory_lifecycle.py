"""Memory lifecycle tests: nothing leaks across jobs, and the event loop
leaves nothing for the cyclic garbage collector."""

import gc
from collections import Counter

import pytest

from repro.api import AnalyticsContext
from repro.cluster import ssd_cluster, hdd_cluster
from repro.serve import JobServer, PoissonArrivals, sort_template
from repro.simulator.core import Event
from repro.simulator.disk import DiskRequest
from repro.simulator.network import Flow
from repro.workloads.bigdata import BdbScale, generate_bdb_tables, run_query
from repro.workloads.ml import MlWorkload, make_ml_context, run_ml_workload
from repro.workloads.scaling import scaled_memory_overrides


class TestInMemoryShuffleLifecycle:
    def test_ml_iterations_release_shuffle_memory(self):
        """Each iteration's in-memory shuffle is freed when its job ends:
        memory does not creep upward across iterations."""
        cluster = ssd_cluster(num_machines=4)
        ctx = make_ml_context(cluster, "monospark",
                              MlWorkload(num_row_blocks=16))
        run_ml_workload(ctx, iterations=1)
        used_after_one = sum(m.memory.used for m in cluster.machines)
        run_ml_workload(ctx, iterations=3)
        used_after_four = sum(m.memory.used for m in cluster.machines)
        # The cached matrix stays; per-iteration shuffle data does not.
        assert used_after_four == pytest.approx(used_after_one, rel=0.01)

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_memory_returns_to_baseline_after_jobs(self, engine):
        cluster = hdd_cluster(num_machines=2)
        from repro.api import AnalyticsContext
        ctx = AnalyticsContext(cluster, engine=engine)
        for _ in range(3):
            (ctx.parallelize(range(100), num_partitions=8)
                .map(lambda x: (x % 5, 1))
                .reduce_by_key(lambda a, b: a + b)
                .collect())
        # No cached RDDs, no in-memory shuffles: usage returns to zero.
        assert all(m.memory.used == pytest.approx(0.0, abs=1.0)
                   for m in cluster.machines)

    def test_peak_memory_recorded(self):
        cluster = ssd_cluster(num_machines=2)
        ctx = make_ml_context(cluster, "monospark",
                              MlWorkload(num_row_blocks=8))
        run_ml_workload(ctx, iterations=1)
        assert any(m.memory.peak > 0 for m in cluster.machines)


def kernel_garbage(run):
    """Count, by type name, the kernel and device objects that ``run()``
    left for the cyclic collector.

    ``run`` returns its context, which is held while collecting: only
    the cycles the run dropped count, not the live simulation.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ctx = run()  # noqa: F841 -- held alive through the collection
        gc.collect()
        # Process is an Event too.
        found = Counter(type(obj).__name__ for obj in gc.garbage
                        if isinstance(obj, (Event, DiskRequest, Flow)))
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    return found


class TestNoCyclicGarbage:
    """``Environment.run`` pauses the cyclic collector, which is safe
    only while a fault-free run creates no request<->event cycles."""

    def test_monospark_serving_stream(self):
        def run():
            cluster = hdd_cluster(num_machines=2, num_disks=2, seed=0)
            ctx = AnalyticsContext(cluster, engine="monospark")
            server = JobServer(ctx, policy="fifo", seed=0)
            server.add_tenant("t")
            template = sort_template(ctx, total_gb=0.05, num_tasks=4,
                                     seed=0)
            server.add_workload("t", template,
                                PoissonArrivals(0.2, horizon_s=60.0))
            server.run()
            assert ctx.metrics.jobs
            return ctx

        assert kernel_garbage(run) == {}

    def test_spark_bdb_query(self):
        def run():
            scale = BdbScale(fraction=0.01)
            cluster = hdd_cluster(num_machines=5,
                                  **scaled_memory_overrides(0.01))
            generate_bdb_tables(cluster, scale)
            ctx = AnalyticsContext(cluster, engine="spark")
            run_query(ctx, "2a", scale)
            return ctx

        assert kernel_garbage(run) == {}
