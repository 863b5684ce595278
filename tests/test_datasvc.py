"""Data service: placement, checksums, and engine integration.

The disaggregated data tier must be *transparent* to the computation:
both engines produce byte-identical results with and without it, map
output registers on storage-node machine ids (the lineage index never
points at compute), and DFS output blocks land on storage replicas.
Fault behavior is covered separately in ``test_datasvc_faults.py``.
"""

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.datasvc import DataService
from repro.datasvc.service import block_checksum
from repro.errors import ConfigError
from repro.serve.admission import CostEstimator
from repro.serve.slo import ServeReport
from repro.trace.telemetry import TelemetryRegistry

ENGINES = ("monospark", "spark")


def make_ctx(engine, seed=1, machines=4, nodes=3, replication=2,
             disaggregated=True):
    cluster = hdd_cluster(num_machines=machines, seed=seed)
    service = None
    options = {}
    if disaggregated:
        service = DataService(cluster, num_nodes=nodes,
                              replication=replication)
        options["datasvc"] = service
    return AnalyticsContext(cluster, engine=engine, **options), service


def word_count(ctx, records=2000, partitions=8):
    rdd = ctx.parallelize([f"w{i % 13} w{i % 7}" for i in range(records)],
                          num_partitions=partitions)
    return sorted(rdd.flat_map(lambda line: line.split())
                     .map(lambda word: (word, 1))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())


class TestConstruction:
    def test_rejects_zero_nodes(self):
        cluster = hdd_cluster(num_machines=2)
        with pytest.raises(ConfigError):
            DataService(cluster, num_nodes=0)

    def test_rejects_zero_replication(self):
        cluster = hdd_cluster(num_machines=2)
        with pytest.raises(ConfigError):
            DataService(cluster, num_nodes=2, replication=0)

    def test_replication_clamped_to_node_count(self):
        cluster = hdd_cluster(num_machines=2)
        service = DataService(cluster, num_nodes=2, replication=5)
        assert service.replication == 2

    def test_storage_ids_start_above_compute(self):
        cluster = hdd_cluster(num_machines=4)
        service = DataService(cluster, num_nodes=3)
        assert [n.machine_id for n in service.nodes] == [4, 5, 6]
        assert service.owns_machine(4) and service.owns_machine(6)
        assert not service.owns_machine(3) and not service.owns_machine(7)


class TestChecksum:
    def test_deterministic(self):
        assert block_checksum("b0", 10.0, 512.0) \
            == block_checksum("b0", 10.0, 512.0)

    def test_sensitive_to_every_field(self):
        base = block_checksum("b0", 10.0, 512.0)
        assert block_checksum("b1", 10.0, 512.0) != base
        assert block_checksum("b0", 11.0, 512.0) != base
        assert block_checksum("b0", 10.0, 513.0) != base


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineIntegration:
    def test_results_match_colocated(self, engine):
        colocated_ctx, _ = make_ctx(engine, disaggregated=False)
        ctx, service = make_ctx(engine)
        assert word_count(ctx) == word_count(colocated_ctx)
        stats = service.stats()
        assert stats["puts"] > 0 and stats["fetches"] > 0
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0

    def test_map_output_registers_on_storage_tier(self, engine):
        # The registry forgets a shuffle when its job ends, so observe
        # every registration while the job runs.
        ctx, service = make_ctx(engine)
        registry = ctx.engine.map_outputs
        register = registry.register_map_output
        seen = {}

        def observed(shuffle_id, map_index, machine_id, disk_index,
                     buckets):
            for reduce_index in buckets:
                # Every bucket of the call carries this location.
                assert service.owns_machine(machine_id)
                assert disk_index is None
                seen.setdefault(shuffle_id, set()).add(reduce_index)
            register(shuffle_id, map_index, machine_id, disk_index, buckets)
        registry.register_map_output = observed
        word_count(ctx)
        assert seen
        for reduce_indices in seen.values():
            assert reduce_indices == set(range(8))

    def test_compute_crash_invalidates_nothing(self, engine):
        """The acceptance mechanism: the lineage index never points at
        compute machines, so crashing one while map outputs are
        registered drops none of them."""
        ctx, _ = make_ctx(engine)
        env = ctx.engine.env
        registry = ctx.engine.map_outputs
        register = registry.register_map_output
        invalidate = registry.invalidate_machine
        scheduled, live_shuffles, lost = [], [], []

        def crash():
            yield env.timeout(0)
            live_shuffles.extend(registry.shuffle_ids())
            ctx.engine.crash_machine(1)

        def register_then_crash(*args):
            register(*args)
            if not scheduled:
                scheduled.append(env.process(crash()))

        def observed_invalidate(machine_id):
            lost.append(invalidate(machine_id))
            return lost[-1]
        registry.register_map_output = register_then_crash
        registry.invalidate_machine = observed_invalidate
        expected = word_count(make_ctx(engine, disaggregated=False)[0])
        assert word_count(ctx) == expected
        assert ctx.engine.machine_is_dead(1)
        # The crash landed while the word count's shuffle was registered.
        assert live_shuffles
        assert lost == [[]]

    def test_dfs_output_lands_on_storage_replicas(self, engine):
        ctx, service = make_ctx(engine)
        rdd = ctx.parallelize([f"r{i}" for i in range(64)],
                              num_partitions=4)
        rdd.save_as_text_file("out.txt")
        blocks = ctx.cluster.dfs.get_file("out.txt").blocks
        assert len(blocks) == 4
        for block in blocks:
            assert all(service.owns_machine(machine_id)
                       for machine_id, _disk in block.replicas)
            stored = service.block(block.block_id)
            assert stored is not None
            assert len([r for r in stored.replicas if r.valid]) \
                == service.replication

    def test_every_put_replicates(self, engine):
        ctx, service = make_ctx(engine, replication=2)
        word_count(ctx)
        stats = service.stats()
        assert stats["replications"] == stats["puts"] \
            * (service.replication - 1)

    def test_placement_skips_crashed_node(self, engine):
        ctx, service = make_ctx(engine)
        service.crash_node(0)
        word_count(ctx)
        held = {replica.node_index
                for block_id in list(service._blocks)
                for replica in service.block(block_id).replicas
                if replica.valid}
        assert 0 not in held
        assert held <= {1, 2}

    def test_deterministic_across_runs(self, engine):
        first_ctx, first_svc = make_ctx(engine, seed=3)
        first = word_count(first_ctx)
        second_ctx, second_svc = make_ctx(engine, seed=3)
        second = word_count(second_ctx)
        assert first == second
        assert first_svc.stats() == second_svc.stats()
        assert first_ctx.last_result.duration \
            == second_ctx.last_result.duration


class TestObservability:
    def test_telemetry_registers_data_tier_series(self):
        ctx, _ = make_ctx("monospark")
        registry = TelemetryRegistry()
        ctx.engine.register_telemetry(registry)
        registry.sample(0.0)
        names = {name for name, _labels in registry.store.series()}
        assert "repro_datasvc_integrity_faults" in names
        assert "repro_datasvc_live_nodes" in names
        assert "repro_datasvc_write_behind_bytes" in names
        assert "repro_datasvc_disk_queue_depth" in names
        assert "repro_cache_invalidated_partitions" in names

    def test_serve_report_renders_data_tier_section(self):
        ctx, service = make_ctx("monospark")
        word_count(ctx)
        service.corrupt_block(0)
        report = ServeReport(engine_name="monospark", duration_s=1.0)
        report.attach_datasvc(service)
        text = report.format()
        assert "Data service (disaggregated shuffle/storage)" in text
        assert "puts" in text
        # Corruption is only *detected* on read; no suspicions yet.
        assert report.datasvc_stats["integrity_faults"] == 0

    def test_cost_estimator_prices_lost_storage_nodes(self):
        ctx, service = make_ctx("monospark")
        word_count(ctx)
        estimator = CostEstimator(ctx.engine)
        estimator.observe("wc", ctx.metrics, ctx.last_result)
        healthy = estimator.estimate("wc")
        service.crash_node(0)
        degraded = estimator.estimate("wc")
        assert degraded == pytest.approx(healthy * 3 / 2)
