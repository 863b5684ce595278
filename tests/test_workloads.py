"""Tests for the paper's workloads: generation, correctness, structure."""

import hashlib

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import GB, MB
from repro.errors import ConfigError
from repro.serve.workload import bdb_template
from repro.workloads.bigdata import (BdbScale, QUERIES, SAMPLE_URL_SPACE,
                                     generate_bdb_tables, run_query)
from repro.workloads.ml import MlWorkload, make_ml_context, run_ml_iteration
from repro.workloads.scaling import scaled_memory_overrides
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort, sort_boundaries)
from repro.workloads.wordcount import generate_text_input, word_count


class TestSortWorkload:
    def test_record_bytes_scale_with_values(self):
        small = SortWorkload(total_bytes=GB, values_per_key=10,
                             num_map_tasks=8)
        large = SortWorkload(total_bytes=GB, values_per_key=50,
                             num_map_tasks=8)
        assert large.record_bytes > small.record_bytes
        assert large.total_records < small.total_records

    def test_boundaries_are_balanced(self):
        workload = SortWorkload(total_bytes=GB, values_per_key=10,
                                num_map_tasks=4, num_reduce_tasks=4)
        boundaries = sort_boundaries(workload)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)

    def test_generate_creates_blocks(self):
        cluster = hdd_cluster(num_machines=2)
        workload = SortWorkload(total_bytes=GB, values_per_key=10,
                                num_map_tasks=8)
        generate_sort_input(cluster, workload)
        dfs_file = cluster.dfs.get_file("sort-input")
        assert len(dfs_file.blocks) == 8
        assert dfs_file.nbytes == pytest.approx(GB)

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_sort_produces_sorted_output(self, engine):
        cluster = hdd_cluster(num_machines=2,
                              **scaled_memory_overrides(0.01))
        workload = SortWorkload(total_bytes=2 * GB, values_per_key=10,
                                num_map_tasks=16)
        generate_sort_input(cluster, workload)
        ctx = AnalyticsContext(cluster, engine=engine)
        result = run_sort(ctx, workload)
        assert result.duration > 0
        out = cluster.dfs.get_file("sort-output")
        assert len(out.blocks) == workload.reduce_tasks
        assert out.nbytes == pytest.approx(2 * GB, rel=0.05)

    def test_invalid_workload_rejected(self):
        with pytest.raises(ConfigError):
            SortWorkload(total_bytes=0, values_per_key=10, num_map_tasks=1)
        with pytest.raises(ConfigError):
            SortWorkload(total_bytes=1, values_per_key=0, num_map_tasks=1)


class TestWordCount:
    def test_counts_are_consistent(self):
        cluster = hdd_cluster(num_machines=2)
        generate_text_input(cluster, num_blocks=4, block_bytes=16 * MB)
        ctx = AnalyticsContext(cluster, engine="monospark")
        word_count(ctx, output_name=None)
        records = ctx.last_result  # JobResult from collect path
        assert records is not None

    def test_output_file_written(self):
        cluster = hdd_cluster(num_machines=2)
        generate_text_input(cluster, num_blocks=4, block_bytes=16 * MB)
        ctx = AnalyticsContext(cluster, engine="spark")
        word_count(ctx, num_reduce_tasks=4)
        out = cluster.dfs.get_file("wordcount-output")
        assert len(out.blocks) == 4


class TestBigDataBenchmark:
    @classmethod
    def setup_class(cls):
        cls.scale = BdbScale(fraction=0.01)

    def make_ctx(self, engine="monospark"):
        cluster = hdd_cluster(num_machines=5,
                              **scaled_memory_overrides(0.01))
        generate_bdb_tables(cluster, self.scale)
        return AnalyticsContext(cluster, engine=engine)

    def test_tables_created_with_right_sizes(self):
        ctx = self.make_ctx()
        dfs = ctx.cluster.dfs
        uservisits = dfs.get_file("uservisits")
        # Stored compressed at half the logical (scaled) size.
        assert uservisits.nbytes == pytest.approx(
            self.scale.uservisits_bytes * 0.01 * 0.5, rel=0.01)
        assert dfs.exists("rankings") and dfs.exists("documents")

    def test_query1_result_size_tracks_selectivity(self):
        ctx = self.make_ctx()
        run_query(ctx, "1a", self.scale)
        small = ctx.cluster.dfs.get_file("bdb-out-1a").nbytes
        run_query(ctx, "1c", self.scale)
        large = ctx.cluster.dfs.get_file("bdb-out-1c").nbytes
        assert large > 100 * small

    def test_query2_is_multi_stage(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "2b", self.scale)
        stages = ctx.metrics.stage_records(result.job_id)
        assert len(stages) == 2

    def test_query3_has_join_stages(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "3a", self.scale)
        stages = ctx.metrics.stage_records(result.job_id)
        # uservisits map, rankings map, join, group-by, = 4+ stages.
        assert len(stages) >= 4

    def test_query4_runs(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "4", self.scale)
        assert result.duration > 0

    def test_unknown_query_rejected(self):
        ctx = self.make_ctx()
        with pytest.raises(ConfigError):
            run_query(ctx, "5x", self.scale)

    def test_all_queries_listed(self):
        assert len(QUERIES) == 10

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            BdbScale(fraction=0.0)

    def test_queries_run_on_spark_engine_too(self):
        ctx = self.make_ctx(engine="spark")
        result = run_query(ctx, "1b", self.scale)
        assert result.duration > 0


BDB_TABLES = ("rankings", "uservisits", "documents")

#: sha256 of :func:`bdb_table_fingerprint` for :data:`SMALL_BDB_SCALE`.
GOLDEN_SMALL_BDB_SHA256 = (
    "c0ecf5c1aa8ff589838ce4e28c1a4190ecd0667f0b358e1767ff5910a2c526e2")
#: sha256 of :func:`bdb_table_fingerprint` for the three tables at the
#: scale ``bdb_template`` uses (the tenants-chaos scale).
GOLDEN_TEMPLATE_BDB_SHA256 = (
    "302818715a1153a130b572512f0996296a81a1421505a6b11b373c1a86f8d793")
#: sha256 of :func:`bdb_table_fingerprint` over ``rankings`` alone at
#: that scale: the one table ``bdb_template(ctx, "1a")`` generates.
GOLDEN_TEMPLATE_RANKINGS_SHA256 = (
    "35cc4bf21b3388c6463a2e5834b95929ce3e87b7b3ebdbb2c91cba1bca30b089")
#: The scale ``bdb_template`` generates at by default.
TEMPLATE_BDB_SCALE = BdbScale(fraction=0.002)

#: Few blocks and few sample records: every table in a few hundred rows.
SMALL_BDB_SCALE = BdbScale(fraction=0.01, block_bytes=8 * GB,
                           rankings_block_bytes=GB,
                           sample_records_per_block=6)


def bdb_table_fingerprint(cluster, tables=BDB_TABLES) -> str:
    """sha256 over the ``repr`` of every sample record of ``tables``.

    Floats enter through ``repr`` (shortest round-trip), so the hash is
    the same on every supported interpreter.
    """
    rows = [(name, block.index, block.payload.records)
            for name in tables
            for block in cluster.dfs.get_file(name).blocks]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def url_fields(cluster):
    """Every URL string of the three tables: rankings key, uservisits
    ``destURL`` and the documents' links."""
    dfs = cluster.dfs
    for block in dfs.get_file("rankings").blocks:
        for url, _ in block.payload.records:
            yield url
    for block in dfs.get_file("uservisits").blocks:
        for _, (dest, _, _) in block.payload.records:
            yield dest
    for block in dfs.get_file("documents").blocks:
        for _, links in block.payload.records:
            yield from links


@pytest.fixture(scope="module")
def template_scale_cluster():
    """A cluster holding all three tables at the template's scale."""
    cluster = hdd_cluster(num_machines=2)
    generate_bdb_tables(cluster, TEMPLATE_BDB_SCALE, seed=0)
    return cluster


class TestBdbTableGoldens:
    """The generated sample tables, pinned value for value."""

    def test_small_scale_tables(self):
        cluster = hdd_cluster(num_machines=2)
        generate_bdb_tables(cluster, SMALL_BDB_SCALE, seed=0)
        assert bdb_table_fingerprint(cluster) == GOLDEN_SMALL_BDB_SHA256

    def test_template_scale_tables(self, template_scale_cluster):
        cluster = template_scale_cluster
        assert bdb_table_fingerprint(cluster) == GOLDEN_TEMPLATE_BDB_SHA256
        assert (bdb_table_fingerprint(cluster, ("rankings",))
                == GOLDEN_TEMPLATE_RANKINGS_SHA256)

    def test_serving_template_tables(self):
        ctx = AnalyticsContext(hdd_cluster(num_machines=2))
        bdb_template(ctx, "1a")
        dfs = ctx.cluster.dfs
        assert [name for name in BDB_TABLES if dfs.exists(name)] == [
            "rankings"]
        assert (bdb_table_fingerprint(ctx.cluster, ("rankings",))
                == GOLDEN_TEMPLATE_RANKINGS_SHA256)

    def test_url_fields_share_one_string_per_url(self,
                                                 template_scale_cluster):
        urls = list(url_fields(template_scale_cluster))
        assert len(urls) > 100 * SAMPLE_URL_SPACE
        assert len({id(url) for url in urls}) <= SAMPLE_URL_SPACE


class TestMlWorkload:
    def test_dimensions(self):
        workload = MlWorkload()
        assert workload.matrix_bytes == pytest.approx(1e6 * 4096 * 8)
        assert workload.partial_product_bytes == 4096 * 512 * 8

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_iteration_structure(self, engine):
        cluster = ssd_cluster(num_machines=4)
        ctx = make_ml_context(cluster, engine,
                              MlWorkload(num_row_blocks=16))
        result = run_ml_iteration(ctx, 0)
        stages = ctx.metrics.stage_records(result.job_id)
        assert len(stages) == 2
        # In-memory shuffle: the iteration must not touch any disk.
        from repro.metrics.events import DISK
        disk_monotasks = [m for m in ctx.metrics.stage_monotasks(
            result.job_id) if m.resource == DISK]
        assert not disk_monotasks
        for machine in cluster.machines:
            for disk in machine.disks:
                assert disk.bytes_read == 0

    def test_gram_matrices_numerically_correct(self):
        import numpy as np
        cluster = ssd_cluster(num_machines=2)
        workload = MlWorkload(num_row_blocks=4, sample_rows=4,
                              sample_cols=3)
        ctx = make_ml_context(cluster, "monospark", workload, seed=7)
        matrix = ctx._ml_matrix
        partials = matrix.map(lambda rec: rec[1].T @ rec[1])
        grams = partials.collect()
        blocks = [p.records[0][1]
                  for p in matrix._plan_time_partitions()]
        expected = [b.T @ b for b in blocks]
        for got, want in zip(grams, expected):
            assert np.allclose(got, want)

    def test_invalid_workload(self):
        with pytest.raises(ConfigError):
            MlWorkload(rows=0)


#: Every package the host benchmark imports; none of them needs numpy.
NUMPY_FREE_MODULES = ("repro", "repro.clarity", "repro.controlplane",
                      "repro.datasvc", "repro.faults", "repro.health",
                      "repro.metrics", "repro.obs", "repro.serve",
                      "repro.trace", "repro.workloads",
                      "repro.workloads.scaling", "repro.xray")


def test_import_path_loads_no_numpy():
    # Only make_ml_context uses numpy, so it imports it on call.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys\n"
         f"for name in {NUMPY_FREE_MODULES!r}:\n"
         "    importlib.import_module(name)\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.split('.')[0] == 'numpy'))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestScaling:
    def test_overrides_scale_linearly(self):
        overrides = scaled_memory_overrides(0.1)
        assert overrides["buffer_cache_bytes"] == pytest.approx(3 * GB)
        assert overrides["memory_bytes"] == pytest.approx(6 * GB)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            scaled_memory_overrides(0.0)
        with pytest.raises(ConfigError):
            scaled_memory_overrides(1.5)
