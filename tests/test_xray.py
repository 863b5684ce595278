"""Tests for repro.xray: run capsules, queries, and the differential
performance debugger.

The recording fixtures are module-scoped: the canonical clean/degraded
pair (and their Spark twins) are simulated once and shared by the
round-trip, query, diff, and golden-blame tests.
"""

import importlib.util
import json
import os

import pytest

from repro.errors import CapsuleError
from repro.xray import (CAPSULE_SCHEMA, CanonicalRun, Capsule, CapsuleQuery,
                        align_jobs, diff_capsules, record_run)


SMALL = CanonicalRun(jobs=3, block_mb=8.0)


@pytest.fixture(scope="module")
def capsule_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("capsules")


@pytest.fixture(scope="module")
def clean(capsule_dir):
    return record_run(str(capsule_dir / "clean.capsule"), CanonicalRun())


@pytest.fixture(scope="module")
def degraded(capsule_dir):
    return record_run(str(capsule_dir / "degraded.capsule"),
                      CanonicalRun().degraded(machine=1))


@pytest.fixture(scope="module")
def spark_clean(capsule_dir):
    return record_run(str(capsule_dir / "spark-clean.capsule"),
                      CanonicalRun(engine="spark"))


@pytest.fixture(scope="module")
def spark_degraded(capsule_dir):
    return record_run(str(capsule_dir / "spark-degraded.capsule"),
                      CanonicalRun(engine="spark").degraded(machine=1))


class TestCapsuleRoundTrip:
    @pytest.mark.parametrize("engine", ["monospark", "spark"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_load_save_byte_identical(self, tmp_path, engine, seed):
        # The seeded property: for any seed and either engine, recording
        # twice is byte-identical, and a loaded capsule re-serializes to
        # exactly the recorded bytes (lossless parse, not a line echo).
        run = CanonicalRun(engine=engine, seed=seed, jobs=3, block_mb=8.0)
        first, again = tmp_path / "a.capsule", tmp_path / "b.capsule"
        capsule = record_run(str(first), run)
        record_run(str(again), run)
        original = first.read_bytes()
        assert original == again.read_bytes()
        resaved = tmp_path / "c.capsule"
        capsule.save(str(resaved))
        assert resaved.read_bytes() == original

    def test_header_carries_run_identity(self, clean):
        assert clean.header["type"] == "capsule"
        assert clean.header["schema"] == CAPSULE_SCHEMA
        assert clean.engine == "monospark"
        assert clean.seed == 1
        assert clean.config["block_mb"] == 48.0

    def test_every_line_is_schema_versioned(self, clean):
        with open(clean.path) as handle:
            for line in handle:
                assert json.loads(line)["schema"] == CAPSULE_SCHEMA

    def test_manifest_counts_match_body(self, clean):
        counts = clean.manifest["counts"]
        assert counts["span"] == len(clean.spans)
        assert counts["serve"] == len(clean.serves)
        assert counts["job"] == len(clean.jobs)
        assert clean.manifest["lines"] == sum(counts.values()) + 2

    def test_loads_without_resimulation(self, clean):
        # A second load touches only the file.
        reloaded = Capsule.load(clean.path)
        assert len(reloaded.spans) == len(clean.spans)
        assert reloaded.summary == clean.summary
        job_id = sorted(reloaded.jobs)[0]
        report = reloaded.critical_path_report(job_id)
        assert report.duration > 0 and report.attributable

    def test_no_wall_clock_series_recorded(self, clean):
        names = {name for name, _, _ in clean.telemetry}
        assert "repro_obs_self_overhead_ms_per_s" not in names
        assert names  # ...but the rest of the registry is there


class TestCapsuleValidation:
    def _lines(self, capsule):
        with open(capsule.path) as handle:
            return handle.read().splitlines()

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.capsule"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_unknown_schema_rejected(self, tmp_path, clean):
        lines = self._lines(clean)
        record = json.loads(lines[3])
        record["schema"] = 99
        lines[3] = json.dumps(record, separators=(",", ":"))
        with pytest.raises(CapsuleError, match="schema"):
            Capsule.load(self._write(tmp_path, lines))

    def test_missing_schema_rejected(self, tmp_path, clean):
        lines = self._lines(clean)
        record = json.loads(lines[3])
        del record["schema"]
        lines[3] = json.dumps(record, separators=(",", ":"))
        with pytest.raises(CapsuleError, match="schema"):
            Capsule.load(self._write(tmp_path, lines))

    def test_truncated_capsule_rejected(self, tmp_path, clean):
        lines = self._lines(clean)
        with pytest.raises(CapsuleError):
            Capsule.load(self._write(tmp_path, lines[:-4]))

    def test_count_mismatch_rejected(self, tmp_path, clean):
        lines = self._lines(clean)
        manifest = json.loads(lines[-1])
        manifest["counts"]["span"] += 1
        lines[-1] = json.dumps(manifest, separators=(",", ":"))
        with pytest.raises(CapsuleError, match="counts"):
            Capsule.load(self._write(tmp_path, lines))

    def test_line_total_mismatch_rejected(self, tmp_path, clean):
        # The counts still match the body; only the total is tampered.
        lines = self._lines(clean)
        manifest = json.loads(lines[-1])
        manifest["lines"] += 1
        lines[-1] = json.dumps(manifest, separators=(",", ":"))
        with pytest.raises(CapsuleError, match="lines"):
            Capsule.load(self._write(tmp_path, lines))

    def test_not_a_capsule_rejected(self, tmp_path):
        path = tmp_path / "nope.capsule"
        path.write_text('{"traceEvents": []}\n')
        with pytest.raises(CapsuleError):
            Capsule.load(str(path))


class TestQuery:
    def test_aggregate_by_resource_sees_monotask_layer(self, clean):
        rows = CapsuleQuery(clean).aggregate(group_by="resource")
        keys = {row.key for row in rows}
        assert "cpu" in keys and "network" in keys
        assert rows == sorted(rows, key=lambda r: (-r.total_s, r.key))

    def test_aggregate_percentiles_ordered(self, clean):
        for row in CapsuleQuery(clean).aggregate(group_by="machine"):
            assert row.p50_s <= row.p95_s <= row.p99_s
            assert row.count > 0 and row.total_s >= 0

    def test_filters_compose(self, clean):
        query = CapsuleQuery(clean)
        rows = query.aggregate(group_by="phase", resource="network",
                               machine=1)
        for span in query.spans(resource="network", machine=1):
            assert span.machine_id == 1 and span.resource == "network"
        assert all(row.key for row in rows)

    def test_queue_metric(self, degraded):
        rows = CapsuleQuery(degraded).aggregate(group_by="resource",
                                                metric="queue")
        assert all(row.total_s >= 0 for row in rows)

    def test_group_by_tenant_and_stage(self, clean):
        query = CapsuleQuery(clean)
        tenants = {r.key for r in query.aggregate(group_by="tenant")}
        assert tenants == {"analytics"}
        assert query.aggregate(group_by="stage")

    def test_unknown_group_and_metric_rejected(self, clean):
        query = CapsuleQuery(clean)
        with pytest.raises(CapsuleError):
            query.aggregate(group_by="bogus")
        with pytest.raises(CapsuleError):
            query.aggregate(metric="bogus")

    def test_tenant_rates_red(self, clean):
        rows = CapsuleQuery(clean).tenant_rates()
        assert len(rows) == 1
        row = rows[0]
        assert row.tenant == "analytics"
        assert row.requests == 12 and row.completed == 12
        assert row.errors == 0
        assert row.rate_per_s > 0
        assert row.p50_s <= row.p95_s <= row.p99_s

    def test_spark_capsule_defaults_to_attempt_spans(self, spark_clean):
        rows = CapsuleQuery(spark_clean).aggregate(group_by="kind")
        assert {row.key for row in rows} == {"attempt"}


class TestAlignment:
    def test_canonical_runs_align_fully(self, clean, degraded):
        pairs, unmatched_a, unmatched_b = align_jobs(clean, degraded)
        assert len(pairs) == 12
        assert unmatched_a == 0 and unmatched_b == 0
        for pair in pairs:
            assert pair.tenant == "analytics"
            assert pair.duration_a > 0 and pair.duration_b > 0

    def test_unequal_job_counts_partially_align(self, tmp_path, clean):
        short = record_run(str(tmp_path / "short.capsule"),
                           CanonicalRun(jobs=3, block_mb=48.0))
        pairs, unmatched_a, unmatched_b = align_jobs(clean, short)
        assert len(pairs) == 3
        assert unmatched_a == 9 and unmatched_b == 0


class TestDiff:
    def test_fail_slow_blames_network_on_machine_1(self, clean, degraded):
        report = diff_capsules(clean, degraded)
        assert report.attributable
        assert report.delta_total > 0
        top = report.entries[0]
        assert top.label == "network"
        assert top.machine_id == 1
        assert top.phase == "shuffle_read"
        assert top.delta > 0
        assert top.delta >= 0.5 * report.delta_total

    def test_golden_blame_narrative(self, clean, degraded):
        # The pinned golden: same seeds => this exact sentence.  If a
        # simulator change legitimately shifts it, BENCH_xray.json
        # moves too -- update both together.
        report = diff_capsules(clean, degraded)
        assert report.narrative() == (
            "+27.1s total: 74% network on machine 1 during shuffle_read; "
            "first diverging span: job 1 job-1/93 (+1.36s)")

    def test_diff_report_is_deterministic(self, capsule_dir, clean,
                                          degraded, tmp_path):
        # Same basenames in a fresh directory: the report text names
        # capsules by basename, so independent recordings must match.
        again_clean = record_run(str(tmp_path / "clean.capsule"),
                                 CanonicalRun())
        again_degraded = record_run(str(tmp_path / "degraded.capsule"),
                                    CanonicalRun().degraded(machine=1))
        first = diff_capsules(clean, degraded)
        second = diff_capsules(again_clean, again_degraded)
        assert first.format() == second.format()
        assert first.to_dict() == second.to_dict()

    def test_deltas_sum_to_total(self, clean, degraded):
        # Critical-path segments partition each job window, so summing
        # every cell (including sub-noise ones) recovers the total.
        report = diff_capsules(clean, degraded, noise_floor_s=0.0,
                               min_fraction=0.0)
        assert sum(e.delta for e in report.entries) == \
            pytest.approx(report.delta_total, abs=1e-6)

    def test_exemplar_spans_exist_in_capsule_b(self, clean, degraded):
        report = diff_capsules(clean, degraded)
        spans_by_id = {span.span_id for span in degraded.spans}
        for entry in report.entries:
            if entry.exemplar_span >= 0:
                assert entry.exemplar_span in spans_by_id

    def test_self_diff_is_silent(self, clean):
        report = diff_capsules(clean, clean)
        assert report.entries == []
        assert report.delta_total == 0.0
        assert not report.regression(0.5)

    def test_regression_thresholds(self, clean, degraded):
        report = diff_capsules(clean, degraded)
        assert report.regression(0.5)
        assert not report.regression(report.delta_total + 1.0)

    def test_spark_diff_not_attributable(self, spark_clean,
                                         spark_degraded):
        report = diff_capsules(spark_clean, spark_degraded)
        assert not report.attributable
        assert "NOT ATTRIBUTABLE" in report.format()
        assert "NOT ATTRIBUTABLE" in report.narrative()

    def test_mixed_engine_diff_not_attributable(self, clean, spark_clean):
        report = diff_capsules(clean, spark_clean)
        assert not report.attributable


class TestCollectorCache:
    def _run_job(self):
        from repro import MB, AnalyticsContext
        from repro.cluster import hdd_cluster
        from repro.workloads.wordcount import (generate_text_input,
                                               word_count)
        cluster = hdd_cluster(num_machines=2, num_disks=1, seed=0)
        generate_text_input(cluster, num_blocks=4, block_bytes=4 * MB,
                            seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        word_count(ctx)
        return ctx

    def test_report_is_cached(self):
        ctx = self._run_job()
        job_id = ctx.last_result.job_id
        first = ctx.metrics.critical_path_report(job_id,
                                                 engine="monospark")
        assert ctx.metrics.critical_path_report(
            job_id, engine="monospark") is first

    def test_new_span_invalidates(self):
        from repro.trace.spans import SPAN_MONOTASK, SpanRecord
        ctx = self._run_job()
        job_id = ctx.last_result.job_id
        first = ctx.metrics.critical_path_report(job_id,
                                                 engine="monospark")
        ctx.metrics.record_span(SpanRecord(
            span_id=10 ** 9, trace_id=f"job-{job_id}", parent_id=None,
            kind=SPAN_MONOTASK, name="late", start=0.0, end=0.1,
            machine_id=0, resource="cpu", phase="compute"))
        assert ctx.metrics.critical_path_report(
            job_id, engine="monospark") is not first

    def test_engine_label_keys_are_distinct(self):
        ctx = self._run_job()
        job_id = ctx.last_result.job_id
        mono = ctx.metrics.critical_path_report(job_id,
                                                engine="monospark")
        default = ctx.metrics.critical_path_report(job_id)
        assert mono is ctx.metrics.critical_path_report(
            job_id, engine="monospark")
        assert default is ctx.metrics.critical_path_report(job_id)

    def test_invalidation_keeps_other_jobs(self):
        from repro.trace.spans import SPAN_MONOTASK, SpanRecord
        from repro.workloads.wordcount import word_count
        ctx = self._run_job()
        kept = ctx.last_result.job_id
        word_count(ctx)
        touched = ctx.last_result.job_id
        assert kept != touched
        metrics = ctx.metrics
        kept_reports = [metrics.critical_path_report(kept),
                        metrics.critical_path_report(kept,
                                                     engine="monospark")]
        stale = metrics.critical_path_report(touched)
        metrics.record_span(SpanRecord(
            span_id=10 ** 9, trace_id=f"job-{touched}", parent_id=None,
            kind=SPAN_MONOTASK, name="late", start=0.0, end=0.1,
            machine_id=0, resource="cpu", phase="compute"))
        assert metrics.critical_path_report(kept) is kept_reports[0]
        assert metrics.critical_path_report(
            kept, engine="monospark") is kept_reports[1]
        assert metrics.critical_path_report(touched) is not stale


class TestCli:
    def test_record_query_diff_regress(self, tmp_path, capsys):
        from repro.cli import main
        clean = str(tmp_path / "a.capsule")
        degraded = str(tmp_path / "b.capsule")
        base = ["--jobs", "3", "--block-mb", "8"]
        assert main(["xray", "record", clean] + base) == 0
        assert main(["xray", "record", degraded, "--degrade-machine", "1"]
                    + base) == 0
        capsys.readouterr()

        assert main(["xray", "query", clean, "--group-by", "machine"]) == 0
        out = capsys.readouterr().out
        assert "machine 0" in out

        assert main(["xray", "query", clean, "--rates"]) == 0
        assert "analytics" in capsys.readouterr().out

        assert main(["xray", "diff", clean, degraded]) == 0
        assert "run diff:" in capsys.readouterr().out

        assert main(["xray", "diff", clean, degraded, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aligned_jobs"] == 3

        # regress plumbing: a tiny threshold trips, a huge one passes
        assert main(["xray", "regress", clean, degraded,
                     "--threshold", "0.0"]) == 3
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["xray", "regress", clean, degraded,
                     "--threshold", "1000000"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_self_regress_is_clean(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "a.capsule")
        assert main(["xray", "record", path, "--jobs", "3",
                     "--block-mb", "8"]) == 0
        assert main(["xray", "regress", path, path]) == 0


def _load_validator():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "validate_trace.py")
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidator:
    def test_copied_constants_match_the_loader(self):
        from repro.xray.capsule import KNOWN_SCHEMAS, LINE_TYPES
        validator = _load_validator()
        assert validator.KNOWN_CAPSULE_SCHEMAS == KNOWN_SCHEMAS
        assert validator.CAPSULE_LINE_TYPES == LINE_TYPES

    def test_header_key_order_is_free(self, tmp_path, capsys):
        # A header that does not start with "type" is still a capsule,
        # to the loader and to the validator alike.
        path = tmp_path / "reordered.capsule"
        path.write_text(
            '{"schema":1,"type":"capsule","engine":"monospark","seed":0,'
            '"config":{}}\n'
            '{"type":"manifest","schema":1,"counts":{},"lines":2}\n')
        assert Capsule.load(str(path)).engine == "monospark"
        validator = _load_validator()
        assert validator.validate_file(str(path)) == ("capsule", 2, [])
        assert validator.main([str(path)]) == 0
        assert "(capsule, 2 lines)" in capsys.readouterr().out

    def test_recorded_capsule_validates(self, clean):
        kind, count, errors = _load_validator().validate_file(clean.path)
        assert (kind, errors) == ("capsule", [])
        assert count == clean.manifest["lines"]
