"""Tests for the causal tracing subsystem (`repro.trace`).

Covers the tracing contract: a run capsule holds the whole trace, the
critical path partitions the job window exactly (on a hand-built plan
where the answer is known), the Prometheus exposition lints, the
collector's close paths reject bad ids, and span trees from seeded
random plans are well-formed (every parent exists, no cycles).
"""

import json
import random
import re

import pytest

from repro import AnalyticsContext, MB, hdd_cluster
from repro.datamodel import Partition
from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import (CPU, DISK, NETWORK, PHASE_COMPUTE,
                                  PHASE_INPUT_READ, PHASE_SHUFFLE_READ,
                                  MonotaskRecord)
from repro.simulator import Environment
from repro.trace import (SPAN_ATTEMPT, SPAN_JOB, SPAN_MONOTASK, SPAN_STAGE,
                         TelemetryRegistry, TelemetrySampler, critical_path,
                         link_to_json, render_prometheus, span_to_json)
from repro.xray import Capsule, RunRecorder


def run_shuffle(engine="monospark", num_blocks=8, modulus=2,
                num_partitions=2, records_per_block=2, seed=0):
    """A small shuffle job; records spread keys so reducers fetch
    remotely."""
    cluster = hdd_cluster(num_machines=2, seed=seed)
    payloads = [Partition.from_records(
        [(i, j) for j in range(records_per_block)],
        record_count=records_per_block, data_bytes=32 * MB)
        for i in range(num_blocks)]
    cluster.dfs.create_file("input", payloads, [32 * MB] * num_blocks)
    ctx = AnalyticsContext(cluster, engine=engine)
    (ctx.text_file("input")
        .map(lambda kv: (kv[1] % modulus, 1), size_ratio=1.0)
        .reduce_by_key(lambda a, b: a + b, num_partitions=num_partitions)
        .collect())
    return ctx


class TestJsonlRoundTrip:
    def test_sink_matches_collector(self, tmp_path):
        path = str(tmp_path / "run.capsule")
        cluster = hdd_cluster(num_machines=2)
        payloads = [Partition.from_records([(i, 0), (i, 1)], record_count=2,
                                           data_bytes=32 * MB)
                    for i in range(8)]
        cluster.dfs.create_file("input", payloads, [32 * MB] * 8)
        ctx = AnalyticsContext(cluster, engine="monospark")
        recorder = RunRecorder(path, engine="monospark").attach(ctx.metrics)
        (ctx.text_file("input")
            .map(lambda kv: (kv[1] % 2, 1), size_ratio=1.0)
            .reduce_by_key(lambda a, b: a + b, num_partitions=2)
            .collect())
        recorder.finalize()
        recorder.close()

        # Spans stream out as they close, so compare by id; links are
        # written as they are recorded, in order.
        capsule = Capsule.load(path)
        assert len(capsule.spans) == len(ctx.metrics.spans)
        assert ({s.span_id: span_to_json(s) for s in capsule.spans}
                == {s.span_id: span_to_json(s) for s in ctx.metrics.spans})
        assert ([link_to_json(link) for link in capsule.links]
                == [link_to_json(link) for link in ctx.metrics.links])

        span_ids = {span.span_id for span in capsule.spans}
        for link in capsule.links:
            assert link.from_span_id in span_ids
            assert link.to_span_id in span_ids
        for span in capsule.spans:
            if span.parent_id is not None:
                assert span.parent_id in span_ids
        kinds = {span.kind for span in capsule.spans}
        assert kinds == {"job", "stage", "attempt", "monotask"}
        assert {link.kind for link in capsule.links} >= {"shuffle-fetch",
                                                         "dag-edge"}

    def test_disk_monotask_lines_carry_disk_index(self, tmp_path):
        # A disk monotask's span line names the disk that served it.
        path = str(tmp_path / "run.capsule")
        cluster = hdd_cluster(num_machines=2)
        payloads = [Partition.from_records([(i, 0)], record_count=1,
                                           data_bytes=32 * MB)
                    for i in range(4)]
        cluster.dfs.create_file("input", payloads, [32 * MB] * 4)
        ctx = AnalyticsContext(cluster, engine="monospark")
        recorder = RunRecorder(path, engine="monospark").attach(ctx.metrics)
        ctx.text_file("input").count()
        recorder.close()
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        disk_lines = [line for line in lines
                      if line["type"] == "span"
                      and line["kind"] == SPAN_MONOTASK
                      and line["resource"] == DISK]
        assert disk_lines
        assert sorted(line["attrs"]["disk_index"] for line in disk_lines) \
            == sorted(record.disk_index for record in ctx.metrics.monotasks
                      if record.resource == DISK)
        # A loaded capsule reads the index back as an attr; its spans
        # serialize exactly as the live records do.
        live = [s for s in ctx.metrics.spans if s.kind == SPAN_MONOTASK]
        loaded = [s for s in Capsule.load(path).spans
                  if s.kind == SPAN_MONOTASK]
        assert [s.attrs.get("disk_index") for s in loaded] == \
            [s.disk_index for s in live]
        assert [span_to_json(s) for s in loaded] == \
            [span_to_json(s) for s in live]

    def test_closed_sink_drops_silently(self, tmp_path):
        path = str(tmp_path / "run.capsule")
        recorder = RunRecorder(path)
        recorder.close()
        recorder.close()  # idempotent
        metrics = MetricsCollector()
        recorder.attach(metrics)
        metrics.job_started(0, "late", now=0.0)
        metrics.job_finished(0, now=1.0)
        capsule = Capsule.load(path)
        assert capsule.spans == [] and capsule.manifest["counts"] == {}


def build_tiny_plan():
    """A hand-built two-stage plan with a known critical path.

    machine 0: disk read [0, 2], cpu queued [2, 3], cpu [3, 6]
    driver gap [6, 7]
    machine 1: network fetch [7, 9]
    """
    metrics = MetricsCollector()
    metrics.job_started(0, "tiny", now=0.0)
    metrics.stage_started(0, 0, "map", num_tasks=1, now=0.0)
    attempt = metrics.attempt_started(0, 0, 0, attempt=0, machine_id=0,
                                      now=0.0)
    metrics.record_monotask(MonotaskRecord(
        job_id=0, stage_id=0, task_index=0, resource=DISK,
        phase=PHASE_INPUT_READ, machine_id=0, start=0.0, end=2.0,
        disk_index=0, nbytes=32 * MB), trace=attempt)
    metrics.record_monotask(MonotaskRecord(
        job_id=0, stage_id=0, task_index=0, resource=CPU,
        phase=PHASE_COMPUTE, machine_id=0, start=3.0, end=6.0,
        queue_s=1.0), trace=attempt)
    metrics.attempt_finished(attempt, now=6.0, outcome="success")
    metrics.stage_finished(0, 0, now=6.0)
    metrics.stage_started(0, 1, "reduce", num_tasks=1, now=7.0,
                          parent_stage_ids=[0])
    attempt = metrics.attempt_started(0, 1, 0, attempt=0, machine_id=1,
                                      now=7.0)
    metrics.record_monotask(MonotaskRecord(
        job_id=0, stage_id=1, task_index=0, resource=NETWORK,
        phase=PHASE_SHUFFLE_READ, machine_id=1, start=7.0, end=9.0),
        trace=attempt)
    metrics.attempt_finished(attempt, now=9.0, outcome="success")
    metrics.stage_finished(0, 1, now=9.0)
    metrics.job_finished(0, now=9.0)
    return metrics


class TestMonotaskLeafSpans:
    def test_traced_record_is_its_span(self):
        # A traced monotask's report is filed once, as one row: the
        # record read from ``monotasks`` equals the leaf span read from
        # ``spans``.
        metrics = run_shuffle().metrics
        leaves = [span for span in metrics.spans
                  if span.kind == SPAN_MONOTASK]
        assert leaves
        assert len(leaves) == len(metrics.monotasks)
        assert all(span == record
                   for span, record in zip(leaves, metrics.monotasks))
        for record in metrics.monotasks:
            assert record.name == record.phase
            assert record.span_id > 0 and record.parent_id is not None

    def test_records_share_one_empty_attrs(self):
        # A disk monotask keeps its disk index in the field alone; only
        # its serialized line spells it as an attr.
        records = run_shuffle().metrics.monotasks
        assert len(records) >= 2
        assert all(r.attrs is records[0].attrs for r in records)
        assert records[0].attrs == {}
        disk = [r for r in records if r.disk_index is not None]
        assert disk
        assert all(span_to_json(r)["attrs"] == {"disk_index": r.disk_index}
                   for r in disk)

    def test_untraced_record_is_not_a_span(self):
        metrics = MetricsCollector()
        record = MonotaskRecord(
            job_id=0, stage_id=0, task_index=0, resource=CPU,
            phase=PHASE_COMPUTE, machine_id=0, start=0.0, end=1.0)
        metrics.record_monotask(record)
        assert metrics.monotasks == [record]
        assert metrics.spans == []


class TestCriticalPathInvariants:
    def test_partitions_job_window_exactly(self):
        report = critical_path(build_tiny_plan(), 0, engine="monospark")
        assert report.attributable
        assert report.duration == pytest.approx(9.0)
        assert report.total_attributed == pytest.approx(report.duration,
                                                        abs=1e-9)
        assert report.segments[0].start == report.start
        assert report.segments[-1].end == report.end
        for left, right in zip(report.segments, report.segments[1:]):
            assert left.end == pytest.approx(right.start, abs=1e-9)

    def test_known_attribution(self):
        report = critical_path(build_tiny_plan(), 0)
        assert report.by_label() == pytest.approx({
            "disk": 2.0, "cpu queue": 1.0, "cpu": 3.0,
            "driver": 1.0, "network": 2.0})
        assert sum(report.fractions().values()) == pytest.approx(1.0)
        assert report.by_machine() == pytest.approx(
            {0: 6.0, -1: 1.0, 1: 2.0})
        label, machine, seconds = report.dominant()
        assert (label, machine) == ("cpu", 0)
        assert seconds == pytest.approx(3.0)

    def test_blended_fallback_not_attributable(self):
        metrics = MetricsCollector()
        metrics.job_started(0, "blended", now=0.0)
        metrics.stage_started(0, 0, "s", num_tasks=1, now=0.0)
        attempt = metrics.attempt_started(0, 0, 0, attempt=0, machine_id=0,
                                          now=0.0)
        metrics.attempt_finished(attempt, now=4.0, outcome="success")
        metrics.stage_finished(0, 0, now=4.0)
        metrics.job_finished(0, now=5.0)
        report = critical_path(metrics, 0, engine="spark")
        assert not report.attributable
        assert report.total_attributed == pytest.approx(report.duration)
        assert set(report.by_label()) == {"task", "driver"}
        assert "NOT ATTRIBUTABLE" in report.format()

    def test_unknown_and_unfinished_jobs_rejected(self):
        metrics = build_tiny_plan()
        with pytest.raises(SimulationError, match="unknown job id 7"):
            critical_path(metrics, 7)
        metrics.job_started(1, "open", now=10.0)
        with pytest.raises(SimulationError, match="unfinished job 1"):
            critical_path(metrics, 1)

    def test_real_run_sums_to_wall_clock(self):
        ctx = run_shuffle("monospark")
        job_id = ctx.last_result.job_id
        report = critical_path(ctx.metrics, job_id, engine="monospark")
        assert report.attributable
        assert report.total_attributed == pytest.approx(
            ctx.metrics.job_duration(job_id), abs=1e-9)
        assert "network" in report.by_label()


class TestCollectorHardening:
    def test_duplicate_job_rejected(self):
        metrics = MetricsCollector()
        metrics.job_started(0, "first", now=0.0)
        with pytest.raises(SimulationError, match="job id 0"):
            metrics.job_started(0, "again", now=1.0)

    def test_unknown_close_paths_rejected(self):
        metrics = MetricsCollector()
        metrics.job_started(0, "job", now=0.0)
        with pytest.raises(SimulationError, match="stage"):
            metrics.stage_finished(0, 3, now=1.0)
        with pytest.raises(SimulationError, match="job"):
            metrics.job_finished(9, now=1.0)


_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*='
    r'"(?:[^"\\\n]|\\["\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*='
    r'"(?:[^"\\\n]|\\["\\n])*")*\})? -?[0-9][0-9a-zA-Z.+-]*$')


class TestPrometheusExposition:
    def make_registry(self):
        registry = TelemetryRegistry()
        registry.gauge("repro_queue_depth", "Waiting monotasks",
                       lambda: 3, machine=0, resource="disk0")
        registry.gauge("repro_queue_depth", "Waiting monotasks",
                       lambda: 0.5, machine=1, resource="cpu")
        registry.counter("repro_retries_total", "Attempt retries",
                         lambda: 7)
        registry.gauge("repro_oddball", "Label escaping",
                       lambda: 1, note='say "hi"\\\n')
        return registry

    def test_lint(self):
        text = render_prometheus(self.make_registry(), now=12.5)
        assert text.endswith("\n")
        seen_types = {}
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                _, kind, name = line.split(" ", 3)[:3]
                if kind == "TYPE":
                    seen_types[name] = line.rsplit(" ", 1)[1]
                continue
            if line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), line
            name = re.split(r"[{ ]", line, 1)[0]
            assert name in seen_types, f"sample before TYPE: {line}"
        assert seen_types == {"repro_queue_depth": "gauge",
                              "repro_retries_total": "counter",
                              "repro_oddball": "gauge"}

    def test_deterministic_and_escaped(self):
        registry = self.make_registry()
        first = render_prometheus(registry)
        assert first == render_prometheus(registry)
        assert r'note="say \"hi\"\\\n"' in first
        assert 'repro_queue_depth{machine="0",resource="disk0"} 3' in first
        assert "0.5" in first

    def test_bad_registrations_rejected(self):
        registry = self.make_registry()
        with pytest.raises(SimulationError, match="invalid metric name"):
            registry.gauge("bad-name", "x", lambda: 0)
        with pytest.raises(SimulationError, match="invalid label name"):
            registry.gauge("ok", "x", lambda: 0, **{"bad-label": 1})
        with pytest.raises(SimulationError, match="both"):
            registry.gauge("repro_retries_total", "x", lambda: 0, a=1)
        with pytest.raises(SimulationError, match="duplicate series"):
            registry.counter("repro_retries_total", "Attempt retries",
                             lambda: 0)
        with pytest.raises(SimulationError, match="duplicate series"):
            registry.gauge("repro_queue_depth", "Waiting monotasks",
                           lambda: 9, machine=0, resource="disk0")
        with pytest.raises(SimulationError, match="conflicting help"):
            registry.gauge("repro_queue_depth", "Different story",
                           lambda: 0, machine=2, resource="cpu")
        with pytest.raises(SimulationError, match="reserved"):
            registry.gauge("ok", "x", lambda: 0, **{"__name__": "x"})
        # A new labeled series under an existing metric with matching
        # help text and kind is fine.
        registry.gauge("repro_queue_depth", "Waiting monotasks",
                       lambda: 1, machine=2, resource="cpu")

    def test_sampler_cadence(self):
        ctx = run_shuffle("monospark", num_blocks=2)
        env = ctx.engine.env
        registry = TelemetryRegistry()
        ticks = []
        registry.gauge("repro_clock", "Sampler tick probe",
                       lambda: ticks.append(env.now) or env.now)
        sampler = TelemetrySampler(env, registry, interval_s=2.0)
        start = env.now
        sampler.start()
        sampler.start()  # idempotent
        done = env.timeout(5.0)
        env.run(until=done)
        sampler.stop()
        env.run()  # drain the sampler's pending tick
        assert ticks == [pytest.approx(start + dt) for dt in (0.0, 2.0, 4.0)]
        history = registry.history("repro_clock")
        assert [t for t, _ in history] == ticks

    def test_bad_interval_rejected(self):
        with pytest.raises(SimulationError, match="interval"):
            TelemetrySampler(None, TelemetryRegistry(), interval_s=0.0)

    def test_stopped_sampler_stays_stopped(self):
        # A restart must not run a second loop beside the first (that
        # took 20 samples by t=10.5 where a restart would take 11).
        env = Environment()
        registry = TelemetryRegistry()
        ticks = []
        registry.gauge("repro_clock", "Sampler tick probe",
                       lambda: ticks.append(env.now) or env.now)
        sampler = TelemetrySampler(env, registry, interval_s=1.0)
        sampler.start()
        env.run(until=2.5)
        sampler.stop()
        with pytest.raises(SimulationError, match="restart"):
            sampler.start()
        env.run(until=10.5)
        assert ticks == [0.0, 1.0, 2.0]
        sampler.stop()  # idempotent


def assert_well_formed(metrics, job_id):
    """The span-tree well-formedness property."""
    spans = metrics.spans_for_job(job_id)
    assert spans, "job produced no spans"
    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans), "duplicate span ids"
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1 and roots[0].kind == SPAN_JOB

    parent_kind = {SPAN_STAGE: SPAN_JOB, SPAN_ATTEMPT: SPAN_STAGE,
                   SPAN_MONOTASK: SPAN_ATTEMPT}
    for span in spans:
        assert span.finished, f"span {span.span_id} never closed"
        assert span.start <= span.end
        assert span.trace_id == metrics.job_trace_id(job_id)
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            assert parent is not None, \
                f"span {span.span_id} parent {span.parent_id} missing"
            assert parent.kind == parent_kind[span.kind]
        # Walk to the root: terminates (no cycles) within |spans| hops.
        seen = set()
        node = span
        while node.parent_id is not None:
            assert node.span_id not in seen, "cycle in span tree"
            seen.add(node.span_id)
            node = by_id[node.parent_id]
        assert node.kind == SPAN_JOB

    for link in metrics.links_for_job(job_id):
        assert link.from_span_id in by_id
        assert link.to_span_id in by_id
        assert link.from_span_id != link.to_span_id


class TestSpanTreeProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_plans_monospark(self, seed):
        rng = random.Random(seed)
        ctx = run_shuffle(
            "monospark",
            num_blocks=rng.randrange(2, 9),
            modulus=rng.randrange(1, 5),
            num_partitions=rng.randrange(1, 5),
            records_per_block=rng.randrange(1, 4),
            seed=seed)
        assert_well_formed(ctx.metrics, ctx.last_result.job_id)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_plans_spark(self, seed):
        rng = random.Random(100 + seed)
        ctx = run_shuffle(
            "spark",
            num_blocks=rng.randrange(2, 9),
            modulus=rng.randrange(1, 5),
            num_partitions=rng.randrange(1, 5),
            records_per_block=rng.randrange(1, 4),
            seed=seed)
        metrics = ctx.metrics
        assert_well_formed(metrics, ctx.last_result.job_id)
        kinds = {span.kind
                 for span in metrics.spans_for_job(ctx.last_result.job_id)}
        assert SPAN_MONOTASK not in kinds  # blended engine: no leaves
