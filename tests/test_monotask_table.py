"""Monotask reports as rows of the collector's column table.

The collector keeps each report as one row and builds records on read.
The hypothesis test drives a collector and a list-of-records reference
through the same interleaved stream of two jobs' attempts and reports,
traced and untraced, and checks every reader against the reference.
The pins fix the ``repr`` of every record and span of two seeded
MonoSpark runs, bit for bit: a served stream, and a job whose DFS
reads and compute costs are filed as ``int``.
"""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.errors import SimulationError
from repro.metrics import MetricsCollector, MonotaskRecord
from repro.metrics.events import (CPU, DISK, NETWORK, PHASE_COMPUTE,
                                  PHASE_INPUT_READ, PHASE_SETUP,
                                  PHASE_SHUFFLE_READ, PHASE_SHUFFLE_WRITE)
from repro.serve import JobServer, PoissonArrivals, sort_template
from repro.trace.spans import LINK_QUEUE_WAIT, SPAN_MONOTASK, TraceContext
from tests.test_engine_behavior import run_read_compute

PHASES = {CPU: (PHASE_COMPUTE, PHASE_SETUP),
          DISK: (PHASE_INPUT_READ, PHASE_SHUFFLE_WRITE),
          NETWORK: (PHASE_SHUFFLE_READ, PHASE_INPUT_READ)}

#: A few instants, so reports share start and end times.
instants = st.sampled_from([0.0, 0.5, 1.25, 3.0])
costs = st.one_of(st.just(0.0), st.integers(0, 3), st.floats(0.0, 2.0))
byte_counts = st.one_of(st.just(0.0), st.floats(0.0, 1e9),
                        st.integers(0, 2 ** 40))

reports = st.fixed_dictionaries({
    "op": st.just("report"),
    "job": st.sampled_from([0, 1]),
    "stage": st.sampled_from([0, 1]),
    "traced": st.booleans(),
    "preminted": st.booleans(),
    "resource": st.sampled_from([CPU, DISK, NETWORK]),
    "phase": st.sampled_from([0, 1]),
    "machine": st.integers(0, 3),
    "disk_index": st.one_of(st.none(), st.integers(0, 2)),
    "start": instants,
    "length": st.sampled_from([0.0, 0.25, 1.0]),
    "queue_s": st.sampled_from([0.0, 0.5]),
    "nbytes": byte_counts,
    "costs": st.tuples(costs, costs, costs),
})
attempts = st.fixed_dictionaries({
    "op": st.just("attempt"),
    "job": st.sampled_from([0, 1]),
    "stage": st.sampled_from([0, 1]),
    "task": st.integers(0, 2),
})
streams = st.lists(st.one_of(reports, attempts), min_size=1, max_size=40)


def replay(ops):
    """Run ``ops`` into a collector; returns it, the reference records
    in record order, the reference spans in open order and the expected
    queue-wait links."""
    metrics = MetricsCollector()
    records, spans, links = [], [], []
    contexts = {}
    last_id = 0

    def opened(job, context):
        nonlocal last_id
        last_id = context.span_id
        span = metrics.spans_for_job(job)[-1]
        assert span.span_id == context.span_id
        spans.append(span)
        return context

    for job in (0, 1):
        opened(job, metrics.job_started(job, f"j{job}", now=0.0))
        for stage in (0, 1):
            opened(job, metrics.stage_started(job, stage, f"s{stage}",
                                              num_tasks=3, now=0.0))
    for op in ops:
        job, stage = op["job"], op["stage"]
        if op["op"] == "attempt":
            contexts[job] = opened(job, metrics.attempt_started(
                job, stage, op["task"], attempt=1, machine_id=0, now=0.0))
            continue
        deserialize_s, op_s, serialize_s = op["costs"]
        record = MonotaskRecord(
            job_id=job, stage_id=stage, task_index=0,
            resource=op["resource"],
            phase=PHASES[op["resource"]][op["phase"]],
            machine_id=op["machine"], start=op["start"],
            end=op["start"] + op["length"], queue_s=op["queue_s"],
            nbytes=op["nbytes"], disk_index=op["disk_index"],
            deserialize_s=deserialize_s, op_s=op_s, serialize_s=serialize_s)
        if not op["traced"]:
            metrics.record_monotask(record)
            records.append(replace(record))
            continue
        if job not in contexts:
            contexts[job] = opened(job, metrics.attempt_started(
                job, stage, 0, attempt=1, machine_id=0, now=0.0))
        trace = contexts[job]
        if op["preminted"]:
            span_id = last_id = metrics.new_span_id()
            metrics.record_monotask(record, trace=trace, span_id=span_id)
        else:
            metrics.record_monotask(record, trace=trace)
            span_id = last_id = last_id + 1
        expected = replace(record, span_id=span_id, trace_id=trace.trace_id,
                           parent_id=trace.span_id, name=record.phase)
        records.append(expected)
        spans.append(expected)
        if record.queue_s > 0:
            links.append((trace.span_id, span_id, record.start))
    return metrics, records, spans, links


def queue_totals(records, job_ids=None):
    totals = {CPU: 0.0, DISK: 0.0, NETWORK: 0.0}
    for record in records:
        if job_ids is None or record.job_id in job_ids:
            totals[record.resource] += record.queue_s
    return totals


class TestTableAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(streams)
    def test_readers_match_records(self, ops):
        metrics, records, spans, links = replay(ops)
        rows = metrics.monotasks
        assert len(rows) == len(records)
        assert list(rows) == records
        assert [repr(row) for row in rows] == [repr(r) for r in records]
        assert [rows[i] for i in range(len(rows))] == records
        if records:
            assert rows[-1] == records[-1]
            assert rows[-len(records)] == records[0]
        for window in (slice(1, 3), slice(None, None, 2), slice(-2, None),
                       slice(len(records), None)):
            assert rows[window] == records[window]
        assert rows == records and metrics.spans == spans
        assert len(metrics.spans) == len(spans)
        assert [repr(span) for span in metrics.spans] == \
            [repr(span) for span in spans]
        assert [metrics.spans[i] for i in range(len(spans))] == spans
        assert metrics.spans[-1] == spans[-1]
        assert metrics.spans[2:] == spans[2:]
        for job in (0, 1):
            trace_id = f"job-{job}"
            assert metrics.spans_for_job(job) == \
                [s for s in spans if s.trace_id == trace_id]
            mine = [r for r in records if r.job_id == job]
            assert metrics.stage_monotasks(job) == mine
            for stage in (0, 1):
                assert metrics.stage_monotasks(job, stage) == \
                    [r for r in mine if r.stage_id == stage]
            assert metrics.monotask_scan(job) == [
                (r.stage_id, r.resource, r.phase, r.machine_id, r.start,
                 r.end, r.queue_s, r.nbytes, r.deserialize_s, r.op_s,
                 r.serialize_s)
                for r in mine]
            assert metrics.monotask_leaves(job) == [
                (r.start, r.end, r.resource, r.machine_id, r.phase,
                 r.span_id, r.queue_s)
                for r in spans if r.trace_id == trace_id
                and r.kind == SPAN_MONOTASK]
        for job_ids in (None, [0], [1], [1, 0], [7]):
            assert metrics.queue_seconds_by_resource(job_ids) == \
                queue_totals(records, job_ids)
        assert [(link.from_span_id, link.to_span_id, link.at)
                for link in metrics.links
                if link.kind == LINK_QUEUE_WAIT] == links


class TestTableEdges:
    def test_an_empty_table_reads_empty(self):
        metrics = MetricsCollector()
        assert metrics.monotasks == [] and metrics.spans == []
        assert not metrics.monotasks and not metrics.spans
        assert metrics.monotasks[:] == []
        with pytest.raises(IndexError):
            metrics.monotasks[0]
        with pytest.raises(IndexError):
            metrics.spans[0]

    def test_a_row_traced_outside_its_job_is_refused(self):
        metrics = MetricsCollector()
        record = MonotaskRecord(job_id=3, stage_id=0, task_index=0,
                                resource=CPU, phase=PHASE_COMPUTE,
                                machine_id=0, start=0.0, end=1.0)
        with pytest.raises(SimulationError, match="job 3"):
            metrics.record_monotask(
                record, trace=TraceContext(trace_id="job-4", span_id=1))
        assert metrics.monotasks == [] and metrics.spans == []

    def test_sinks_get_the_record_readers_get(self):
        class Sink:
            def __init__(self):
                self.spans = []

            def span_finished(self, span):
                self.spans.append(span)

            def link_recorded(self, link):
                pass

        metrics, _, _, _ = replay([])
        sink = Sink()
        metrics.add_span_sink(sink)
        context = metrics.attempt_started(0, 0, 0, attempt=1, machine_id=0,
                                          now=0.0)
        metrics.record_monotask(MonotaskRecord(
            job_id=0, stage_id=0, task_index=0, resource=DISK,
            phase=PHASE_INPUT_READ, machine_id=1, start=0.0, end=2.0,
            nbytes=64, disk_index=1), trace=context)
        assert sink.spans == [metrics.monotasks[0]]
        assert type(sink.spans[0].nbytes) is int


# -- pins -------------------------------------------------------------------


def serve_run():
    cluster = hdd_cluster(num_machines=2, num_disks=2, seed=0)
    ctx = AnalyticsContext(cluster, engine="monospark")
    server = JobServer(ctx, policy="fifo", seed=0)
    server.add_tenant("t")
    template = sort_template(ctx, total_gb=0.05, num_tasks=4, seed=0)
    server.add_workload("t", template, PoissonArrivals(0.2, horizon_s=60.0))
    server.run()
    return ctx.metrics


def int_bytes_run():
    """A job whose DFS reads carry ``int`` byte counts, then one whose
    reducers of empty buckets cost an ``int`` zero to deserialize."""
    ctx = run_read_compute("monospark", machines=2, blocks=16)[1]
    ctx.parallelize([("hot", 1)] * 100, num_partitions=4).reduce_by_key(
        lambda a, b: a + b, num_partitions=8).collect()
    return ctx.metrics


def records_fingerprint(metrics):
    """sha256 over the ``repr`` of every record and span, whole-run and
    per job."""
    sha = hashlib.sha256()
    for record in metrics.monotasks:
        sha.update(repr(record).encode())
    for span in metrics.spans:
        sha.update(repr(span).encode())
    for job_id in sorted(metrics.jobs):
        for span in metrics.spans_for_job(job_id):
            sha.update(repr(span).encode())
        for record in metrics.stage_monotasks(job_id):
            sha.update(repr(record).encode())
    return sha.hexdigest()


GOLDEN_SERVE_RECORDS_SHA256 = (
    "ad05d61c82758c2b72042125e4829249c19b77110815d487abf2abd524f6d8c9")
GOLDEN_INT_BYTES_RECORDS_SHA256 = (
    "019107c1509ae8d5cbc4f06eb9acfe0e35082987505eb6f5109b7c2d7fe27bd8")


class TestRecordPins:
    def test_served_stream_records(self):
        metrics = serve_run()
        assert len(metrics.monotasks) == 840 and len(metrics.spans) == 1005
        assert records_fingerprint(metrics) == GOLDEN_SERVE_RECORDS_SHA256

    def test_int_byte_counts_read_back_as_ints(self):
        metrics = int_bytes_run()
        assert any(type(r.nbytes) is int for r in metrics.monotasks)
        assert any(type(r.deserialize_s) is int for r in metrics.monotasks)
        assert records_fingerprint(metrics) == \
            GOLDEN_INT_BYTES_RECORDS_SHA256
