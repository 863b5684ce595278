"""Tests for the Chrome trace exporter."""

import json

import pytest

from repro import AnalyticsContext, MB, hdd_cluster
from repro.datamodel import Partition
from repro.errors import ModelError
from repro.metrics.chrometrace import (DRIVER_PID, trace_events,
                                       write_chrome_trace)


def run_job(engine="monospark"):
    cluster = hdd_cluster(num_machines=2)
    payloads = [Partition.from_records([(i, i)], record_count=1,
                                       data_bytes=32 * MB)
                for i in range(8)]
    cluster.dfs.create_file("input", payloads, [32 * MB] * 8)
    ctx = AnalyticsContext(cluster, engine=engine)
    (ctx.text_file("input")
        .map(lambda kv: (kv[0] % 2, 1), size_ratio=1.0)
        .reduce_by_key(lambda a, b: a + b, num_partitions=2)
        .collect())
    return ctx


def run_shuffle_job(engine="monospark"):
    """A job whose every map feeds every reducer, forcing cross-machine
    shuffle flows (each partition carries both keys)."""
    cluster = hdd_cluster(num_machines=2)
    payloads = [Partition.from_records([(i, 0), (i, 1)], record_count=2,
                                       data_bytes=32 * MB)
                for i in range(8)]
    cluster.dfs.create_file("input", payloads, [32 * MB] * 8)
    ctx = AnalyticsContext(cluster, engine=engine)
    (ctx.text_file("input")
        .map(lambda kv: (kv[1] % 2, 1), size_ratio=1.0)
        .reduce_by_key(lambda a, b: a + b, num_partitions=2)
        .collect())
    return ctx


class TestTraceEvents:
    def test_events_cover_resources_and_tasks(self):
        ctx = run_job()
        events = trace_events(ctx.metrics)
        categories = {e.get("cat") for e in events if e["ph"] == "X"}
        assert "cpu" in categories
        assert "disk0" in categories
        assert "tasks" in categories

    def test_durations_nonnegative_microseconds(self):
        ctx = run_job()
        for event in trace_events(ctx.metrics):
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_job_filter(self):
        ctx = run_job()
        ctx.parallelize(range(4), num_partitions=2).count()
        job0 = trace_events(ctx.metrics, job_id=0)
        all_jobs = trace_events(ctx.metrics)
        assert len(all_jobs) > len(job0)

    def test_metadata_per_machine(self):
        ctx = run_job()
        events = trace_events(ctx.metrics)
        names = [e for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert {e["pid"] for e in names} == {0, 1, DRIVER_PID}

    def test_thread_metadata_orders_tracks(self):
        # The _TRACK_ORDER satellite: every (machine, track) pair gets a
        # thread_name and a thread_sort_index placing cpu < disks <
        # network < tasks.
        ctx = run_shuffle_job()
        events = trace_events(ctx.metrics)
        sort_index = {(e["pid"], e["tid"]): e["args"]["sort_index"]
                      for e in events
                      if e["ph"] == "M" and e["name"] == "thread_sort_index"}
        named = {(e["pid"], e["tid"]) for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        slice_tracks = {(e["pid"], e["tid"]) for e in events
                        if e["ph"] == "X"}
        assert slice_tracks <= set(sort_index) == named
        for machine in (0, 1):
            assert (sort_index[(machine, "cpu")]
                    < sort_index[(machine, "disk0")]
                    < sort_index[(machine, "disk1")]
                    < sort_index[(machine, "network")]
                    < sort_index[(machine, "tasks")])

    def test_flow_events_link_transfers(self):
        ctx = run_shuffle_job()
        events = trace_events(ctx.metrics)
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        assert starts, "shuffle run should record producer->consumer flows"
        assert set(starts) == set(finishes)
        for fid, start in starts.items():
            finish = finishes[fid]
            assert start["tid"] == finish["tid"] == "network"
            assert start["ts"] <= finish["ts"]
            assert start["pid"] != finish["pid"]  # remote flow

    def test_async_job_and_stage_spans(self):
        ctx = run_job()
        events = trace_events(ctx.metrics)
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert {e["id"] for e in begins} == {e["id"] for e in ends}
        assert all(e["pid"] == DRIVER_PID for e in begins + ends)
        cats = {e["cat"] for e in begins}
        assert cats == {"job", "stage"}

    def test_unknown_job_rejected(self):
        ctx = run_job()
        with pytest.raises(ModelError):
            trace_events(ctx.metrics, job_id=99)

    def test_spark_engine_exports_task_windows(self):
        ctx = run_job(engine="spark")
        events = trace_events(ctx.metrics)
        assert all(e["cat"] == "tasks" for e in events if e["ph"] == "X")


class TestWriteChromeTrace:
    def test_writes_valid_json(self, tmp_path):
        ctx = run_job()
        path = tmp_path / "trace.json"
        result = write_chrome_trace(ctx.metrics, str(path))
        assert result.path == str(path)
        assert result.events > 0
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == result.events

    def test_write_is_atomic(self, tmp_path):
        # A failed export must not clobber an existing file or leave a
        # temp file behind.
        ctx = run_job()
        path = tmp_path / "trace.json"
        path.write_text("precious")
        empty = AnalyticsContext(hdd_cluster(num_machines=1)).metrics
        with pytest.raises(ModelError):
            write_chrome_trace(empty, str(path))
        assert path.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
        write_chrome_trace(ctx.metrics, str(path))
        assert json.loads(path.read_text())["traceEvents"]
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_bytes_match_streaming_json_dump(self, tmp_path):
        # The exporter encodes once and writes once; the file must equal
        # what the streaming ``json.dump`` writes for the same object.
        ctx = run_shuffle_job()
        path = tmp_path / "trace.json"
        write_chrome_trace(ctx.metrics, str(path))
        reference = tmp_path / "reference.json"
        with open(reference, "w") as handle:
            json.dump({"traceEvents": trace_events(ctx.metrics),
                       "displayTimeUnit": "ms"}, handle)
        assert path.read_bytes() == reference.read_bytes()
