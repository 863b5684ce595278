"""Causal links and a loaded capsule's monotask spans as table rows.

The collector files each link as one row of typed columns and builds a
:class:`SpanLink` on read.  The hypothesis test drives a collector and a
list-of-links reference through the same stream of every link kind,
``at`` values (NaN, ``int``, ``float``) and details, and checks every
reader and a sink against the reference.  The capsule tests load
recorded runs and check that each monotask span line read back as a
row equals what the per-line span parser builds, that a line which
does not fit a row stays a span object, and that the live and loaded
views agree.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.xray.capsule as capsule_module
from repro.errors import CapsuleError, ModelError
from repro.jsonl import encode_line
from repro.metrics import MetricsCollector
from repro.metrics.table import ROW
from repro.trace.spans import (LINK_DAG_EDGE, LINK_DATASVC_READ,
                               LINK_DATASVC_WRITE, LINK_FAILOVER_RESUME,
                               LINK_QUEUE_WAIT, LINK_REDISPATCH, LINK_RETRY,
                               LINK_SHUFFLE_FETCH, LINK_SPECULATION,
                               SPAN_MONOTASK, SpanLink, link_to_json,
                               span_to_json)
from repro.xray import CanonicalRun, Capsule, RunRecorder
from repro.xray.scenario import build_run

LINK_KINDS = [LINK_DAG_EDGE, LINK_SHUFFLE_FETCH, LINK_QUEUE_WAIT, LINK_RETRY,
              LINK_SPECULATION, LINK_REDISPATCH, LINK_DATASVC_READ,
              LINK_DATASVC_WRITE, LINK_FAILOVER_RESUME]

links = st.builds(
    SpanLink,
    from_span_id=st.integers(0, 2 ** 40),
    to_span_id=st.integers(0, 2 ** 40),
    kind=st.sampled_from(LINK_KINDS),
    trace_id=st.sampled_from(["job-0", "job-1", "job-12", "failover-1"]),
    at=st.one_of(st.just(float("nan")), st.integers(-5, 10 ** 6),
                 st.floats(allow_nan=False), st.just(0.0)),
    detail=st.sampled_from(["", "stage 1 -> stage 0", "cpu queue 0.5s"]))


def same(got, want):
    """Links equal field by field, ``at`` to its type (NaN reads NaN)."""
    return ([repr(link) for link in got] == [repr(link) for link in want]
            and [type(link.at) for link in got]
            == [type(link.at) for link in want])


class Sink:
    def __init__(self):
        self.links = []

    def span_finished(self, span):
        pass

    def link_recorded(self, link):
        self.links.append(link)


def file_links(metrics, filed):
    for link in filed:
        metrics.record_link(from_span_id=link.from_span_id,
                            to_span_id=link.to_span_id, kind=link.kind,
                            trace_id=link.trace_id, at=link.at,
                            detail=link.detail)


class TestLinkRows:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(links, max_size=40))
    def test_rows_read_back_as_filed(self, filed):
        metrics = MetricsCollector()
        sink = Sink()
        metrics.add_span_sink(sink)
        file_links(metrics, filed)
        assert len(metrics.links) == len(filed)
        assert same(metrics.links, filed)
        assert same([metrics.links[i] for i in range(len(filed))], filed)
        assert same(metrics.links[1:3], filed[1:3])
        assert same(sink.links, filed)
        assert [link_to_json(link) for link in metrics.links] == \
            [link_to_json(link) for link in filed]
        for job in (0, 1, 12, 5):
            trace_id = f"job-{job}"
            assert same(metrics.links_for_job(job),
                        [link for link in filed if link.trace_id == trace_id])
        finite = [link for link in filed if link.at == link.at]
        assert [link for link in metrics.links if link.at == link.at] == \
            finite

    def test_every_kind_and_number_type(self):
        filed = [SpanLink(i, i + 1, kind, "job-3", at, detail)
                 for i, (kind, at, detail) in enumerate(zip(
                     LINK_KINDS, [float("nan"), 0, 2.5, 7, 0.0, -1, 1e300,
                                  3, float("nan")],
                     ["", "x", "", "y", "", "", "z", "", "x"]))]
        metrics = MetricsCollector()
        file_links(metrics, filed)
        assert same(metrics.links, filed)
        assert {link.kind for link in metrics.links} == set(LINK_KINDS)
        assert type(metrics.links[1].at) is int
        assert type(metrics.links[2].at) is float
        assert "at" not in link_to_json(metrics.links[0])
        assert "detail" not in link_to_json(metrics.links[0])

    def test_no_sink_no_link_object(self):
        metrics = MetricsCollector()
        metrics.record_link(1, 2, LINK_RETRY, "job-0", 1.0, "again")
        assert metrics.links == [SpanLink(1, 2, LINK_RETRY, "job-0", 1.0,
                                          "again")]
        assert metrics.links_for_job(0) == list(metrics.links)
        assert metrics.links_for_job(1) == []
        with pytest.raises(IndexError):
            metrics.links[1]

    def test_repeated_values_are_kept_once(self):
        metrics = MetricsCollector()
        for i in range(10):
            metrics.record_link(i, i + 1, LINK_QUEUE_WAIT, f"job-{i % 2}",
                                float(i), "cpu queue 0.5s")
        table = metrics.link_table
        assert len(table.kinds) == 1 and len(table.details) == 1
        assert table.traces == ["job-0", "job-1"]
        assert list(table.trace_rows[1]) == [1, 3, 5, 7, 9]


# -- loaded capsules ---------------------------------------------------------


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A small canonical run: (live collector, capsule path)."""
    path = str(tmp_path_factory.mktemp("links") / "run.capsule")
    run = CanonicalRun(jobs=3, block_mb=8.0)
    ctx, server, obs, aggregator = build_run(run)
    with RunRecorder(path, engine=run.engine, seed=run.seed,
                     config=asdict(run)) as recorder:
        recorder.attach(ctx.metrics)
        report = server.run()
        recorder.finalize(report=report, clarity=aggregator,
                          telemetry=obs.registry)
    return ctx.metrics, path


def body_spans(path):
    """Each span line as the per-line parser builds it, in file order."""
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]
    return [capsule_module._span_from_json(line, {}) for line in lines
            if line["type"] == "span"]


def rewrite(path, out, change):
    """``path`` with its first disk monotask span line passed through
    ``change(line)`` and re-encoded as the recorder writes a span."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    for index, text in enumerate(lines):
        line = json.loads(text)
        if line.get("kind") == SPAN_MONOTASK and "attrs" in line:
            change(line)
            span = capsule_module._span_from_json(line, {})
            lines[index] = encode_line({**span_to_json(span), "schema": 1})
            break
    out.write_text("\n".join(lines) + "\n")
    return str(out)


class TestLoadedCapsule:
    def test_spans_equal_the_parsed_lines(self, recorded):
        _, path = recorded
        loaded = Capsule.load(path)
        parsed = body_spans(path)
        assert loaded.spans == parsed
        assert [repr(span) for span in loaded.spans] == \
            [repr(span) for span in parsed]
        for job_id in loaded.jobs:
            trace_id = f"job-{job_id}"
            assert loaded.spans_for_job(job_id) == \
                [span for span in parsed if span.trace_id == trace_id]
        monotasks = sum(span.kind == SPAN_MONOTASK for span in parsed)
        assert monotasks and len(loaded.monotask_table) == monotasks
        assert any(span.attrs for span in loaded.spans
                   if span.kind == SPAN_MONOTASK)

    def test_carries_no_monotask_reports(self, recorded):
        _, path = recorded
        loaded = Capsule.load(path)
        job_id = sorted(loaded.jobs)[0]
        assert loaded.monotasks == [] and len(loaded.monotasks) == 0
        assert loaded.stage_monotasks(job_id) == []
        assert loaded.monotask_scan(job_id) == []
        assert loaded.total_disk_bytes(job_id) == 0
        assert set(loaded.queue_seconds_by_resource().values()) == {0.0}
        with pytest.raises(ModelError, match="no monotask records"):
            loaded.stage_profiles(job_id)

    def test_live_and_loaded_links_agree(self, recorded):
        metrics, path = recorded
        loaded = Capsule.load(path)
        assert [link_to_json(link) for link in loaded.links] == \
            [link_to_json(link) for link in metrics.links]
        for job_id in metrics.jobs:
            assert [link_to_json(link)
                    for link in loaded.links_for_job(job_id)] == \
                [link_to_json(link) for link in metrics.links_for_job(job_id)]

    def test_critical_path_is_the_same_live_and_loaded(self, recorded):
        metrics, path = recorded
        loaded = Capsule.load(path)
        for job_id in metrics.jobs:
            live = metrics.critical_path_report(job_id, loaded.engine)
            assert vars(loaded.critical_path_report(job_id)) == vars(live)
            assert loaded.monotask_leaves(job_id) == \
                metrics.monotask_leaves(job_id)

    @pytest.mark.parametrize("change", [
        lambda line: line.update(name="renamed"),
        lambda line: line.update(trace_id="job-01"),
        lambda line: line.update(start=1),
        lambda line: line.update(queue_s=2),
        lambda line: line.update(parent_id=None),
        lambda line: line.update(end=float("nan")),
        lambda line: line["attrs"].update(note="x"),
        lambda line: line["attrs"].update(disk_index=True),
    ], ids=["name", "trace", "int-start", "int-queue", "no-parent",
            "unfinished", "extra-attr", "bool-disk"])
    def test_a_line_that_does_not_fit_stays_a_span(self, recorded, tmp_path,
                                                   change):
        _, path = recorded
        odd = rewrite(path, tmp_path / "odd.capsule", change)
        loaded = Capsule.load(odd)
        parsed = body_spans(odd)
        assert [repr(span) for span in loaded.spans] == \
            [repr(span) for span in parsed]
        monotasks = sum(span.kind == SPAN_MONOTASK for span in parsed)
        assert len(loaded.monotask_table) == monotasks - 1
        assert sum(entry is not ROW for entry in loaded._span_entries) == \
            len(parsed) - monotasks + 1
        resaved = tmp_path / "resaved.capsule"
        loaded.save(str(resaved))
        assert resaved.read_bytes() == (tmp_path / "odd.capsule").read_bytes()

    def test_a_link_line_that_does_not_fit_is_refused(self, recorded,
                                                      tmp_path):
        _, path = recorded
        with open(path) as handle:
            lines = handle.read().splitlines()
        index = next(i for i, text in enumerate(lines)
                     if '"type":"link"' in text)
        lines[index] = lines[index].replace('"from":', '"from":"x","was":')
        odd = tmp_path / "odd.capsule"
        odd.write_text("\n".join(lines) + "\n")
        with pytest.raises(CapsuleError,
                           match=f":{index + 1}: link line does not fit"):
            Capsule.load(str(odd))
