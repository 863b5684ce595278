"""Collects the structured records and causal spans emitted during
simulation.

Besides the flat per-record lists, the collector owns the *span tree*
of every job (:mod:`repro.trace.spans`): it mints span ids, opens and
closes job/stage/attempt spans, keeps each :class:`MonotaskRecord`
self-report as one row of a column table (:mod:`repro.metrics.table`)
that, when traced, is also the monotask's leaf span in ``spans``, and
keeps causal links (DAG edges, shuffle fetches, queue waits, retries,
speculation) as rows of a second one.  An attached sink
(:class:`~repro.xray.capsule.RunRecorder`) streams spans out as they
close into a run capsule, and a loaded
:class:`~repro.xray.capsule.Capsule` is a collector refilled from that
file, so every span query reads one store, live or on disk.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple, Type, TypeVar

from repro.errors import ModelError, SimulationError
from repro.metrics.events import (CPU, DISK, NETWORK, Event, JobRecord,
                                  MonotaskRecord, ResourceUsageRecord,
                                  ServeRecord, SpeculationRecord,
                                  TransferRecord)
from repro.metrics.table import (ROW, LinkTable, MonotaskTable, SpanList,
                                 TableRows, job_trace_id)
from repro.trace.spans import (LINK_DAG_EDGE, LINK_QUEUE_WAIT,
                               LINK_REDISPATCH, LINK_RETRY,
                               LINK_SPECULATION, SPAN_ATTEMPT, SPAN_JOB,
                               SPAN_MONOTASK, SPAN_STAGE, SpanLink,
                               SpanRecord, TraceContext)

__all__ = ["MetricsCollector"]

EventT = TypeVar("EventT", bound=Event)


class MetricsCollector:
    """Accumulates monotask/attempt/stage/job records for one engine run."""

    def __init__(self) -> None:
        #: Every monotask report, one row each, in record order.
        self.monotask_table = MonotaskTable()
        #: The same reports read as records (built on read).
        self.monotasks = TableRows(self.monotask_table)
        self.resource_usage: List[ResourceUsageRecord] = []
        #: Finished task-attempt spans, in the order they closed.
        self.attempts: List[SpanRecord] = []
        #: Every incident record (faults, health decisions, driver
        #: events, alert transitions), in arrival order.
        self.events: List[Event] = []
        self.transfers: List[TransferRecord] = []
        self.speculations: List[SpeculationRecord] = []
        self.serves: List[ServeRecord] = []
        self.jobs: Dict[int, JobRecord] = {}
        #: Every span ever opened, in open order (leaves are appended
        #: closed; container spans close in place).  A traced monotask
        #: row sits here as the ``ROW`` marker and reads as its record.
        self._span_entries: List = []
        self.spans = SpanList(self._span_entries, self.monotask_table)
        #: Causal links between spans, one row each, in record order.
        self.link_table = LinkTable()
        #: The same links read as :class:`SpanLink`s (built on read).
        self.links = TableRows(self.link_table)
        # Per-key views maintained at record time, so per-job queries
        # read only that job's records instead of scanning the full
        # history (which is quadratic over a long serving run).  A
        # trace's list holds ``ROW`` for each of its traced monotask
        # rows, which are its job's traced rows in order.
        self._spans_by_trace: Dict[str, List] = {}
        #: job -> its monotask rows, ascending.
        self._rows_by_job: Dict[int, array] = {}
        #: The last (job, trace id) a traced monotask passed the check
        #: with (:meth:`_check_trace`).
        self._checked_job: Optional[int] = None
        self._checked_trace: Optional[str] = None
        self._usage_by_stage: Dict[Tuple[int, int],
                                   List[ResourceUsageRecord]] = {}
        self._span_ids = count(1)
        self._open_spans: Dict[int, SpanRecord] = {}
        self._job_spans: Dict[int, SpanRecord] = {}
        #: job -> {stage id: stage span}, filled when a stage opens
        #: live or its span is replayed from a capsule.
        self._stage_spans: Dict[int, Dict[int, SpanRecord]] = {}
        #: job -> {(stage, task_index): most recent attempt span}, for
        #: retry/speculation links between consecutive attempts; a job's
        #: entry goes once its last attempt has ended
        #: (:meth:`forget_attempts`).
        self._last_attempt_spans: Dict[
            int, Dict[Tuple[int, int], SpanRecord]] = {}
        self._sinks: List = []
        #: job -> {engine label: critical-path report, None: stage
        #: profiles or the ModelError message}: the one analysis of a
        #: finished job that admission pricing, clarity, drift, alert
        #: exemplars and xray share.  Each half is computed on first
        #: request and dropped, in O(1), whenever a span, stage or
        #: monotask record lands on that job.
        self._analysis_cache: Dict[int, Dict[Optional[str], object]] = {}
        #: Callables invoked as ``fn(record)`` when an :class:`Event`
        #: or a :class:`ServeRecord` lands; listeners tell them apart by
        #: type.  The observability plane and the capsule recorder
        #: subscribe here without per-call-site wiring.
        self._event_listeners: List = []
        #: Shared link details and attempt names: (template, *args) ->
        #: text, and text -> the one object of that value.
        self._texts: Dict[object, str] = {}

    def text(self, template: str, *args) -> str:
        """``template.format(*args)``, one shared object per value.

        Link details and attempt names repeat from job to job of a
        stream; keyed by the formatting inputs, a repeat skips the
        format too.
        """
        key = (template, *args)
        text = self._texts.get(key)
        if text is None:
            text = template.format(*args)
            text = self._texts.setdefault(text, text)
            self._texts[key] = text
        return text

    def add_event_listener(self, listener) -> None:
        """Subscribe ``listener(record)`` to event and serve records."""
        self._event_listeners.append(listener)

    def _notify(self, record) -> None:
        for listener in self._event_listeners:
            listener(record)

    # -- span plumbing -------------------------------------------------------------

    def new_span_id(self) -> int:
        """Mint a fresh span id (monotonic, deterministic)."""
        return next(self._span_ids)

    def add_span_sink(self, sink) -> None:
        """Stream closed spans and links to ``sink`` (a run recorder)."""
        self._sinks.append(sink)

    def record_span(self, span: SpanRecord) -> None:
        """Append a complete (already closed) span."""
        self._span_entries.append(span)
        self._spans_by_trace.setdefault(span.trace_id, []).append(span)
        if span.kind == SPAN_STAGE:
            attrs = span.attrs
            self._stage_spans.setdefault(
                attrs["job_id"], {})[attrs["stage_id"]] = span
        self._span_finished(span)

    def record_link(self, from_span_id: int, to_span_id: int, kind: str,
                    trace_id: str, at: float = float("nan"),
                    detail: str = "") -> None:
        """File one causal link (:class:`SpanLink`'s fields) as a row;
        the sinks get it as a :class:`SpanLink`."""
        self.link_table.append(from_span_id, to_span_id, kind, trace_id, at,
                               detail)
        if self._sinks:
            link = SpanLink(from_span_id, to_span_id, kind, trace_id, at,
                            detail)
            for sink in self._sinks:
                sink.link_recorded(link)

    def _open_span(self, span: SpanRecord) -> SpanRecord:
        self._span_entries.append(span)
        self._spans_by_trace.setdefault(span.trace_id, []).append(span)
        self._open_spans[span.span_id] = span
        return span

    def _close_span(self, span_id: int, now: float) -> None:
        span = self._open_spans.pop(span_id, None)
        if span is None:
            return
        span.end = now
        self._span_finished(span)

    def _span_finished(self, span: SpanRecord) -> None:
        self._invalidate_trace(span.trace_id)
        if span.kind == SPAN_ATTEMPT:
            self.attempts.append(span)
        for sink in self._sinks:
            sink.span_finished(span)

    def _invalidate_trace(self, trace_id: str) -> None:
        """Drop the cached analysis of the job a span just touched."""
        if not self._analysis_cache or not trace_id.startswith("job-"):
            return
        try:
            job_id = int(trace_id[4:])
        except ValueError:
            return
        self._analysis_cache.pop(job_id, None)

    def job_trace_id(self, job_id: int) -> str:
        """The trace id under which a job's spans are recorded."""
        return job_trace_id(job_id)

    def job_span(self, job_id: int) -> Optional[SpanRecord]:
        """The root span of a job started in this run (None if none)."""
        return self._job_spans.get(job_id)

    def spans_for_job(self, job_id: int) -> List[SpanRecord]:
        """All spans of one job's trace, in open order."""
        entries = self._spans_by_trace.get(job_trace_id(job_id), ())
        table = self.monotask_table
        rows = table.traced_rows(self._rows_by_job.get(job_id, ()))
        return [table.record(next(rows)) if entry is ROW else entry
                for entry in entries]

    def monotask_leaves(self, job_id: int) -> List[Tuple]:
        """``(start, end, resource, machine_id, phase, span_id,
        queue_s)`` of each finished monotask leaf span of the job, in
        open order: read from the columns for rows, from the span for a
        span recorded as one (a loaded capsule's)."""
        entries = self._spans_by_trace.get(job_trace_id(job_id), ())
        rows = iter(self.monotask_table.leaves(
            self._rows_by_job.get(job_id, ())))
        leaves = []
        for entry in entries:
            if entry is ROW:
                leaves.append(next(rows))
            elif entry.kind == SPAN_MONOTASK and entry.finished:
                leaves.append((entry.start, entry.end, entry.resource,
                               entry.machine_id, entry.phase, entry.span_id,
                               entry.queue_s))
        return leaves

    def monotask_scan(self, job_id: int) -> List[Tuple]:
        """A job's monotask reports as the plain tuples of
        :meth:`~repro.metrics.table.MonotaskTable.scan`, in record
        order: what :meth:`stage_monotasks` returns, without building
        the records."""
        return self.monotask_table.scan(self._rows_by_job.get(job_id, ()))

    def links_for_job(self, job_id: int) -> List[SpanLink]:
        """All causal links of one job's trace, in record order."""
        return self.link_table.trace_links(job_trace_id(job_id))

    # -- recording ----------------------------------------------------------------

    def record_monotask(self, record: MonotaskRecord,
                        trace: Optional[TraceContext] = None,
                        span_id: Optional[int] = None) -> None:
        """Keep a monotask self-report as one row of the table.

        With a ``trace`` context (the job's trace) the row is also a
        leaf span of the attempt that spawned the monotask, streamed to
        the sinks as the record stamped with its span identity, plus a
        queue-wait link when it waited at its resource scheduler.
        """
        job_id = record.job_id
        if trace is not None and (trace.trace_id is not self._checked_trace
                                  or job_id != self._checked_job):
            self._check_trace(job_id, trace.trace_id)
        self._analysis_cache.pop(job_id, None)
        rows = self._rows_by_job.get(job_id)
        if rows is None:
            rows = self._rows_by_job[job_id] = array("I")
        table = self.monotask_table
        if trace is None:
            rows.append(table.append(record))
            return
        trace_id = trace.trace_id
        if span_id is None:
            span_id = self.new_span_id()
        rows.append(table.append(record, span_id, trace.span_id))
        self._span_entries.append(ROW)
        self._spans_by_trace.setdefault(trace_id, []).append(ROW)
        if self._sinks:
            # Sinks get the filed record itself, stamped as the row
            # reads back.
            record.span_id = span_id
            record.trace_id = trace_id
            record.parent_id = trace.span_id
            record.name = record.phase
            for sink in self._sinks:
                sink.span_finished(record)
        if record.queue_s > 0:
            self.record_link(
                trace.span_id, span_id, LINK_QUEUE_WAIT, trace_id,
                record.start,
                self.text("{} queue {:.6f}s", record.resource,
                          record.queue_s))

    def _check_trace(self, job_id: int, trace_id: str) -> None:
        """Refuse a monotask traced outside its job's trace: its row is
        filed under the job and reads back under the job's trace.  The
        last pair that passed is remembered, so a job's monotasks, which
        share one trace id object, are checked once in a row."""
        if trace_id != job_trace_id(job_id):
            raise SimulationError(
                f"monotask of job {job_id} traced under {trace_id!r}, not "
                f"its job's trace")
        self._checked_job, self._checked_trace = job_id, trace_id

    def record_event(self, event: Event) -> None:
        """Append one incident record to the event stream."""
        self.events.append(event)
        self._notify(event)

    def events_of(self, kind: Type[EventT]) -> List[EventT]:
        """The stream's records of one type, in arrival order."""
        return [event for event in self.events if isinstance(event, kind)]

    def record_transfer(self, record: TransferRecord) -> None:
        """Append one receiver-measured per-source response flow."""
        self.transfers.append(record)

    def record_speculation(self, record: SpeculationRecord) -> None:
        """Append one speculative-launch event."""
        self.speculations.append(record)

    def record_resource_usage(self, record: ResourceUsageRecord) -> None:
        """Append a Spark-engine per-task ground-truth record."""
        self.resource_usage.append(record)
        self._usage_by_stage.setdefault(
            (record.job_id, record.stage_id), []).append(record)

    def record_serve(self, record: ServeRecord) -> None:
        """Append one served (or shed) job request."""
        self.serves.append(record)
        self._notify(record)

    def stage_started(self, job_id: int, stage_id: int, name: str,
                      num_tasks: int, now: float,
                      parent_stage_ids: Optional[Iterable[int]] = None
                      ) -> TraceContext:
        """Open a stage span under the job's span.

        ``parent_stage_ids`` records DAG-edge links from each parent
        stage's span, capturing *why* this stage could not start
        earlier.
        """
        self._analysis_cache.pop(job_id, None)
        job_span = self._job_spans.get(job_id)
        trace_id = (job_span.trace_id if job_span is not None
                    else self.job_trace_id(job_id))
        parent = job_span.span_id if job_span is not None else None
        span = self._open_span(SpanRecord(
            span_id=self.new_span_id(), trace_id=trace_id, parent_id=parent,
            kind=SPAN_STAGE, name=name, start=now,
            attrs={"job_id": job_id, "stage_id": stage_id,
                   "num_tasks": num_tasks}))
        job_stages = self._stage_spans.setdefault(job_id, {})
        job_stages[stage_id] = span
        for parent_stage in sorted(parent_stage_ids or ()):
            parent_span = job_stages.get(parent_stage)
            if parent_span is not None:
                self.record_link(
                    from_span_id=parent_span.span_id,
                    to_span_id=span.span_id, kind=LINK_DAG_EDGE,
                    trace_id=trace_id, at=now,
                    detail=self.text("stage {} -> stage {}", parent_stage,
                                     stage_id))
        return TraceContext(trace_id=trace_id, span_id=span.span_id,
                            parent_id=parent)

    def stage_finished(self, job_id: int, stage_id: int, now: float,
                       failed: bool = False) -> None:
        """Close a stage span (marked ``outcome: failed`` if ``failed``)."""
        job_stages = self._stage_spans.get(job_id, {})
        span = job_stages.get(stage_id)
        if span is None:
            raise SimulationError(
                f"stage_finished for unknown stage {stage_id} of job "
                f"{job_id}; known stages: {sorted(job_stages)}")
        self._analysis_cache.pop(job_id, None)
        if failed:
            span.attrs["outcome"] = "failed"
        self._close_span(span.span_id, now)

    def job_started(self, job_id: int, name: str, now: float) -> TraceContext:
        """Open a job record and the root span of the job's trace.

        Returns the job's :class:`TraceContext`; child spans derive
        theirs from it.  A duplicate job id is an engine bug, not a
        recoverable condition.
        """
        if job_id in self.jobs:
            raise SimulationError(
                f"job_started for duplicate job id {job_id} "
                f"({self.jobs[job_id].name!r} already started)")
        self.jobs[job_id] = JobRecord(job_id, name, start=now)
        trace_id = self.job_trace_id(job_id)
        span = self._open_span(SpanRecord(
            span_id=self.new_span_id(), trace_id=trace_id, parent_id=None,
            kind=SPAN_JOB, name=name, start=now, attrs={"job_id": job_id}))
        self._job_spans[job_id] = span
        return TraceContext(trace_id=trace_id, span_id=span.span_id)

    def job_finished(self, job_id: int, now: float,
                     failed: bool = False) -> None:
        """Close a job record (and its root span).

        A ``failed`` job's root span closes marked ``outcome: failed``
        and its record keeps ``end`` NaN: it never counts as completed.
        """
        record = self.jobs.get(job_id)
        if record is None:
            raise SimulationError(
                f"job_finished for unknown job id {job_id}; known jobs: "
                f"{sorted(self.jobs)}")
        if not failed:
            record.end = now
        span = self._job_spans.get(job_id)
        if span is not None:
            if failed:
                span.attrs["outcome"] = "failed"
            self._close_span(span.span_id, now)

    def attempt_started(self, job_id: int, stage_id: int, task_index: int,
                        attempt: int, machine_id: int, now: float,
                        speculative: bool = False,
                        cause: str = "") -> TraceContext:
        """Open an attempt span under its stage's span.

        For attempts beyond a task's first, a causal link is recorded
        from the previous attempt's span: ``retry`` for failure-driven
        relaunches, ``speculation`` for straggler clones, and
        ``redispatch`` for health-driven re-dispatch off an excluded
        machine.
        """
        stage_span = self._stage_spans.get(job_id, {}).get(stage_id)
        trace_id = (stage_span.trace_id if stage_span is not None
                    else self.job_trace_id(job_id))
        parent = stage_span.span_id if stage_span is not None else None
        span = self._open_span(SpanRecord(
            span_id=self.new_span_id(), trace_id=trace_id, parent_id=parent,
            kind=SPAN_ATTEMPT,
            name=self.text("task {}.{} attempt {}", stage_id, task_index,
                           attempt),
            start=now, machine_id=machine_id,
            attrs={"job_id": job_id, "stage_id": stage_id,
                   "task_index": task_index, "attempt": attempt}))
        if speculative:
            span.attrs["speculative"] = True
        last = self._last_attempt_spans.get(job_id)
        if last is None:
            last = self._last_attempt_spans[job_id] = {}
        key = (stage_id, task_index)
        previous = last.get(key)
        if previous is not None and previous.span_id != span.span_id:
            if cause == "health-redispatch":
                kind = LINK_REDISPATCH
            elif speculative:
                kind = LINK_SPECULATION
            else:
                kind = LINK_RETRY
            self.record_link(
                from_span_id=previous.span_id, to_span_id=span.span_id,
                kind=kind, trace_id=trace_id, at=now,
                detail=cause or self.text("attempt {} on machine {}",
                                          attempt, machine_id))
        last[key] = span
        return TraceContext(trace_id=trace_id, span_id=span.span_id,
                            parent_id=parent)

    def forget_attempts(self, job_id: int) -> None:
        """Drop an ended job's last-attempt index.

        Called once the job's last in-flight attempt has ended, so a
        speculation loser or a retry still finds its predecessor.
        """
        self._last_attempt_spans.pop(job_id, None)

    def attempt_finished(self, trace: TraceContext, now: float,
                         outcome: str, detail: str = "") -> None:
        """Close an attempt span, stamping its outcome.

        ``outcome`` is ``"success"``, ``"failed"`` (the attempt raised),
        ``"fetch-failed"`` (map output was missing; lineage recovery
        runs before the retry), or ``"killed"`` (interrupted by a
        machine crash or by losing a speculation race).  ``detail`` is
        a deterministic short cause (exception type or interrupt cause).
        """
        span = self._open_spans.get(trace.span_id)
        if span is not None:
            span.attrs["outcome"] = outcome
            if detail:
                span.attrs["detail"] = detail
        self._close_span(trace.span_id, now)

    # -- queries ------------------------------------------------------------------

    def critical_path_report(self, job_id: int, engine: str = ""):
        """The job's :class:`CriticalPathReport`, cached per job.

        The sweep in :func:`repro.trace.critpath.critical_path` is
        O(n log n) in the job's span count; every consumer of a
        finished job's attribution (clarity windows, alert exemplars,
        xray diffs) wants the same report, so compute it once and
        invalidate if a late span ever lands on the trace.
        """
        analysis = self._analysis_cache.setdefault(job_id, {})
        report = analysis.get(engine)
        if report is None:
            from repro.trace.critpath import critical_path
            report = analysis[engine] = critical_path(self, job_id,
                                                      engine=engine)
        return report

    def stage_profiles(self, job_id: int):
        """The job's :func:`~repro.model.ideal.profile_job` result,
        cached per job and shared read-only by every consumer.  A job
        the model cannot profile raises a fresh :class:`ModelError`
        with the same message on every call.
        """
        analysis = self._analysis_cache.setdefault(job_id, {})
        profiles = analysis.get(None)
        if profiles is None:
            from repro.model.ideal import profile_job
            try:
                profiles = profile_job(self, job_id)
            except ModelError as exc:
                profiles = str(exc)
            analysis[None] = profiles
        if isinstance(profiles, str):
            raise ModelError(profiles)
        return profiles

    def job(self, job_id: int) -> JobRecord:
        """The job's record."""
        return self.jobs[job_id]

    def job_duration(self, job_id: int) -> float:
        """Wall-clock seconds of one job."""
        return self.jobs[job_id].duration

    def stage_records(self, job_id: int) -> List[SpanRecord]:
        """A job's stage spans, ordered by stage id."""
        by_stage = self._stage_spans.get(job_id, {})
        return [by_stage[stage_id] for stage_id in sorted(by_stage)]

    def stage_monotasks(self, job_id: int,
                        stage_id: Optional[int] = None
                        ) -> List[MonotaskRecord]:
        """Monotask reports of a job (optionally one stage)."""
        table = self.monotask_table
        rows = self._rows_by_job.get(job_id, ())
        if stage_id is not None:
            stages = table.stage_id
            rows = [row for row in rows if stages[row] == stage_id]
        return [table.record(row) for row in rows]

    def stage_window(self, job_id: int, stage_id: int) -> Tuple[float, float]:
        """A stage's (start, end) wall-clock window."""
        span = self._stage_spans[job_id][stage_id]
        return span.start, span.end

    def total_compute_seconds(self, job_id: int,
                              stage_id: Optional[int] = None) -> float:
        """Total compute-monotask seconds."""
        return sum(m.duration for m in self.stage_monotasks(job_id, stage_id)
                   if m.resource == CPU)

    def total_disk_bytes(self, job_id: int,
                         stage_id: Optional[int] = None) -> float:
        """Total disk-monotask bytes."""
        return sum(m.nbytes for m in self.stage_monotasks(job_id, stage_id)
                   if m.resource == DISK)

    def total_network_bytes(self, job_id: int,
                            stage_id: Optional[int] = None) -> float:
        """Total network-monotask bytes."""
        return sum(m.nbytes for m in self.stage_monotasks(job_id, stage_id)
                   if m.resource == NETWORK)

    def usage_for_stage(self, job_id: int,
                        stage_id: int) -> List[ResourceUsageRecord]:
        """Spark ground-truth usage records of one stage."""
        return list(self._usage_by_stage.get((job_id, stage_id), ()))

    def attempt_outcome_counts(self,
                               job_id: Optional[int] = None
                               ) -> Dict[str, int]:
        """Attempts grouped by outcome (``success``/``failed``/...)."""
        counts: Dict[str, int] = {}
        for span in self.attempts:
            attrs = span.attrs
            if job_id is not None and attrs["job_id"] != job_id:
                continue
            outcome = attrs["outcome"]
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def serve_records(self, tenant: Optional[str] = None) -> List[ServeRecord]:
        """Serve records, optionally restricted to one tenant."""
        return [s for s in self.serves
                if tenant is None or s.tenant == tenant]

    def queue_seconds_by_resource(
            self, job_ids: Optional[Iterable[int]] = None
    ) -> Dict[str, float]:
        """Total monotask queue time per resource (cpu/disk/network).

        This is the §3.1 "visible contention": time monotasks spent
        waiting at the per-resource schedulers.  Only the MonoSpark
        engine emits monotask records, so for the Spark engine every
        total is zero -- queueing exists but cannot be attributed.
        """
        wanted = None if job_ids is None else set(job_ids)
        table = self.monotask_table
        kinds = table.kinds
        totals = {CPU: 0.0, DISK: 0.0, NETWORK: 0.0}
        for job_id, code, queue_s in zip(table.job_id, table.code,
                                         table.queue_s):
            if wanted is not None and job_id not in wanted:
                continue
            resource = kinds[code >> 1][0]
            totals[resource] = totals.get(resource, 0.0) + queue_s
        return totals

    def retry_count(self, job_id: Optional[int] = None) -> int:
        """Non-speculative attempts beyond each task's first."""
        return sum(1 for span in self.attempts
                   if span.attrs["attempt"] > 1
                   and not span.attrs.get("speculative", False)
                   and (job_id is None or span.attrs["job_id"] == job_id))
