"""Collects the structured records and causal spans emitted during
simulation.

Besides the flat per-record lists, the collector owns the *span tree*
of every job (:mod:`repro.trace.spans`): it mints span ids, opens and
closes job/stage/attempt spans, synthesizes monotask leaf spans from
:class:`MonotaskRecord` self-reports, and records causal links (DAG
edges, shuffle fetches, queue waits, retries, speculation).  An
attached sink (:class:`~repro.xray.capsule.RunRecorder`) streams spans
out as they close into a run capsule, and a loaded
:class:`~repro.xray.capsule.Capsule` is a collector refilled from that
file, so every span query reads one store, live or on disk.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple, Type, TypeVar

from repro.errors import SimulationError
from repro.metrics.events import (CPU, DISK, NETWORK, Event, JobRecord,
                                  MonotaskRecord, ResourceUsageRecord,
                                  ServeRecord, SpeculationRecord,
                                  StageRecord, TaskAttemptRecord, TaskRecord,
                                  TransferRecord)
from repro.trace.spans import (LINK_DAG_EDGE, LINK_QUEUE_WAIT,
                               LINK_REDISPATCH, LINK_RETRY,
                               LINK_SHUFFLE_FETCH, LINK_SPECULATION,
                               SPAN_ATTEMPT, SPAN_JOB, SPAN_MONOTASK,
                               SPAN_STAGE, SpanLink, SpanRecord,
                               TraceContext)

__all__ = ["MetricsCollector"]

EventT = TypeVar("EventT", bound=Event)


class MetricsCollector:
    """Accumulates monotask/task/stage/job records for one engine run."""

    def __init__(self) -> None:
        self.monotasks: List[MonotaskRecord] = []
        self.resource_usage: List[ResourceUsageRecord] = []
        self.tasks: List[TaskRecord] = []
        self.attempts: List[TaskAttemptRecord] = []
        #: Every incident record (faults, health decisions, driver
        #: events, alert transitions), in arrival order.
        self.events: List[Event] = []
        self.transfers: List[TransferRecord] = []
        self.speculations: List[SpeculationRecord] = []
        self.serves: List[ServeRecord] = []
        self.stages: Dict[Tuple[int, int], StageRecord] = {}
        #: job -> {stage id: record}, so one job's stages are found
        #: without sorting every job's.
        self._stages_by_job: Dict[int, Dict[int, StageRecord]] = {}
        self.jobs: Dict[int, JobRecord] = {}
        #: Every span ever opened, in open order (leaves are appended
        #: closed; container spans close in place).
        self.spans: List[SpanRecord] = []
        #: Causal links between spans, in record order.
        self.links: List[SpanLink] = []
        # Per-key views maintained at record time, so per-job queries
        # read only that job's records instead of scanning the full
        # history (which is quadratic over a long serving run).
        self._spans_by_trace: Dict[str, List[SpanRecord]] = {}
        self._links_by_trace: Dict[str, List[SpanLink]] = {}
        self._monotasks_by_job: Dict[int, List[MonotaskRecord]] = {}
        self._tasks_by_stage: Dict[Tuple[int, int], List[TaskRecord]] = {}
        self._usage_by_stage: Dict[Tuple[int, int],
                                   List[ResourceUsageRecord]] = {}
        self._attempts_by_job: Dict[int, List[TaskAttemptRecord]] = {}
        self._span_ids = count(1)
        self._open_spans: Dict[int, SpanRecord] = {}
        self._job_spans: Dict[int, SpanRecord] = {}
        self._stage_spans: Dict[Tuple[int, int], SpanRecord] = {}
        #: (job, stage, task_index) -> most recent attempt span, for
        #: retry/speculation links between consecutive attempts.
        self._last_attempt_spans: Dict[Tuple[int, int, int], SpanRecord] = {}
        self._sinks: List = []
        #: job -> {engine label: critical-path report}, so the clarity
        #: aggregator, alert exemplar resolution, and xray share one
        #: O(n log n) sweep per finished job instead of each redoing it.
        #: Invalidated, in O(1), whenever a span lands on (or closes in)
        #: that job's trace.
        self._critpath_cache: Dict[int, Dict[str, object]] = {}
        #: Callables invoked as ``fn(record)`` when an :class:`Event`
        #: or a :class:`ServeRecord` lands; listeners tell them apart by
        #: type.  The observability plane and the capsule recorder
        #: subscribe here without per-call-site wiring.
        self._event_listeners: List = []

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
        self.spans.append(span)
        self._spans_by_trace.setdefault(span.trace_id, []).append(span)
        self._invalidate_critpath(span.trace_id)
        for sink in self._sinks:
            sink.span_finished(span)

    def record_link(self, link: SpanLink) -> None:
        """Append one causal link."""
        self.links.append(link)
        self._links_by_trace.setdefault(link.trace_id, []).append(link)
        for sink in self._sinks:
            sink.link_recorded(link)

    def _open_span(self, span: SpanRecord) -> SpanRecord:
        self.spans.append(span)
        self._spans_by_trace.setdefault(span.trace_id, []).append(span)
        self._open_spans[span.span_id] = span
        return span

    def _close_span(self, span_id: int, now: float) -> None:
        span = self._open_spans.pop(span_id, None)
        if span is None:
            return
        span.end = now
        self._invalidate_critpath(span.trace_id)
        for sink in self._sinks:
            sink.span_finished(span)

    def _invalidate_critpath(self, trace_id: str) -> None:
        """Drop cached critical paths of the job a span just touched."""
        if not self._critpath_cache or not trace_id.startswith("job-"):
            return
        try:
            job_id = int(trace_id[4:])
        except ValueError:
            return
        self._critpath_cache.pop(job_id, None)

    def job_trace_id(self, job_id: int) -> str:
        """The trace id under which a job's spans are recorded."""
        return f"job-{job_id}"

    def spans_for_job(self, job_id: int) -> List[SpanRecord]:
        """All spans of one job's trace, in open order."""
        return list(self._spans_by_trace.get(self.job_trace_id(job_id), ()))

    def links_for_job(self, job_id: int) -> List[SpanLink]:
        """All causal links of one job's trace."""
        return list(self._links_by_trace.get(self.job_trace_id(job_id), ()))

    # -- recording ----------------------------------------------------------------

    def record_monotask(self, record: MonotaskRecord,
                        trace: Optional[TraceContext] = None,
                        span_id: Optional[int] = None) -> None:
        """Append a monotask self-report.

        With a ``trace`` context the report also becomes a leaf span of
        the attempt that spawned the monotask, plus a queue-wait link
        when the monotask waited at its resource scheduler.
        """
        self.monotasks.append(record)
        self._monotasks_by_job.setdefault(record.job_id, []).append(record)
        if trace is None:
            return
        sid = span_id if span_id is not None else self.new_span_id()
        span = SpanRecord(
            span_id=sid, trace_id=trace.trace_id, parent_id=trace.span_id,
            kind=SPAN_MONOTASK, name=record.phase, start=record.start,
            end=record.end, machine_id=record.machine_id,
            resource=record.resource, phase=record.phase,
            queue_s=record.queue_s, nbytes=record.nbytes)
        if record.disk_index is not None:
            span.attrs["disk_index"] = record.disk_index
        self.record_span(span)
        if record.queue_s > 0:
            self.record_link(SpanLink(
                from_span_id=trace.span_id, to_span_id=sid,
                kind=LINK_QUEUE_WAIT, trace_id=trace.trace_id,
                at=record.start,
                detail=f"{record.resource} queue {record.queue_s:.6f}s"))

    def record_task_attempt(self, record: TaskAttemptRecord) -> None:
        """Append one task attempt's outcome."""
        self.attempts.append(record)
        self._attempts_by_job.setdefault(record.job_id, []).append(record)

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

    def task_started(self, job_id: int, stage_id: int, task_index: int,
                     machine_id: int, now: float) -> TaskRecord:
        """Open a task record; the caller fills in ``end`` later."""
        record = TaskRecord(job_id, stage_id, task_index, machine_id,
                            start=now)
        self.tasks.append(record)
        self._tasks_by_stage.setdefault((job_id, stage_id), []).append(record)
        return record

    def stage_started(self, job_id: int, stage_id: int, name: str,
                      num_tasks: int, now: float,
                      parent_stage_ids: Optional[Iterable[int]] = None
                      ) -> TraceContext:
        """Open a stage record and its span under the job's span.

        ``parent_stage_ids`` records DAG-edge links from each parent
        stage's span, capturing *why* this stage could not start
        earlier.
        """
        record = self.stages[(job_id, stage_id)] = StageRecord(
            job_id, stage_id, name, num_tasks, start=now)
        self._stages_by_job.setdefault(job_id, {})[stage_id] = record
        job_span = self._job_spans.get(job_id)
        trace_id = (job_span.trace_id if job_span is not None
                    else self.job_trace_id(job_id))
        parent = job_span.span_id if job_span is not None else None
        span = self._open_span(SpanRecord(
            span_id=self.new_span_id(), trace_id=trace_id, parent_id=parent,
            kind=SPAN_STAGE, name=name, start=now,
            attrs={"job_id": job_id, "stage_id": stage_id,
                   "num_tasks": num_tasks}))
        self._stage_spans[(job_id, stage_id)] = span
        for parent_stage in sorted(parent_stage_ids or ()):
            parent_span = self._stage_spans.get((job_id, parent_stage))
            if parent_span is not None:
                self.record_link(SpanLink(
                    from_span_id=parent_span.span_id,
                    to_span_id=span.span_id, kind=LINK_DAG_EDGE,
                    trace_id=trace_id, at=now,
                    detail=f"stage {parent_stage} -> stage {stage_id}"))
        return TraceContext(trace_id=trace_id, span_id=span.span_id,
                            parent_id=parent)

    def stage_finished(self, job_id: int, stage_id: int, now: float) -> None:
        """Close a stage record (and span)."""
        record = self.stages.get((job_id, stage_id))
        if record is None:
            raise SimulationError(
                f"stage_finished for unknown stage {stage_id} of job "
                f"{job_id}; known stages: {sorted(self.stages)}")
        record.end = now
        span = self._stage_spans.get((job_id, stage_id))
        if span is not None:
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

    def job_finished(self, job_id: int, now: float) -> None:
        """Close a job record (and its root span)."""
        record = self.jobs.get(job_id)
        if record is None:
            raise SimulationError(
                f"job_finished for unknown job id {job_id}; known jobs: "
                f"{sorted(self.jobs)}")
        record.end = now
        span = self._job_spans.get(job_id)
        if span is not None:
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
        stage_span = self._stage_spans.get((job_id, stage_id))
        trace_id = (stage_span.trace_id if stage_span is not None
                    else self.job_trace_id(job_id))
        parent = stage_span.span_id if stage_span is not None else None
        span = self._open_span(SpanRecord(
            span_id=self.new_span_id(), trace_id=trace_id, parent_id=parent,
            kind=SPAN_ATTEMPT,
            name=f"task {stage_id}.{task_index} attempt {attempt}",
            start=now, machine_id=machine_id,
            attrs={"job_id": job_id, "stage_id": stage_id,
                   "task_index": task_index, "attempt": attempt}))
        if speculative:
            span.attrs["speculative"] = True
        key = (job_id, stage_id, task_index)
        previous = self._last_attempt_spans.get(key)
        if previous is not None and previous.span_id != span.span_id:
            if cause == "health-redispatch":
                kind = LINK_REDISPATCH
            elif speculative:
                kind = LINK_SPECULATION
            else:
                kind = LINK_RETRY
            self.record_link(SpanLink(
                from_span_id=previous.span_id, to_span_id=span.span_id,
                kind=kind, trace_id=trace_id, at=now,
                detail=cause or f"attempt {attempt} on machine {machine_id}"))
        self._last_attempt_spans[key] = span
        return TraceContext(trace_id=trace_id, span_id=span.span_id,
                            parent_id=parent)

    def attempt_finished(self, trace: TraceContext, now: float,
                         outcome: str, detail: str = "") -> None:
        """Close an attempt span, stamping its outcome."""
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
        reports = self._critpath_cache.setdefault(job_id, {})
        report = reports.get(engine)
        if report is None:
            from repro.trace.critpath import critical_path
            report = reports[engine] = critical_path(self, job_id,
                                                     engine=engine)
        return report

    def job(self, job_id: int) -> JobRecord:
        """The job's record."""
        return self.jobs[job_id]

    def job_duration(self, job_id: int) -> float:
        """Wall-clock seconds of one job."""
        return self.jobs[job_id].duration

    def stage_records(self, job_id: int) -> List[StageRecord]:
        """Stage records of a job, ordered by stage id."""
        by_stage = self._stages_by_job.get(job_id, {})
        return [by_stage[stage_id] for stage_id in sorted(by_stage)]

    def stage_monotasks(self, job_id: int,
                        stage_id: Optional[int] = None
                        ) -> List[MonotaskRecord]:
        """Monotask reports of a job (optionally one stage)."""
        records = self._monotasks_by_job.get(job_id, ())
        if stage_id is None:
            return list(records)
        return [m for m in records if m.stage_id == stage_id]

    def stage_window(self, job_id: int, stage_id: int) -> Tuple[float, float]:
        """A stage's (start, end) wall-clock window."""
        record = self.stages[(job_id, stage_id)]
        return record.start, record.end

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

    def tasks_for_stage(self, job_id: int, stage_id: int) -> List[TaskRecord]:
        """Task records of one stage."""
        return list(self._tasks_by_stage.get((job_id, stage_id), ()))

    def usage_for_stage(self, job_id: int,
                        stage_id: int) -> List[ResourceUsageRecord]:
        """Spark ground-truth usage records of one stage."""
        return list(self._usage_by_stage.get((job_id, stage_id), ()))

    def attempts_for_job(self, job_id: int) -> List[TaskAttemptRecord]:
        """All task attempts of one job."""
        return list(self._attempts_by_job.get(job_id, ()))

    def attempt_outcome_counts(self,
                               job_id: Optional[int] = None
                               ) -> Dict[str, int]:
        """Attempts grouped by outcome (``success``/``failed``/...)."""
        counts: Dict[str, int] = {}
        for attempt in self.attempts:
            if job_id is not None and attempt.job_id != job_id:
                continue
            counts[attempt.outcome] = counts.get(attempt.outcome, 0) + 1
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
        totals = {CPU: 0.0, DISK: 0.0, NETWORK: 0.0}
        for record in self.monotasks:
            if wanted is not None and record.job_id not in wanted:
                continue
            totals[record.resource] = (totals.get(record.resource, 0.0)
                                       + record.queue_s)
        return totals

    def retry_count(self, job_id: Optional[int] = None) -> int:
        """Non-speculative attempts beyond each task's first."""
        return sum(1 for a in self.attempts
                   if a.attempt > 1 and not a.speculative
                   and (job_id is None or a.job_id == job_id))
