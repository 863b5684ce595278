"""Export monotask self-reports as a Chrome trace.

Writes the Trace Event Format JSON consumed by ``chrome://tracing`` and
https://ui.perfetto.dev: one process per machine, one track per resource
unit, one complete event per monotask, plus a ``tasks`` track with
each task attempt's window (all a Spark-engine run can know).  On top of
the slices, the export carries the causal structure:

* *flow events* (``ph: s/f``) arc from each shuffle producer's network
  track to the consumer that fetched from it, one arrow per recorded
  :class:`~repro.metrics.events.TransferRecord`;
* *async events* (``ph: b/e``) under a synthetic ``driver`` process
  show each job and stage as a nestable span, so the driver-side
  structure frames the per-machine work;
* *instant events* (``ph: i``) on whole-run exports mark control-plane
  membership changes (elections, failovers, crashes) and alert
  lifecycle transitions on ``control``/``alerts`` tracks under the
  driver process, pinning *when management state changed* onto the
  same timeline as the work it reacted to;
* *metadata events* (``ph: M``) name processes and order tracks CPU,
  disks, network, tasks -- top to bottom, the paper's resource order.

This is the "open-source release" face of performance clarity: the
records the framework already holds are a full execution trace.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ModelError
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import (CPU, DISK, NETWORK, AlertEventRecord,
                                  DriverEventRecord)
from repro.trace.spans import SPAN_ATTEMPT

__all__ = ["trace_events", "write_chrome_trace", "WriteResult",
           "DRIVER_PID"]

#: Sort keys so tracks render CPU, then disks, then network.
_TRACK_ORDER = {CPU: 0, DISK: 1, NETWORK: 2}

#: Synthetic pid for driver-side (job/stage) async spans; real machines
#: use their non-negative machine ids.
DRIVER_PID = 9999


class WriteResult(NamedTuple):
    """Where the trace landed and how many events it holds."""

    path: str
    events: int


def _track_name(record) -> str:
    if record.resource == DISK:
        return f"disk{record.disk_index}"
    return record.resource


def _track_sort_index(track: str) -> int:
    """Render order of one track: cpu, disk0..N, network, tasks."""
    if track == CPU:
        return _TRACK_ORDER[CPU]
    if track.startswith(DISK):
        suffix = track[len(DISK):]
        index = int(suffix) if suffix.isdigit() else 0
        return 10 * _TRACK_ORDER[DISK] + index
    if track == NETWORK:
        return 10 * _TRACK_ORDER[NETWORK]
    return 100  # tasks (and anything else) below the resources


def trace_events(metrics: MetricsCollector,
                 job_id: Optional[int] = None) -> List[Dict[str, Any]]:
    """Build the Chrome trace event list.

    ``job_id=None`` exports every job in the collector.  Timestamps are
    microseconds, as the format requires.
    """
    events: List[Dict[str, Any]] = []
    tracks: set = set()  # (machine_id, track) pairs seen

    def add(machine_id, track, name, start, end, args):
        tracks.add((machine_id, track))
        events.append({
            "name": name,
            "cat": track,
            "ph": "X",  # complete event
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": machine_id,
            "tid": track,
            "args": args,
        })

    for record in metrics.monotasks:
        if job_id is not None and record.job_id != job_id:
            continue
        add(record.machine_id, _track_name(record),
            f"{record.phase} j{record.job_id}s{record.stage_id}"
            f"t{record.task_index}",
            record.start, record.end,
            {"bytes": record.nbytes, "queue_s": record.queue_s,
             "deserialize_s": record.deserialize_s, "op_s": record.op_s,
             "serialize_s": record.serialize_s})
    spans = (metrics.spans if job_id is None
             else metrics.spans_for_job(job_id))
    for span in spans:
        if span.kind != SPAN_ATTEMPT:
            continue
        if span.end != span.end:  # NaN: still running when collected
            continue
        attrs = span.attrs
        add(span.machine_id, "tasks",
            f"task j{attrs['job_id']}s{attrs['stage_id']}"
            f"t{attrs['task_index']}",
            span.start, span.end, {})
    if not events:
        raise ModelError(f"nothing to trace for job {job_id}")

    # Producer -> consumer flow arrows, one per measured response flow.
    # The start binds to the source machine's network track, the finish
    # to the destination's, so Perfetto draws the arc between the
    # serving and fetching slices.
    for index, transfer in enumerate(metrics.transfers):
        if job_id is not None and transfer.job_id != job_id:
            continue
        flow = {
            "name": "shuffle-flow", "cat": "flow", "id": index,
            "args": {"bytes": transfer.nbytes, "job": transfer.job_id},
        }
        events.append({**flow, "ph": "s", "pid": transfer.src_machine_id,
                       "tid": NETWORK,
                       "ts": round(transfer.start * 1e6, 3)})
        events.append({**flow, "ph": "f", "bp": "e",
                       "pid": transfer.dst_machine_id, "tid": NETWORK,
                       "ts": round(transfer.end * 1e6, 3)})
        tracks.add((transfer.src_machine_id, NETWORK))
        tracks.add((transfer.dst_machine_id, NETWORK))

    # Driver-side async spans: jobs and their stages as nestable
    # begin/end pairs under one synthetic process.
    driver_used = False
    for jid in sorted(metrics.jobs):
        if job_id is not None and jid != job_id:
            continue
        job = metrics.jobs[jid]
        if job.end != job.end:
            continue
        driver_used = True
        common = {"cat": "job", "id": f"job-{jid}", "pid": DRIVER_PID,
                  "tid": "jobs"}
        events.append({**common, "name": f"job {jid} ({job.name})",
                       "ph": "b", "ts": round(job.start * 1e6, 3)})
        events.append({**common, "name": f"job {jid} ({job.name})",
                       "ph": "e", "ts": round(job.end * 1e6, 3)})
    for jid in sorted(metrics.jobs):
        if job_id is not None and jid != job_id:
            continue
        for stage in metrics.stage_records(jid):
            if stage.end != stage.end:
                continue
            driver_used = True
            stage_id = stage.attrs["stage_id"]
            common = {"cat": "stage", "id": f"job-{jid}-stage-{stage_id}",
                      "pid": DRIVER_PID, "tid": "stages"}
            name = f"stage {stage_id} ({stage.name})"
            events.append({**common, "name": name, "ph": "b",
                           "ts": round(stage.start * 1e6, 3)})
            events.append({**common, "name": name, "ph": "e",
                           "ts": round(stage.end * 1e6, 3)})

    # Control-plane and alerting milestones as instant events under the
    # driver process: elections/failovers and alert transitions pin the
    # moments the cluster's management state changed onto the same
    # timeline as the work.  Whole-run exports only -- a single job's
    # trace window rarely contains them and their timestamps would dangle
    # outside it.
    if job_id is None:
        for record in metrics.events_of(DriverEventRecord):
            driver_used = True
            events.append({
                "name": f"{record.kind} d{record.driver_id}",
                "cat": "control", "ph": "i", "s": "g",
                "ts": round(record.at * 1e6, 3),
                "pid": DRIVER_PID, "tid": "control",
                "args": {"kind": record.kind, "driver": record.driver_id,
                         "peer": record.peer_id, "tenant": record.tenant,
                         "detail": record.detail},
            })
        for record in metrics.events_of(AlertEventRecord):
            driver_used = True
            events.append({
                "name": f"{record.kind}: {record.rule}",
                "cat": "alert", "ph": "i", "s": "g",
                "ts": round(record.at * 1e6, 3),
                "pid": DRIVER_PID, "tid": "alerts",
                "args": {"kind": record.kind, "rule": record.rule,
                         "severity": record.severity,
                         "labels": record.labels,
                         "trace_id": record.trace_id,
                         "span_id": record.span_id,
                         "detail": record.detail},
            })

    # Metadata: name processes, and name + order threads so tracks
    # render CPU, disks, network, tasks (the dead-_TRACK_ORDER fix).
    for machine_id in sorted({m for m, _ in tracks}):
        events.append({
            "name": "process_name", "ph": "M", "pid": machine_id,
            "args": {"name": f"machine {machine_id}"},
        })
    for machine_id, track in sorted(tracks):
        events.append({
            "name": "thread_name", "ph": "M", "pid": machine_id,
            "tid": track, "args": {"name": track},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": machine_id,
            "tid": track,
            "args": {"sort_index": _track_sort_index(track)},
        })
    if driver_used:
        events.append({
            "name": "process_name", "ph": "M", "pid": DRIVER_PID,
            "args": {"name": "driver"},
        })
    return events


def write_chrome_trace(metrics: MetricsCollector, path: str,
                       job_id: Optional[int] = None) -> WriteResult:
    """Write the trace JSON to ``path`` atomically.

    The JSON is staged in a temp file in the destination directory and
    renamed into place, so a crash mid-export never leaves a truncated
    file behind.  Returns a :class:`WriteResult` (path, event count).
    """
    events = trace_events(metrics, job_id=job_id)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".trace-",
                                    suffix=".json.tmp")
    try:
        # One-shot ``dumps`` (C encoder) and one write; the streaming
        # ``json.dump`` writes the same bytes token by token in Python.
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps({"traceEvents": events,
                                     "displayTimeUnit": "ms"}))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return WriteResult(path=path, events=len(events))
