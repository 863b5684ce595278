"""The causal span model: what performance clarity looks like as data.

A *span* is one timed unit of the execution hierarchy -- job, stage,
task attempt, or monotask phase -- identified by a ``span_id`` and
parented into a tree per job (the *trace*).  A *link* is a causal edge
that the tree cannot express: stage DAG edges, shuffle producer ->
consumer fetches, resource-queue waits, retries, speculation, and
health-driven re-dispatch.

The span tree is the paper's §3 thesis made recordable: because each
monotask uses exactly one resource, every leaf span carries an exact
``(resource, machine, phase)`` label plus its queue time, so walking
the tree answers "which causal chain of waits and work determined this
job's runtime" (see :mod:`repro.trace.critpath`).  The Spark-style
engine produces the same job/stage/attempt spans but *no* monotask
leaves -- its blended tasks cannot be decomposed, which is the §6.6
contrast in span form.

Everything here is a plain dataclass so spans serialize losslessly to
run-capsule lines (:mod:`repro.xray.capsule`) and to Chrome trace
events (:mod:`repro.metrics.chrometrace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "TraceContext",
    "SpanRecord",
    "SpanLink",
    "SPAN_JOB",
    "SPAN_STAGE",
    "SPAN_ATTEMPT",
    "SPAN_MONOTASK",
    "SPAN_FAILOVER",
    "LINK_DAG_EDGE",
    "LINK_SHUFFLE_FETCH",
    "LINK_QUEUE_WAIT",
    "LINK_RETRY",
    "LINK_SPECULATION",
    "LINK_REDISPATCH",
    "LINK_DATASVC_READ",
    "LINK_DATASVC_WRITE",
    "LINK_FAILOVER_RESUME",
    "span_to_json",
    "link_to_json",
]

#: Span kinds, from root to leaf.
SPAN_JOB = "job"
SPAN_STAGE = "stage"
SPAN_ATTEMPT = "attempt"
SPAN_MONOTASK = "monotask"
#: A control-plane failover: detection of a dead driver through the
#: adopter finishing checkpoint restore (not parented under any job).
SPAN_FAILOVER = "failover"

#: Causal link kinds.
LINK_DAG_EDGE = "dag-edge"
LINK_SHUFFLE_FETCH = "shuffle-fetch"
LINK_QUEUE_WAIT = "queue-wait"
LINK_RETRY = "retry"
LINK_SPECULATION = "speculation"
LINK_REDISPATCH = "redispatch"
#: Data-service causal edges: a storage-node read serving a client
#: fetch, and a client write landing in the data tier.
LINK_DATASVC_READ = "datasvc-read"
LINK_DATASVC_WRITE = "datasvc-write"
#: A failover span to the root span of each in-flight job the adopting
#: driver resumed (rather than replayed) after a driver crash.
LINK_FAILOVER_RESUME = "failover-resume"


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span, parent) triple threaded through the engines.

    Minted once per job by the :class:`~repro.metrics.collector.
    MetricsCollector`, then re-derived at each level: the stage runner
    gets the job's context, each task attempt gets a stage-parented
    context, and each monotask a attempt-parented one.  Immutable so a
    context can be shared freely between concurrent attempts.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int] = None

    def child(self, span_id: int) -> "TraceContext":
        """A context for a new span parented under this one."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            parent_id=self.span_id)


@dataclass(slots=True)
class SpanRecord:
    """One timed node of a job's span tree."""

    span_id: int
    trace_id: str
    parent_id: Optional[int]
    kind: str  # SPAN_JOB | SPAN_STAGE | SPAN_ATTEMPT | SPAN_MONOTASK
    name: str
    start: float
    end: float = float("nan")
    #: Machine the span ran on; -1 for driver-side spans (job/stage).
    machine_id: int = -1
    #: Resource a leaf span used (cpu/disk/network); "" above the leaves.
    resource: str = ""
    #: Monotask phase (input_read/compute/...); "" above the leaves.
    phase: str = ""
    #: Seconds spent waiting at the resource scheduler before service.
    queue_s: float = 0.0
    nbytes: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Service seconds (end minus start; NaN while open)."""
        return self.end - self.start

    @property
    def submitted(self) -> float:
        """When the span's work was submitted (start minus queue time)."""
        return self.start - self.queue_s

    @property
    def finished(self) -> bool:
        """True once the span has been closed."""
        return self.end == self.end  # not NaN


@dataclass
class SpanLink:
    """A causal edge between two spans that the tree cannot express."""

    from_span_id: int
    to_span_id: int
    kind: str
    trace_id: str
    at: float = float("nan")
    detail: str = ""


def span_to_json(span: SpanRecord) -> Dict[str, Any]:
    """A stable, JSONL-ready dict for one span."""
    record: Dict[str, Any] = {
        "type": "span",
        "span_id": span.span_id,
        "trace_id": span.trace_id,
        "parent_id": span.parent_id,
        "kind": span.kind,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "machine_id": span.machine_id,
    }
    if span.resource:
        record["resource"] = span.resource
    if span.phase:
        record["phase"] = span.phase
    if span.queue_s:
        record["queue_s"] = span.queue_s
    if span.nbytes:
        record["nbytes"] = span.nbytes
    if span.attrs:
        record["attrs"] = dict(sorted(span.attrs.items()))
    return record


def link_to_json(link: SpanLink) -> Dict[str, Any]:
    """A stable, JSONL-ready dict for one link."""
    record: Dict[str, Any] = {
        "type": "link",
        "from": link.from_span_id,
        "to": link.to_span_id,
        "kind": link.kind,
        "trace_id": link.trace_id,
    }
    if link.at == link.at:
        record["at"] = link.at
    if link.detail:
        record["detail"] = link.detail
    return record
