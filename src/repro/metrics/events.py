"""Structured records of what happened during a simulated job.

MonoSpark's performance clarity comes from the fact that "each monotask
reports how long it took to complete" (§6.1) -- the instrumentation *is*
the execution model.  A :class:`MonotaskRecord` is that report.  The
Spark-style engine cannot produce monotask records (that is the point of
§6.6), but the simulator itself knows the ground truth of every resource
it served, so the Spark engine emits :class:`ResourceUsageRecord` ground
truth that the Fig 15-17 experiments use to *approximate* what a user
could measure.

Incidents -- injected faults, health decisions, control-plane events and
alert transitions -- share one base, :class:`Event`: each record reports
itself in the same shape (when, how severe, which stream, what kind,
about what), so every reader of the event stream reads one type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, FrozenSet, Optional

from repro.trace.spans import SPAN_MONOTASK, SpanRecord

__all__ = [
    "MonotaskRecord",
    "ResourceUsageRecord",
    "JobRecord",
    "Event",
    "FaultEventRecord",
    "HealthEventRecord",
    "DriverEventRecord",
    "AlertEventRecord",
    "SpeculationRecord",
    "ServeRecord",
    "TransferRecord",
    "CPU",
    "DISK",
    "NETWORK",
    "PHASE_INPUT_READ",
    "PHASE_SHUFFLE_READ",
    "PHASE_SHUFFLE_WRITE",
    "PHASE_OUTPUT_WRITE",
    "PHASE_SHUFFLE_SERVE",
    "PHASE_COMPUTE",
    "PHASE_SETUP",
    "PHASE_CLEANUP",
    "PHASE_DATASVC_WRITE",
    "PHASE_DATASVC_READ",
    "PHASE_DATASVC_DRAIN",
    "PHASE_DATASVC_REPLICATE",
]

CPU = "cpu"
DISK = "disk"
NETWORK = "network"

PHASE_INPUT_READ = "input_read"
PHASE_SHUFFLE_READ = "shuffle_read"
PHASE_SHUFFLE_WRITE = "shuffle_write"
PHASE_OUTPUT_WRITE = "output_write"
PHASE_SHUFFLE_SERVE = "shuffle_serve"
PHASE_COMPUTE = "compute"
PHASE_SETUP = "setup"
PHASE_CLEANUP = "cleanup"
#: Data-service phases: client-side writes/reads against the data tier
#: and storage-node-side write-behind drains / replica copies.
PHASE_DATASVC_WRITE = "datasvc_write"
PHASE_DATASVC_READ = "datasvc_read"
PHASE_DATASVC_DRAIN = "datasvc_drain"
PHASE_DATASVC_REPLICATE = "datasvc_replicate"


@dataclass(slots=True, kw_only=True)
class MonotaskRecord(SpanRecord):
    """One monotask's self-report: what resource, how long, how much.

    The report is also the monotask's leaf span: with a trace context
    the collector stamps the span identity onto the record and files
    the same object as a span, so a traced monotask is stored once.
    """

    span_id: int = 0
    trace_id: str = ""
    parent_id: Optional[int] = None
    kind: str = SPAN_MONOTASK
    name: str = ""
    job_id: int
    stage_id: int
    task_index: int
    #: Disk index for disk monotasks (None otherwise).
    disk_index: Optional[int] = None
    #: Compute monotasks split their time so the model can subtract
    #: (de)serialization for the in-memory what-ifs (§6.3).
    deserialize_s: float = 0.0
    op_s: float = 0.0
    serialize_s: float = 0.0

    @property
    def is_input_read(self) -> bool:
        """True for monotasks that read DFS input."""
        return self.phase == PHASE_INPUT_READ


@dataclass(slots=True)
class ResourceUsageRecord:
    """Ground-truth resource consumption of one Spark-engine task.

    The simulator can attribute this perfectly; a real Spark user cannot
    (tasks share the JVM and the OS interleaves their I/O, §6.6).
    """

    job_id: int
    stage_id: int
    task_index: int
    machine_id: int
    cpu_s: float = 0.0
    disk_bytes_read: float = 0.0
    disk_bytes_written: float = 0.0
    network_bytes: float = 0.0
    deserialize_s: float = 0.0
    serialize_s: float = 0.0


class Event:
    """One incident record, seen the same way whatever its stream.

    The four incident records subclass this: :class:`FaultEventRecord`,
    :class:`HealthEventRecord`, :class:`DriverEventRecord` and
    :class:`AlertEventRecord`.  Each is a dataclass with ``kind``,
    ``at`` and ``detail`` fields; ``Event`` declares no fields of its
    own, so ``astuple``/``asdict`` of a record are its fields only.

    ``severity`` encodes "what would page": lost work and lost state
    are critical, degradation signals and recovery churn are warnings,
    bookkeeping is info.  By default a subclass lists its critical and
    warning kinds and every other kind is info.
    """

    #: Which stream the record belongs to: fault | health | driver | alert.
    source: ClassVar[str] = ""
    critical_kinds: ClassVar[FrozenSet[str]] = frozenset()
    warning_kinds: ClassVar[FrozenSet[str]] = frozenset()
    #: Exemplar link to a job's span; only alerts carry one (-1 = none).
    span_id = -1
    trace_id = ""

    @property
    def subject(self) -> str:
        """What the event is about: ``machine 1``, ``driver 0``, a rule."""
        raise NotImplementedError

    @property
    def severity(self) -> str:
        """``critical``, ``warning`` or ``info``."""
        if self.kind in self.critical_kinds:
            return "critical"
        if self.kind in self.warning_kinds:
            return "warning"
        return "info"

    def journal_row(self) -> dict:
        """The uniform row, in the event journal's key order."""
        return {"t": self.at, "severity": self.severity,
                "source": self.source, "kind": self.kind,
                "subject": self.subject, "detail": self.detail,
                "span_id": self.span_id, "trace_id": self.trace_id}

    def format(self) -> str:
        """One aligned human line (``repro obs events`` output)."""
        link = f" span={self.trace_id}/{self.span_id}" \
            if self.span_id >= 0 else ""
        detail = f": {self.detail}" if self.detail else ""
        return (f"[{self.at:9.3f}] {self.severity.upper():8s} "
                f"{self.source}/{self.kind} {self.subject}{detail}{link}")


@dataclass
class FaultEventRecord(Event):
    """One injected fault (or recovery milestone like a restart)."""

    source = "fault"
    critical_kinds = frozenset({"machine-crash", "disk-failure",
                                "storage-crash", "driver-crash",
                                "link-partition", "driver-partition"})

    kind: str  # machine-crash | machine-restart | disk-failure | slowdown...
    machine_id: int
    at: float
    detail: str = ""

    @property
    def subject(self) -> str:
        """``machine N``."""
        return f"machine {self.machine_id}"

    @property
    def severity(self) -> str:
        """Critical for a fault that loses state or work; info for an
        injection skipped because its target was absent or down (it
        injected nothing); a warning for degradations and recoveries."""
        if self.kind in self.critical_kinds:
            return "critical"
        return "info" if self.kind.endswith("-skipped") else "warning"


@dataclass(slots=True)
class TransferRecord:
    """One per-source-machine shuffle/DFS response flow, measured at the
    receiver.

    MonoSpark's network monotask issues one request per remote machine
    and can time each response separately -- so unlike the whole-fetch
    :class:`MonotaskRecord`, a transfer is attributable to a specific
    *source* NIC.  This is what lets the health monitor pin a slow
    uplink on the machine that owns it instead of on every reducer that
    happens to fetch from it.  The Spark engine does not emit these:
    its fetch metrics are aggregated per task (§6.6).
    """

    src_machine_id: int
    dst_machine_id: int
    nbytes: float
    start: float
    end: float
    #: Job whose fetch this flow served; -1 when not attributable.
    job_id: int = -1

    @property
    def duration(self) -> float:
        """Response seconds (request latency + bandwidth time)."""
        return self.end - self.start


@dataclass
class HealthEventRecord(Event):
    """One health-monitor decision about a machine.

    ``kind`` is ``"suspect"`` (a resource's observed rate fell below
    the cluster median by the policy's slow factor), ``"exclude"``,
    ``"probation"``, ``"reinstate"``, ``"heartbeat-miss"``, or
    ``"heartbeat-restore"``.  ``resource`` names what the monitor
    blamed: ``cpu``/``disk``/``network`` on MonoSpark (per-resource
    monotask rates), or ``"task"`` on Spark, whose task-level EWMA
    cannot attribute slowness to a resource (§6.6's contrast, online).
    """

    source = "health"
    critical_kinds = frozenset({"exclude", "integrity-fault"})
    warning_kinds = frozenset({"suspect", "heartbeat-miss", "probation"})

    kind: str
    machine_id: int
    at: float
    resource: str = ""
    #: Observed rate relative to the cluster median (1.0 = typical).
    relative_rate: float = float("nan")
    detail: str = ""

    @property
    def subject(self) -> str:
        """``machine N``, plus the blamed resource when there is one."""
        if self.resource:
            return f"machine {self.machine_id} {self.resource}"
        return f"machine {self.machine_id}"


@dataclass
class DriverEventRecord(Event):
    """One control-plane membership or failover decision.

    ``kind`` is one of: ``"heartbeat-miss"`` / ``"heartbeat-restore"``
    (a peer fell out of / rejoined a replica's membership view),
    ``"election"`` / ``"leader"`` (a bully election ran and who won),
    ``"isolated"`` / ``"rejoin"`` (a replica lost sight of every peer
    and stopped dispatching, then healed), ``"driver-crash"`` /
    ``"driver-restart"`` / ``"driver-partition"`` /
    ``"partition-heal"`` (injected faults), ``"reassign"`` (the leader
    moved a tenant to a new owner), ``"checkpoint-restore"`` (an
    adopter read a tenant checkpoint back from the data tier), and
    ``"resume"`` / ``"replay"`` / ``"lost"`` (per-request failover
    outcomes).  ``driver_id`` is the replica the event happened *on*;
    ``peer_id`` the replica it is *about* (-1 when not applicable).
    """

    source = "driver"
    critical_kinds = frozenset({"driver-crash", "lost", "isolated"})
    warning_kinds = frozenset({"election", "reassign", "driver-partition",
                               "heartbeat-miss", "replay"})

    kind: str
    driver_id: int
    at: float
    peer_id: int = -1
    tenant: str = ""
    detail: str = ""

    @property
    def subject(self) -> str:
        """``driver N``, plus the peer and tenant when they apply."""
        subject = f"driver {self.driver_id}"
        if self.peer_id >= 0:
            subject += f" peer {self.peer_id}"
        if self.tenant:
            subject += f" tenant {self.tenant}"
        return subject


@dataclass
class AlertEventRecord(Event):
    """One alert-lifecycle transition from the observability plane.

    ``kind`` is ``"pending"`` (the rule's condition just became true;
    the alert waits out its ``for_s`` hold), ``"firing"``, or
    ``"resolved"``.  ``labels`` is the canonical rendering of the
    series labels the alert is keyed by (``machine=1,resource=network``)
    -- the dedup key, so one misbehaving series produces one alert, not
    one per evaluation tick.  ``trace_id``/``span_id`` carry the
    exemplar: the worst recent contributor's critical-path span, so a
    firing alert links straight to the offending job (span_id -1 = no
    exemplar available, e.g. on the Spark engine).  ``severity`` is a
    field here: the alert engine stamps the rule's severity on a firing
    transition and ``info`` on the others.
    """

    source = "alert"

    kind: str  # pending | firing | resolved
    rule: str
    at: float
    severity: str = "warning"
    labels: str = ""
    value: float = float("nan")
    trace_id: str = ""
    span_id: int = -1
    detail: str = ""

    @property
    def subject(self) -> str:
        """The rule, keyed by its series labels when it has any."""
        if self.labels:
            return f"{self.rule}{{{self.labels}}}"
        return self.rule


@dataclass
class SpeculationRecord:
    """A speculative duplicate attempt was launched for a straggler."""

    job_id: int
    stage_id: int
    task_index: int
    at: float
    original_machine_id: int


@dataclass
class ServeRecord:
    """One job request's life in a :class:`repro.serve.JobServer` run.

    ``outcome`` is ``"completed"`` (the job ran to completion) or
    ``"shed"`` (the admission controller rejected it; ``detail`` holds
    the reason and no dispatch/completion times exist).
    """

    tenant: str
    template: str
    arrival: float
    #: Engine job id; -1 for shed requests (never instantiated).
    job_id: int = -1
    dispatched: float = float("nan")
    completed: float = float("nan")
    outcome: str = "completed"
    #: The admission controller's cost estimate (None = no estimate yet).
    estimate_s: Optional[float] = None
    #: The tenant's latency SLO at submission time (None = best effort).
    slo_s: Optional[float] = None
    detail: str = ""

    @property
    def queue_delay_s(self) -> float:
        """Seconds between arrival and dispatch to the engine."""
        return self.dispatched - self.arrival

    @property
    def service_s(self) -> float:
        """Seconds between dispatch and completion."""
        return self.completed - self.dispatched

    @property
    def latency_s(self) -> float:
        """End-to-end seconds between arrival and completion."""
        return self.completed - self.arrival

    @property
    def slo_met(self) -> Optional[bool]:
        """Whether the request met its SLO (None = no SLO declared)."""
        if self.slo_s is None:
            return None
        return self.outcome == "completed" and self.latency_s <= self.slo_s


@dataclass
class JobRecord:
    job_id: int
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        """Job wall-clock seconds."""
        return self.end - self.start
