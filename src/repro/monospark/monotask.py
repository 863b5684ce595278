"""Monotask types: units of work that each use exactly one resource.

The four design principles of §3.1 map directly onto this module:

* *Each monotask uses one resource* -- there is one class per resource,
  and ``start`` touches only that resource.
* *Monotasks execute in isolation* -- by the time a monotask is
  dispatched, all its inputs are in memory; ``start`` never blocks on
  another monotask.
* *Per-resource schedulers control contention* -- monotasks do not run
  themselves; a :class:`~repro.monospark.schedulers.ResourceScheduler`
  dispatches them (and its queue length makes contention visible).
* *Complete control over the resource* -- disk monotasks talk to the
  :class:`~repro.simulator.disk.Disk` directly, bypassing the OS buffer
  cache: writes are write-through by construction (§5.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.metrics.events import (CPU, DISK, NETWORK, MonotaskRecord,
                                  PHASE_SHUFFLE_SERVE, TransferRecord)
from repro.simulator import Environment, Event
from repro.simulator.network import FLOW_LATENCY_S
from repro.trace.spans import LINK_SHUFFLE_FETCH, TraceContext

if TYPE_CHECKING:
    from repro.monospark.worker import MonoWorker

__all__ = ["Monotask", "ComputeMonotask", "DiskMonotask",
           "NetworkFetchMonotask", "FetchSource"]


class Monotask:
    """Base: dependency tracking plus self-reporting."""

    __slots__ = ("worker", "env", "phase", "job_id", "stage_id",
                 "task_index", "deps", "done", "submitted_at", "started_at",
                 "trace", "span_id")

    resource = "abstract"

    def __init__(self, worker: "MonoWorker", phase: str,
                 task_id_fields: Tuple[int, int, int]) -> None:
        self.worker = worker
        self.env: Environment = worker.env
        self.phase = phase
        self.job_id, self.stage_id, self.task_index = task_id_fields
        self.deps: List["Monotask"] = []
        self.done: Event = self.env.event()
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        #: Attempt span context + pre-minted leaf span id, attached by
        #: ``decompose`` (and by fetches for remote serve reads) so the
        #: self-report lands as a span under the attempt.  Pre-minting
        #: lets causal links reference a span before it closes.
        self.trace: Optional[TraceContext] = None
        self.span_id: Optional[int] = None

    def after(self, *deps: Optional["Monotask"]) -> "Monotask":
        """Declare dependencies (None entries are skipped)."""
        self.deps.extend(dep for dep in deps if dep is not None)
        return self

    def start(self) -> Event:
        """Start using the resource; returns its completion event.

        Called by the resource scheduler only.  A monotask that is one
        request to its resource returns that request's own completion
        event; only multi-step monotasks (network fetches, data-service
        calls) run :meth:`execute` as a kernel process.
        """
        return self.env.process(self.execute())

    def execute(self) -> Generator:
        """The steps of a multi-step monotask, run by :meth:`start`."""
        raise NotImplementedError

    # -- reporting -----------------------------------------------------------------

    def base_record(self, resource: str, nbytes: float = 0.0,
                    **extra) -> MonotaskRecord:
        """A partially filled record with ids, window, and queue time."""
        return MonotaskRecord(
            job_id=self.job_id, stage_id=self.stage_id,
            task_index=self.task_index, resource=resource, phase=self.phase,
            machine_id=self.worker.machine.machine_id,
            start=self.started_at, end=self.env.now, nbytes=nbytes,
            queue_s=(self.started_at - self.submitted_at
                     if self.submitted_at is not None else 0.0),
            **extra)

    def record(self) -> None:
        """Emit this monotask's :class:`MonotaskRecord`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.phase}, "
                f"j{self.job_id}s{self.stage_id}t{self.task_index})")


class ComputeMonotask(Monotask):
    """Holds one core for the full duration of its computation."""

    __slots__ = ("deserialize_s", "op_s", "serialize_s")

    resource = CPU

    def __init__(self, worker: "MonoWorker", phase: str,
                 task_id_fields: Tuple[int, int, int],
                 deserialize_s: float = 0.0, op_s: float = 0.0,
                 serialize_s: float = 0.0) -> None:
        super().__init__(worker, phase, task_id_fields)
        self.deserialize_s = deserialize_s
        self.op_s = op_s
        self.serialize_s = serialize_s

    @property
    def seconds(self) -> float:
        """Total priced compute time of this monotask."""
        return self.deserialize_s + self.op_s + self.serialize_s

    def start(self) -> Event:
        """Hold a core for :attr:`seconds` as one compute slice."""
        return self.worker.machine.cpu.slice(self.seconds)

    def record(self) -> None:
        """Report duration with its deserialize/op/serialize split."""
        self.worker.engine.metrics.record_monotask(
            self.base_record(CPU, deserialize_s=self.deserialize_s,
                             op_s=self.op_s, serialize_s=self.serialize_s),
            trace=self.trace, span_id=self.span_id)


class DiskMonotask(Monotask):
    """Reads or writes one contiguous extent, directly on the device."""

    __slots__ = ("disk_index", "nbytes", "kind")

    resource = DISK

    def __init__(self, worker: "MonoWorker", phase: str,
                 task_id_fields: Tuple[int, int, int], disk_index: int,
                 nbytes: float, kind: str) -> None:
        super().__init__(worker, phase, task_id_fields)
        self.disk_index = disk_index
        self.nbytes = nbytes
        self.kind = kind  # "read" | "write"

    def start(self) -> Event:
        """Submit the extent; the request's own event completes it."""
        disk = self.worker.machine.disks[self.disk_index]
        return disk.submit(self.nbytes, self.kind,
                           label=f"mono:{self.phase}")

    def record(self) -> None:
        """Report the bytes moved and which disk served them."""
        self.worker.engine.metrics.record_monotask(
            self.base_record(DISK, nbytes=self.nbytes,
                             disk_index=self.disk_index),
            trace=self.trace, span_id=self.span_id)


class FetchSource:
    """One remote extent a network monotask must pull."""

    __slots__ = ("machine_id", "disk_index", "nbytes", "label")

    def __init__(self, machine_id: int, disk_index: Optional[int],
                 nbytes: float, label: str = "") -> None:
        self.machine_id = machine_id
        self.disk_index = disk_index  # None: remote data is in memory
        self.nbytes = nbytes
        self.label = label


class NetworkFetchMonotask(Monotask):
    """Fetches a multitask's remote data; scheduled at the *receiver*.

    Admission is per multitask (§3.3: outstanding requests are limited
    "to those coming from four multitasks").  Once admitted, requests to
    all remote machines are issued concurrently.  Each remote machine
    serves a request by queueing a disk read monotask on *its own* disk
    scheduler and then sending the data; the remote read therefore
    contends -- visibly -- with the remote machine's other disk work.
    """

    __slots__ = ("sources", "total_bytes")

    resource = NETWORK

    def __init__(self, worker: "MonoWorker", phase: str,
                 task_id_fields: Tuple[int, int, int],
                 sources: List[FetchSource]) -> None:
        super().__init__(worker, phase, task_id_fields)
        self.sources = sources
        self.total_bytes = sum(source.nbytes for source in sources)

    def execute(self) -> Generator:
        if not self.sources:
            return
        # One request per remote machine (§3.2): its disk reads run
        # concurrently on that machine's disk schedulers, then the data
        # comes back as a single response flow.
        by_machine: dict = {}
        for source in self.sources:
            by_machine.setdefault(source.machine_id, []).append(source)
        transfers = [_MachineFetch(self, machine, group).done
                     for machine, group in sorted(by_machine.items())]
        yield self.env.all_of(transfers)

    def record(self) -> None:
        """Report the total bytes this fetch group received."""
        self.worker.engine.metrics.record_monotask(
            self.base_record(NETWORK, nbytes=self.total_bytes),
            trace=self.trace, span_id=self.span_id)


class _MachineFetch:
    """One remote machine's part of a fetch: the request, the remote
    serve reads, then one response flow.

    A chain of callbacks on the request timeout, the reads and the
    flow; :attr:`done` fires (or fails) one step after the flow
    completes, where a process would have.
    """

    __slots__ = ("fetch", "machine_id", "sources", "total", "sent_at",
                 "done")

    def __init__(self, fetch: NetworkFetchMonotask, machine_id: int,
                 sources: List[FetchSource]) -> None:
        self.fetch = fetch
        self.machine_id = machine_id
        self.sources = sources
        self.total = sum(source.nbytes for source in sources)
        self.sent_at = 0.0
        self.done: Event = fetch.env.event()
        # The request itself.
        fetch.env.timeout(FLOW_LATENCY_S).callbacks.append(self._requested)

    def _failed(self, event: Event) -> bool:
        if event._ok:
            return False
        event.defused = True
        self.done.fail(event._value)
        return True

    def _requested(self, request: Event) -> None:
        fetch = self.fetch
        engine = fetch.worker.engine
        machine_id = self.machine_id
        reads = []
        for source in self.sources:
            if source.disk_index is None:
                continue  # remote data already in memory
            remote_worker = engine.workers[machine_id]
            read = DiskMonotask(
                remote_worker, PHASE_SHUFFLE_SERVE,
                (fetch.job_id, fetch.stage_id, fetch.task_index),
                disk_index=source.disk_index, nbytes=source.nbytes,
                kind="read")
            if fetch.trace is not None and fetch.span_id is not None:
                # The serve read is part of the *consumer's* causal
                # chain: parent it under the same attempt and link it
                # to this fetch so the producer -> consumer edge is in
                # the trace (and renderable as a Perfetto flow).
                read.trace = fetch.trace
                read.span_id = engine.metrics.new_span_id()
                engine.metrics.record_link(
                    from_span_id=read.span_id, to_span_id=fetch.span_id,
                    kind=LINK_SHUFFLE_FETCH, trace_id=fetch.trace.trace_id,
                    at=fetch.env.now,
                    detail=engine.metrics.text(
                        "serve read on machine {} -> fetch on machine {}",
                        machine_id, fetch.worker.machine.machine_id))
            remote_worker.submit_ready(read)
            reads.append(read.done)
        if reads:
            fetch.env.all_of(reads).callbacks.append(self._send)
        else:
            self._send(request)

    def _send(self, read: Event) -> None:
        if self._failed(read):
            return
        fetch = self.fetch
        self.sent_at = fetch.env.now
        fetch.worker.machine.network.transfer(
            self.machine_id, fetch.worker.machine.machine_id, self.total,
            label=self.sources[0].label).add_callback(self._delivered)

    def _delivered(self, flow: Event) -> None:
        if self._failed(flow):
            return
        fetch = self.fetch
        local_id = fetch.worker.machine.machine_id
        if self.machine_id != local_id and self.total > 0:
            # The receiver timed this machine's response flow, so the
            # observation is attributable to a specific source NIC --
            # per-resource clarity at sub-monotask grain, which is what
            # lets health monitoring localize a slow uplink.
            fetch.worker.engine.metrics.record_transfer(TransferRecord(
                src_machine_id=self.machine_id, dst_machine_id=local_id,
                nbytes=self.total, start=self.sent_at, end=fetch.env.now,
                job_id=fetch.job_id))
        self.done.succeed()
