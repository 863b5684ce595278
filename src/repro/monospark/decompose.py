"""Decomposition of multitasks into monotask DAGs (§3.2, Figure 4).

Decomposition happens on the worker, when the multitask arrives: the job
scheduler hands over exactly the same :class:`TaskDescriptor` the Spark
engine runs, and this module turns it into

    setup compute -> input monotasks -> main compute -> output write
                                                     -> cleanup compute

where the input monotasks are a local disk read (map task over a local
DFS block), a network fetch group plus local disk reads (reduce task),
or nothing (cached / parallelized input); and the output is a
write-through disk write (shuffle or DFS output) or nothing (collect /
in-memory shuffle).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.api.plan import (CachedInput, CollectOutput, DfsInput, DfsOutput,
                            LocalInput, ShuffleInput, ShuffleOutput)
from repro.datasvc.monotasks import (DataSvcFetchMonotask,
                                     DataSvcPutMonotask)
from repro.engine.semantics import TaskWork
from repro.errors import ExecutionError
from repro.metrics.events import (PHASE_CLEANUP, PHASE_COMPUTE,
                                  PHASE_DATASVC_READ, PHASE_DATASVC_WRITE,
                                  PHASE_INPUT_READ, PHASE_OUTPUT_WRITE,
                                  PHASE_SETUP, PHASE_SHUFFLE_READ,
                                  PHASE_SHUFFLE_WRITE)
from repro.monospark.localdag import DagShape
from repro.monospark.monotask import (ComputeMonotask, DiskMonotask,
                                      FetchSource, Monotask,
                                      NetworkFetchMonotask)
from repro.monospark.worker import MonoWorker

__all__ = ["decompose", "Decomposition"]


class Decomposition:
    """The monotask DAG for one multitask plus output placement."""

    def __init__(self, monotasks: List[Monotask], shape: DagShape,
                 output_monotask: Optional[Monotask]) -> None:
        self.monotasks = monotasks
        self.shape = shape
        self.output_monotask = output_monotask

    @property
    def output_disk(self) -> Optional[int]:
        """Disk the output landed on (resolved at routing time)."""
        if self.output_monotask is None:
            return None
        return self.output_monotask.disk_index


#: (input monotasks, has an output monotask) -> its checked DAG shape.
#: These two numbers are all that varies between the dependencies
#: :func:`decompose` declares -- even within one stage, a reduce task
#: whose remote buckets are empty has no fetch -- so each shape is read
#: from the first multitask that has it and reused.  Shapes are
#: immutable, so every engine in the process can share them.
_SHAPES: Dict[Tuple[int, bool], DagShape] = {}


def decompose(worker: MonoWorker, work: TaskWork) -> Decomposition:
    """Build the monotask DAG for ``work`` on ``worker``."""
    descriptor = work.descriptor
    ids = (descriptor.job_id, descriptor.stage_id, descriptor.index)
    cost = worker.engine.cost

    monotasks: List[Monotask] = []

    setup = ComputeMonotask(worker, PHASE_SETUP, ids,
                            op_s=cost.task_setup_s)
    monotasks.append(setup)

    input_monotasks = _input_monotasks(worker, work, ids)
    for monotask in input_monotasks:
        monotask.after(setup)
    monotasks.extend(input_monotasks)

    main = ComputeMonotask(
        worker, PHASE_COMPUTE, ids,
        deserialize_s=work.deserialize_s, op_s=work.op_s,
        serialize_s=work.serialize_s)
    main.after(setup, *input_monotasks)
    monotasks.append(main)

    output_monotask = _output_monotask(worker, work, ids)
    if output_monotask is not None:
        output_monotask.after(main)
        monotasks.append(output_monotask)

    cleanup = ComputeMonotask(worker, PHASE_CLEANUP, ids,
                              op_s=cost.task_cleanup_s)
    cleanup.after(main, output_monotask)
    monotasks.append(cleanup)

    if work.trace is not None:
        # Pre-mint leaf span ids at decomposition time (in DAG order,
        # for determinism) so causal links can reference a monotask's
        # span before it runs and self-reports.
        metrics = worker.engine.metrics
        for monotask in monotasks:
            monotask.trace = work.trace
            monotask.span_id = metrics.new_span_id()

    key = (len(input_monotasks), output_monotask is not None)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = DagShape.of(monotasks)
    return Decomposition(monotasks, shape, output_monotask)


def _input_monotasks(worker: MonoWorker, work: TaskWork,
                     ids: Tuple[int, int, int]) -> List[Monotask]:
    spec = work.descriptor.input
    machine = worker.machine

    if isinstance(spec, (LocalInput, CachedInput)):
        # Data either ships with the task or sits in a block manager.
        source = work.inputs[0]
        if (isinstance(spec, CachedInput) and source.machine_id is not None
                and source.machine_id != machine.machine_id):
            fetch = NetworkFetchMonotask(
                worker, PHASE_INPUT_READ, ids,
                [FetchSource(source.machine_id, None, source.stored_bytes,
                             label="cached-remote")])
            return [fetch]
        return []

    if isinstance(spec, DfsInput):
        source = work.inputs[0]
        svc = worker.engine.datasvc
        if svc is not None and source.machine_id is not None \
                and svc.owns_machine(source.machine_id):
            # The block lives in the data tier: one service read replaces
            # the remote disk read + fetch (the service runs both on its
            # own schedulers, with checksum verification and failover).
            return [DataSvcFetchMonotask(
                worker, PHASE_DATASVC_READ, ids, svc,
                [(spec.block.block_id, source.stored_bytes)],
                dfs_block=True)]
        if source.machine_id == machine.machine_id:
            return [DiskMonotask(worker, PHASE_INPUT_READ, ids,
                                 disk_index=source.disk_index,
                                 nbytes=source.stored_bytes, kind="read")]
        return [NetworkFetchMonotask(
            worker, PHASE_INPUT_READ, ids,
            [FetchSource(source.machine_id, source.disk_index,
                         source.stored_bytes,
                         label=spec.block.block_id)])]

    if isinstance(spec, ShuffleInput):
        # One request per remote machine reads *all* of the requested
        # shuffle data in a single disk monotask on that machine (§3.2:
        # "create a disk read monotask to read all of the requested
        # shuffle data into memory"), so tiny per-map buckets coalesce
        # into one sequential read per (machine, disk).
        svc = worker.engine.datasvc
        monotasks: List[Monotask] = []
        remote_bytes: Dict[Tuple[int, Optional[int]], float] = defaultdict(
            float)
        local_disk_bytes: Dict[int, float] = defaultdict(float)
        datasvc_requests: List[Tuple[str, float]] = []
        for source in work.inputs:
            if source.stored_bytes <= 0:
                continue
            if svc is not None and source.machine_id is not None \
                    and svc.owns_machine(source.machine_id):
                # Buckets owned by the data tier: fetched through the
                # service (which coalesces per map-output block).
                datasvc_requests.append(
                    (source.block_id, source.stored_bytes))
                continue
            local = source.machine_id == machine.machine_id
            if local:
                if not source.in_memory:
                    local_disk_bytes[source.disk_index] += source.stored_bytes
                # Local in-memory buckets cost nothing to "read".
            else:
                disk = None if source.in_memory else source.disk_index
                remote_bytes[(source.machine_id, disk)] += source.stored_bytes
        for disk_index, nbytes in sorted(local_disk_bytes.items()):
            monotasks.append(DiskMonotask(
                worker, PHASE_SHUFFLE_READ, ids, disk_index=disk_index,
                nbytes=nbytes, kind="read"))
        if remote_bytes:
            sources = [
                FetchSource(machine_id, disk_index, nbytes,
                            label=f"shuffle-fetch-{work.descriptor.task_id}")
                for (machine_id, disk_index), nbytes
                in sorted(remote_bytes.items(),
                          key=lambda item: (item[0][0], item[0][1]
                                            if item[0][1] is not None
                                            else -1))
            ]
            monotasks.append(NetworkFetchMonotask(
                worker, PHASE_SHUFFLE_READ, ids, sources))
        if datasvc_requests:
            monotasks.append(DataSvcFetchMonotask(
                worker, PHASE_DATASVC_READ, ids, svc,
                sorted(datasvc_requests)))
        return monotasks

    raise ExecutionError(f"cannot decompose input spec: {spec!r}")


def _output_monotask(worker: MonoWorker, work: TaskWork,
                     ids: Tuple[int, int, int]) -> Optional[Monotask]:
    """The write monotask, with disk placement deferred to routing time
    (``disk_index=None``) so the §8 shortest-queue policy sees real
    load."""
    output = work.descriptor.output
    svc = worker.engine.datasvc

    if isinstance(output, ShuffleOutput):
        if output.in_memory:
            return None
        if svc is not None:
            # Disaggregated shuffle: stream the buckets to the data
            # service instead of the local disk (even empty maps, so the
            # registry's lineage index stays off the compute tier).
            buckets = {
                reduce_index: output.fmt.stored_bytes(partition.data_bytes)
                for reduce_index, partition
                in (work.shuffle_buckets or {}).items()
            }
            return DataSvcPutMonotask(
                worker, PHASE_DATASVC_WRITE, ids, svc,
                shuffle_id=output.shuffle_id,
                map_index=work.descriptor.index, buckets=buckets)
        if work.output_stored_bytes <= 0:
            return None
        return DiskMonotask(worker, PHASE_SHUFFLE_WRITE, ids,
                            disk_index=None,
                            nbytes=work.output_stored_bytes, kind="write")

    if isinstance(output, DfsOutput):
        if svc is not None:
            return DataSvcPutMonotask(
                worker, PHASE_DATASVC_WRITE, ids, svc,
                block_id=f"dfsout:{work.descriptor.task_id}",
                nbytes=work.output_stored_bytes,
                payload=(work.output_partition
                         if output.keep_payload else None))
        if work.output_stored_bytes <= 0:
            return None
        return DiskMonotask(worker, PHASE_OUTPUT_WRITE, ids,
                            disk_index=None,
                            nbytes=work.output_stored_bytes, kind="write")

    if isinstance(output, CollectOutput):
        return None

    raise ExecutionError(f"cannot decompose output spec: {output!r}")
