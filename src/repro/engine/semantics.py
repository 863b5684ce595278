"""Pure task semantics, shared by both engines.

MonoSpark "inherits most of the Spark code base, and the application code
running on Spark and MonoSpark is identical ... MonoSpark only changes
the code that handles pipelining resources used by a task" (§4).  This
module is that shared code base: given a task descriptor and its
resolved inputs, it computes -- with no simulated time passing -- what
the task produces and how much CPU work each part costs.  The engines
then differ only in *when* and *how* the I/O and compute are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.ops import run_chain
from repro.api.plan import (CachedInput, CollectOutput, DfsInput, DfsOutput,
                            LocalInput, ShuffleInput, ShuffleOutput,
                            TaskDescriptor)
from repro.config import CostModel
from repro.datamodel.records import Partition
from repro.datamodel.serialization import (DataFormat, PLAIN,
                                           deserialize_seconds,
                                           serialize_seconds)
from repro.errors import ExecutionError

__all__ = ["ResolvedInput", "TaskWork", "compute_task_work"]


@dataclass(slots=True)
class ResolvedInput:
    """One source of input data for a task, located and sized."""

    partition: Partition
    #: Bytes that must move from storage/network (after compression).
    stored_bytes: float
    fmt: DataFormat
    #: Where the data lives now: machine id, or None for "ships with task".
    machine_id: Optional[int] = None
    disk_index: Optional[int] = None
    in_memory: bool = False
    #: For shuffle inputs: which map task produced it.
    map_index: Optional[int] = None
    #: Cogroup side tag to apply to records, or None.
    tag_side: Optional[int] = None
    #: Storage block id (shuffle bucket id), for buffer-cache hits.
    block_id: Optional[str] = None


@dataclass(slots=True)
class TaskWork:
    """Everything a task will do, computed up front.

    The engines replay this work against simulated hardware: the input
    bytes come from ``inputs``, the CPU seconds from the ``*_s`` fields,
    and the output bytes from ``output_stored_bytes`` /
    ``shuffle_buckets``.
    """

    descriptor: TaskDescriptor
    inputs: List[ResolvedInput]
    input_partition: Partition
    deserialize_s: float
    op_s: float
    serialize_s: float
    output_partition: Partition
    #: Bytes written to disk or sent to the driver (post-compression).
    output_stored_bytes: float
    #: reduce_index -> bucket partition, for shuffle outputs.
    shuffle_buckets: Optional[Dict[int, Partition]] = None
    #: Partition snapshot to cache, if the descriptor asks for one.
    cache_partition: Optional[Partition] = None
    #: Attempt span context ("repro.trace.spans.TraceContext"); set by
    #: the engine so monotasks can parent their leaf spans under it.
    trace: Optional[Any] = None

    @property
    def total_cpu_s(self) -> float:
        """Deserialize + operators + serialize seconds."""
        return self.deserialize_s + self.op_s + self.serialize_s

    @property
    def input_stored_bytes(self) -> float:
        """Bytes that must move from storage or the network."""
        return sum(source.stored_bytes for source in self.inputs)


def _merge_inputs(descriptor: TaskDescriptor,
                  inputs: List[ResolvedInput]) -> Partition:
    """Concatenate resolved inputs.

    Cogroup side tags are applied by the *map side* (the DAG scheduler
    appends a tag operator to each parent's map chain), so shuffle
    buckets arrive already tagged and are merged verbatim here.
    """
    return Partition.merge([source.partition for source in inputs])


def compute_task_work(descriptor: TaskDescriptor,
                      inputs: List[ResolvedInput],
                      cost: CostModel) -> TaskWork:
    """Run the task's logic eagerly and price its CPU phases."""
    input_partition = _merge_inputs(descriptor, inputs)

    deserialize_s = sum(
        deserialize_seconds(source.partition, source.fmt, cost)
        for source in inputs)

    cache_partition: Optional[Partition] = None
    if descriptor.cache is not None:
        split = descriptor.cache.after_ops
        prefix, prefix_s = run_chain(input_partition,
                                     descriptor.chain[:split])
        cache_partition = prefix
        output_partition, suffix_s = run_chain(prefix,
                                               descriptor.chain[split:])
        op_s = prefix_s + suffix_s
    else:
        output_partition, op_s = run_chain(input_partition, descriptor.chain)

    output = descriptor.output
    shuffle_buckets: Optional[Dict[int, Partition]] = None
    if isinstance(output, ShuffleOutput):
        serialize_s = serialize_seconds(output_partition, output.fmt, cost)
        shuffle_buckets = output_partition.shuffle_buckets(
            output.partitioner.split(output_partition.records))
        output_stored_bytes = output.fmt.stored_bytes(
            output_partition.data_bytes)
    elif isinstance(output, DfsOutput):
        serialize_s = serialize_seconds(output_partition, output.fmt, cost)
        output_stored_bytes = output.fmt.stored_bytes(
            output_partition.data_bytes)
    elif isinstance(output, CollectOutput):
        if output.count_only:
            serialize_s = 0.0
            output_stored_bytes = 0.0
        else:
            serialize_s = serialize_seconds(output_partition, PLAIN, cost)
            output_stored_bytes = output_partition.data_bytes
    else:
        raise ExecutionError(f"unknown output spec: {output!r}")

    return TaskWork(
        descriptor=descriptor,
        inputs=inputs,
        input_partition=input_partition,
        deserialize_s=deserialize_s,
        op_s=op_s,
        serialize_s=serialize_s,
        output_partition=output_partition,
        output_stored_bytes=output_stored_bytes,
        shuffle_buckets=shuffle_buckets,
        cache_partition=cache_partition,
    )
