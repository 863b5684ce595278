"""In-memory storage of cached RDD partitions (Spark's block manager).

Cached partitions live in the memory of the machine that computed them;
later jobs read them locally with no disk, network, or deserialization
cost (when cached deserialized).  This is the mechanism behind the
paper's "input stored in-memory and deserialized" experiments (§6.3,
Figure 13).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.datamodel.records import Partition
from repro.datamodel.serialization import DataFormat
from repro.errors import ExecutionError
from repro.metrics.events import FaultEventRecord

__all__ = ["BlockManager"]


class BlockManager:
    """Cluster-wide map of cached RDD partitions."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._blocks: Dict[Tuple[int, int],
                           Tuple[int, Partition, DataFormat]] = {}
        #: Optional MetricsCollector (attached by the engine): machine
        #: invalidations are recorded as fault events so cache loss is
        #: attributable in the clarity pipeline instead of silent.
        self.metrics = None
        #: Cumulative loss counters, exposed as telemetry by the engine.
        self.invalidated_partitions = 0
        self.invalidated_bytes = 0.0

    def has(self, rdd_id: int, partition_index: int) -> bool:
        """True if the partition is cached somewhere."""
        return (rdd_id, partition_index) in self._blocks

    def location(self, rdd_id: int, partition_index: int) -> Optional[int]:
        """Machine holding the cached partition, or None."""
        entry = self._blocks.get((rdd_id, partition_index))
        return entry[0] if entry else None

    def get(self, rdd_id: int,
            partition_index: int) -> Tuple[int, Partition, DataFormat]:
        """The cached (machine, partition, format); raises if absent."""
        entry = self._blocks.get((rdd_id, partition_index))
        if entry is None:
            raise ExecutionError(
                f"partition {partition_index} of RDD {rdd_id} is not cached")
        return entry

    def put(self, rdd_id: int, partition_index: int, machine_id: int,
            partition: Partition, fmt: DataFormat) -> None:
        """Cache a partition on a machine, accounting its memory."""
        key = (rdd_id, partition_index)
        old = self._blocks.get(key)
        machine = self.cluster.machine(machine_id)
        if old is not None:
            self.cluster.machine(old[0]).memory.release(old[1].data_bytes)
        machine.memory.acquire(partition.data_bytes)
        self._blocks[key] = (machine_id, partition, fmt)

    def invalidate_machine(self, machine_id: int) -> int:
        """Drop every partition cached on a crashed machine.

        The memory accounting is released (the machine restarts with an
        empty heap); returns the number of partitions lost.  Lost cached
        partitions are *not* recomputed automatically -- a later read
        fails, like Spark with an unreplicated cache and no lineage
        checkpoint.
        """
        keys = [key for key, (machine, _, _) in self._blocks.items()
                if machine == machine_id]
        lost_bytes = 0.0
        for key in keys:
            _, partition, _ = self._blocks.pop(key)
            lost_bytes += partition.data_bytes
            self.cluster.machine(machine_id).memory.release(
                partition.data_bytes)
        if keys:
            self.invalidated_partitions += len(keys)
            self.invalidated_bytes += lost_bytes
            if self.metrics is not None:
                # Attributable cache loss: lands in the fault event
                # stream (and the trace) instead of vanishing silently.
                self.metrics.record_event(FaultEventRecord(
                    kind="cache-invalidation", machine_id=machine_id,
                    at=self.cluster.env.now,
                    detail=f"{len(keys)} cached partitions "
                           f"({lost_bytes:.0f} bytes) lost"))
        return len(keys)

    def evict_rdd(self, rdd_id: int) -> int:
        """Drop every cached partition of an RDD; returns count evicted."""
        keys = [key for key in self._blocks if key[0] == rdd_id]
        for key in keys:
            machine_id, partition, _ = self._blocks.pop(key)
            self.cluster.machine(machine_id).memory.release(
                partition.data_bytes)
        return len(keys)

    def cached_bytes(self) -> float:
        """Total bytes cached cluster-wide."""
        return sum(partition.data_bytes
                   for _, partition, _ in self._blocks.values())
