"""Shuffle bookkeeping shared by both engines.

The map side of a shuffle writes one bucket per reduce partition; the
reduce side must discover where every bucket lives.  A
:class:`MapOutputRegistry` plays the role of Spark's MapOutputTracker:
map tasks register their buckets (with location and storage medium), and
reduce tasks query the registry to plan fetches.

Buckets carry real records (for correctness) plus modeled bytes (for
simulated I/O time), like everything else in the data model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.datamodel.records import Partition
from repro.errors import ShuffleError

__all__ = ["ShuffleBucket", "MapOutputRegistry"]


@dataclass(slots=True)
class ShuffleBucket:
    """One (map task, reduce partition) bucket of shuffle data."""

    shuffle_id: int
    map_index: int
    reduce_index: int
    machine_id: int
    #: Disk the bucket was written to, or None if it lives in memory
    #: (the paper's ML workload stores shuffle data in-memory).
    disk_index: Optional[int]
    partition: Partition

    @property
    def nbytes(self) -> float:
        """Modeled bytes in the bucket."""
        return self.partition.data_bytes

    @property
    def block_id(self) -> str:
        """Storage id: shuffle, map task, and reduce partition."""
        return (f"shuffle{self.shuffle_id}"
                f"-m{self.map_index}-r{self.reduce_index}")

    @property
    def in_memory(self) -> bool:
        """True when the bucket was never written to disk."""
        return self.disk_index is None


class MapOutputRegistry:
    """Cluster-wide registry of where shuffle buckets live."""

    def __init__(self) -> None:
        #: shuffle_id -> reduce_index -> list of buckets (one per map task).
        self._buckets: Dict[int, Dict[int, List[ShuffleBucket]]] = {}
        #: shuffle_id -> map_index -> (machine_id, disk_index).  This is
        #: the lineage index: a machine crash invalidates entries here,
        #: and the engine re-executes exactly the missing map tasks.
        self._locations: Dict[int, Dict[int, Tuple[int, Optional[int]]]] = {}
        self._num_maps: Dict[int, int] = {}
        #: shuffle_id -> True once its reduce lists are map-index-sorted.
        self._sorted: Dict[int, bool] = {}

    def expect_maps(self, shuffle_id: int, num_maps: int) -> None:
        """Declare how many map tasks the shuffle has (for completeness
        checks when reduce tasks start fetching)."""
        self._num_maps[shuffle_id] = num_maps
        self._locations.setdefault(shuffle_id, {})
        self._buckets.setdefault(shuffle_id, {})

    def register_map_output(self, shuffle_id: int, map_index: int,
                            machine_id: int, disk_index: Optional[int],
                            buckets: Dict[int, Partition]) -> None:
        """Record every bucket a map task produced.

        Re-registering a map index (a re-executed or speculative map
        task) replaces the previous entry rather than duplicating it.
        """
        locations = self._locations.setdefault(shuffle_id, {})
        if map_index in locations:
            self._drop_map(shuffle_id, map_index)
        per_reduce = self._buckets.setdefault(shuffle_id, {})
        for reduce_index, partition in buckets.items():
            per_reduce.setdefault(reduce_index, []).append(ShuffleBucket(
                shuffle_id=shuffle_id, map_index=map_index,
                reduce_index=reduce_index, machine_id=machine_id,
                disk_index=disk_index, partition=partition))
        locations[map_index] = (machine_id, disk_index)
        self._sorted[shuffle_id] = False

    def buckets_for_reduce(self, shuffle_id: int,
                           reduce_index: int) -> List[ShuffleBucket]:
        """All buckets a reduce task must fetch, sorted by map index.

        Sorting is cached per reduce list: every reduce task of a stage
        queries the same lists, so re-sorting per query is paid once per
        registration instead.
        """
        if shuffle_id not in self._buckets:
            raise ShuffleError(f"unknown shuffle {shuffle_id}")
        expected = self._num_maps.get(shuffle_id)
        registered = len(self._locations.get(shuffle_id, {}))
        if expected is not None and registered < expected:
            raise ShuffleError(
                f"shuffle {shuffle_id}: only {registered}/{expected} map "
                f"outputs registered")
        buckets = self._buckets[shuffle_id].get(reduce_index)
        if buckets is None:
            return []
        if not self._sorted.get(shuffle_id, False):
            for per_reduce in self._buckets[shuffle_id].values():
                per_reduce.sort(key=lambda b: b.map_index)
            self._sorted[shuffle_id] = True
        return list(buckets)

    # -- lineage invalidation (fault recovery) ------------------------------

    def missing_maps(self, shuffle_id: int) -> List[int]:
        """Map indices whose output is currently unregistered."""
        expected = self._num_maps.get(shuffle_id)
        if expected is None:
            return []
        present = self._locations.get(shuffle_id, {})
        if len(present) >= expected:
            return []  # Complete: skip the per-index scan (hot path).
        return [index for index in range(expected) if index not in present]

    def invalidate_machine(self, machine_id: int) -> List[Tuple[int, int]]:
        """Drop every map output stored on a crashed machine.

        Returns the (shuffle_id, map_index) pairs lost, which become the
        lineage the engine must re-execute.
        """
        lost: List[Tuple[int, int]] = []
        for shuffle_id, locations in self._locations.items():
            for map_index, (machine, _disk) in list(locations.items()):
                if machine == machine_id:
                    self._drop_map(shuffle_id, map_index)
                    lost.append((shuffle_id, map_index))
        return lost

    def invalidate_disk(self, machine_id: int,
                        disk_index: int) -> List[Tuple[int, int]]:
        """Drop map outputs written to one failed disk (in-memory
        buckets on the machine survive)."""
        lost: List[Tuple[int, int]] = []
        for shuffle_id, locations in self._locations.items():
            for map_index, (machine, disk) in list(locations.items()):
                if machine == machine_id and disk == disk_index:
                    self._drop_map(shuffle_id, map_index)
                    lost.append((shuffle_id, map_index))
        return lost

    def invalidate_map(self, shuffle_id: int, map_index: int) -> bool:
        """Drop one map task's registered output (all replicas of its
        block were lost, e.g. in the data service).  Returns True when
        an entry existed; the engine's fetch-failed path then
        re-executes exactly this map from lineage."""
        locations = self._locations.get(shuffle_id)
        if locations is None or map_index not in locations:
            return False
        self._drop_map(shuffle_id, map_index)
        return True

    def drop_shuffles(self, shuffle_ids: Iterable[int]) -> None:
        """Forget the shuffles of an ended job.

        Shuffles are intra-job, so no reducer reads the buckets once the
        job is over.  The other shuffles keep their order, so later
        invalidations visit them as before.
        """
        for shuffle_id in shuffle_ids:
            self._buckets.pop(shuffle_id, None)
            self._locations.pop(shuffle_id, None)
            self._num_maps.pop(shuffle_id, None)
            self._sorted.pop(shuffle_id, None)

    def _drop_map(self, shuffle_id: int, map_index: int) -> None:
        self._locations[shuffle_id].pop(map_index, None)
        per_reduce = self._buckets.get(shuffle_id, {})
        for buckets in per_reduce.values():
            buckets[:] = [b for b in buckets if b.map_index != map_index]

    def total_shuffle_bytes(self, shuffle_id: int) -> float:
        """All registered bytes of one shuffle."""
        per_reduce = self._buckets.get(shuffle_id, {})
        return sum(bucket.nbytes
                   for buckets in per_reduce.values()
                   for bucket in buckets)

    def shuffle_ids(self) -> Iterator[int]:
        """Registered shuffle ids, ascending."""
        return iter(sorted(self._buckets))
