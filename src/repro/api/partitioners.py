"""Partitioners: how shuffle writers route records to reduce partitions."""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Sequence

from repro.errors import PlanError

__all__ = ["Partitioner", "HashPartitioner", "RangePartitioner"]


class Partitioner(ABC):
    """Maps a ``(key, value)`` record to a reduce partition index."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise PlanError(f"need >= 1 partition: {num_partitions}")
        self.num_partitions = num_partitions

    @abstractmethod
    def partition(self, record: Any) -> int:
        """Reduce partition for one record."""

    def split(self, records: Sequence[Any]) -> List[List[Any]]:
        """Bucket records by reduce partition."""
        buckets: List[List[Any]] = [[] for _ in range(self.num_partitions)]
        for record in records:
            buckets[self.partition(record)].append(record)
        return buckets


class HashPartitioner(Partitioner):
    """Spark's default: hash of the record key, modulo partitions.

    Python's string hashing is randomized per process; a deterministic
    polynomial hash keeps simulations reproducible across runs.
    """

    def partition(self, record: Any) -> int:
        key = record[0] if isinstance(record, tuple) else record
        return self._stable_hash(key) % self.num_partitions

    @staticmethod
    def _stable_hash(key: Any) -> int:
        if isinstance(key, str):
            value = 0
            for char in key:
                value = (value * 31 + ord(char)) & 0x7FFFFFFF
            return value
        if isinstance(key, bool):
            return int(key)
        if isinstance(key, int):
            return key & 0x7FFFFFFF
        if isinstance(key, float):
            return int(key * 2654435761) & 0x7FFFFFFF
        if isinstance(key, tuple):
            value = 0
            for item in key:
                value = (value * 31 + HashPartitioner._stable_hash(item)
                         ) & 0x7FFFFFFF
            return value
        return abs(hash(key)) & 0x7FFFFFFF


class RangePartitioner(Partitioner):
    """Routes by sorted key ranges, as Spark's ``sortByKey`` does.

    ``boundaries`` are the ``num_partitions - 1`` split points: a record
    with key <= boundaries[i] lands in the first partition whose boundary
    bounds it.
    """

    def __init__(self, boundaries: Sequence[Any],
                 key_fn: Callable[[Any], Any] = lambda r: r[0]) -> None:
        super().__init__(len(boundaries) + 1)
        self.boundaries = list(boundaries)
        if self.boundaries != sorted(self.boundaries):
            raise PlanError("range boundaries must be sorted")
        self.key_fn = key_fn

    def partition(self, record: Any) -> int:
        # Binary search over the sorted boundaries: the first one that is
        # >= key bounds the record (keys need only be orderable).
        return bisect.bisect_left(self.boundaries, self.key_fn(record))

    @classmethod
    def from_sample(cls, sample_keys: Sequence[Any], num_partitions: int,
                    key_fn: Callable[[Any], Any] = lambda r: r[0]
                    ) -> "RangePartitioner":
        """Choose balanced boundaries from a key sample (Spark samples the
        input with a lightweight pre-pass job; we sample at plan time)."""
        if num_partitions < 1:
            raise PlanError(f"need >= 1 partition: {num_partitions}")
        if num_partitions == 1:
            return cls([], key_fn=key_fn)
        ordered = sorted(sample_keys)
        if not ordered:
            raise PlanError("cannot derive range boundaries from an empty "
                            "sample; pass explicit boundaries")
        boundaries = []
        for i in range(1, num_partitions):
            index = min(len(ordered) - 1, i * len(ordered) // num_partitions)
            boundaries.append(ordered[index])
        return cls(boundaries, key_fn=key_fn)
