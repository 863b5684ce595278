"""The partition data model: real records with modeled sizes.

Experiments in the paper move hundreds of gigabytes; a Python process
cannot hold that many live objects, and does not need to.  Every
:class:`Partition` therefore carries:

* ``records`` -- the *real* payload.  Transformations genuinely execute
  (word count counts, sort sorts, join joins), so the engines are testable
  for correctness, not just for timing.
* ``record_count`` -- the *modeled* number of records this partition
  stands for.  When a workload scales down (e.g. representing a 600 GB
  sort with a few hundred real records per partition), ``record_count``
  preserves the true cardinality for CPU cost accounting.
* ``data_bytes`` -- the *modeled* serialized size, which drives disk and
  network time.

When an operator transforms real records, the modeled quantities scale by
the observed real ratios (or by ratios the operator declares explicitly;
see :mod:`repro.api.ops`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import SimulationError

__all__ = ["Partition", "estimate_record_bytes"]


def estimate_record_bytes(record: Any) -> float:
    """A deterministic, portable estimate of a record's serialized size.

    Used as the default sizer when a workload does not declare one:
    numbers are 8 bytes, strings their length, containers the sum of
    their elements plus small framing overhead.
    """
    if record is None:
        return 1.0
    if isinstance(record, bool):
        return 1.0
    if isinstance(record, (int, float)):
        return 8.0
    if isinstance(record, str):
        return float(len(record)) + 4.0
    if isinstance(record, bytes):
        return float(len(record)) + 4.0
    if isinstance(record, dict):
        return 8.0 + sum(estimate_record_bytes(k) + estimate_record_bytes(v)
                         for k, v in record.items())
    if isinstance(record, (list, tuple, set, frozenset)):
        return 8.0 + sum(estimate_record_bytes(item) for item in record)
    # Fallback for workload-specific objects that define their own weight.
    weight = getattr(record, "modeled_bytes", None)
    if weight is not None:
        return float(weight)
    return 64.0


@dataclass(slots=True)
class Partition:
    """One partition of a dataset."""

    records: List[Any] = field(default_factory=list)
    record_count: float = 0.0
    data_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.record_count < 0 or self.data_bytes < 0:
            raise SimulationError("modeled sizes must be non-negative")

    @classmethod
    def from_records(cls, records: Iterable[Any],
                     sizer: Callable[[Any], float] = estimate_record_bytes,
                     record_count: Optional[float] = None,
                     data_bytes: Optional[float] = None) -> "Partition":
        """Build a partition, measuring modeled sizes from the records
        unless explicit modeled values are supplied."""
        records = list(records)
        if record_count is None:
            record_count = float(len(records))
        if data_bytes is None:
            data_bytes = float(sum(sizer(r) for r in records))
        return cls(records=records, record_count=record_count,
                   data_bytes=data_bytes)

    @classmethod
    def empty(cls) -> "Partition":
        return cls(records=[], record_count=0.0, data_bytes=0.0)

    @property
    def scale(self) -> float:
        """Modeled records per real record (1.0 for unscaled data)."""
        if not self.records:
            return 1.0
        return self.record_count / len(self.records)

    @property
    def mean_record_bytes(self) -> float:
        """Modeled bytes per modeled record."""
        if self.record_count <= 0:
            return 0.0
        return self.data_bytes / self.record_count

    def with_records(self, records: Sequence[Any], record_count: float,
                     data_bytes: float) -> "Partition":
        """A copy with new records and modeled sizes."""
        return Partition(records=list(records),
                         record_count=max(0.0, record_count),
                         data_bytes=max(0.0, data_bytes))

    def split_proportionally(self, buckets: Sequence[List[Any]],
                             own_records: bool = False) -> List["Partition"]:
        """Split the modeled sizes across real-record buckets.

        Used by the shuffle writer: real records are hashed into buckets,
        and each bucket inherits a share of the modeled count/bytes
        proportional to its real record share.  Pass ``own_records=True``
        when the bucket lists are freshly built and may be adopted
        without copying (the shuffle writer's case: a partitioner's
        output is not reused).
        """
        total_real = sum(len(bucket) for bucket in buckets)
        parts = []
        for bucket in buckets:
            if total_real == 0:
                share = 1.0 / len(buckets) if buckets else 0.0
            else:
                share = len(bucket) / total_real
            parts.append(Partition(
                records=bucket if own_records else list(bucket),
                record_count=self.record_count * share,
                data_bytes=self.data_bytes * share))
        return parts

    def shuffle_buckets(self, buckets: Sequence[List[Any]]
                        ) -> Dict[int, "Partition"]:
        """``{index: part}`` of :meth:`split_proportionally` (records
        adopted), keeping only the parts with a record or a modeled
        record: what a shuffle writer keeps.

        When some bucket holds a real record, an empty bucket's share is
        zero, so only the non-empty buckets are built, with the same
        share expression.
        """
        total_real = sum(len(bucket) for bucket in buckets)
        if total_real == 0:
            return {index: part for index, part in enumerate(
                        self.split_proportionally(buckets, own_records=True))
                    if part.record_count > 0 or part.records}
        record_count, data_bytes = self.record_count, self.data_bytes
        parts = {}
        for index, bucket in enumerate(buckets):
            if bucket:
                share = len(bucket) / total_real
                parts[index] = Partition(records=bucket,
                                         record_count=record_count * share,
                                         data_bytes=data_bytes * share)
        return parts

    @staticmethod
    def merge(parts: Iterable["Partition"]) -> "Partition":
        """Concatenate partitions, summing their modeled sizes."""
        records: List[Any] = []
        record_count = 0.0
        data_bytes = 0.0
        for part in parts:
            records.extend(part.records)
            record_count += part.record_count
            data_bytes += part.data_bytes
        return Partition(records=records, record_count=record_count,
                         data_bytes=data_bytes)

    def __len__(self) -> int:
        return len(self.records)
