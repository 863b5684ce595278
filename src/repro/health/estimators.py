"""Online per-machine rate estimators: where clarity pays off.

Both engines feed the same monitor, but what they can *observe*
differs, and that difference is the paper's §6.6 contrast played out
online:

* :class:`MonotaskRateEstimator` (MonoSpark) -- every monotask is a
  single-resource operation that reports its own duration, so CPU speed
  (priced seconds per wall second) and disk bandwidth are per-machine
  observables.  For the network it goes one grain finer: the fetch
  monotask times each remote machine's response flow separately
  (:class:`~repro.metrics.events.TransferRecord`), so a slow flow is
  attributed to its *source* NIC as well as its destination -- a fail-
  slow uplink is pinned on the machine that owns it, not on every
  reducer that fetched from it.

* :class:`TaskEwmaEstimator` (Spark) -- tasks use several resources
  behind the OS's back, so all the baseline can measure is task
  wall-clock.  It keeps one blended ``"task"`` rate per machine, which
  both under-detects (a slow NIC is diluted by compute time) and
  misattributes (a reducer on a *healthy* machine fetching from the
  slow one looks slow itself).

Estimators consume what the metrics collector records -- MonoSpark's
record streams and Spark's finished attempt spans, through cursors --
folding each tick's new observations as a batch mean into a
per-``(machine, resource)`` EWMA whose new-observation weight is the
fixed constant :data:`EWMA_ALPHA`.  Batch means make the estimate
insensitive to completion order within a tick (slow flows finish last;
a raw per-record EWMA would let one straggling flow swamp a healthy
machine's estimate).  Everything is a deterministic function of the
record streams.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.metrics.collector import MetricsCollector
from repro.metrics.events import CPU, DISK, NETWORK

__all__ = ["MonotaskRateEstimator", "TaskEwmaEstimator", "TASK"]

#: The Spark estimator's only "resource": blended task wall-clock.
TASK = "task"

#: EWMA weight of each tick's batch mean in a rate estimate.
EWMA_ALPHA = 0.5


class _RateTable:
    """Batch-mean EWMA rates keyed by (machine, resource)."""

    def __init__(self) -> None:
        self._rates: Dict[Tuple[int, str], float] = {}
        self._counts: Dict[Tuple[int, str], int] = {}
        self._batch: Dict[Tuple[int, str], Tuple[float, int]] = {}

    def observe(self, machine_id: int, resource: str, rate: float) -> None:
        """Add one observation to the current batch."""
        key = (machine_id, resource)
        total, count = self._batch.get(key, (0.0, 0))
        self._batch[key] = (total + rate, count + 1)

    def flush(self) -> None:
        """Fold the batch means into the EWMAs (one tick's worth)."""
        for key in sorted(self._batch):
            total, count = self._batch[key]
            mean = total / count
            old = self._rates.get(key)
            self._rates[key] = mean if old is None else \
                (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * mean
            self._counts[key] = self._counts.get(key, 0) + count
        self._batch.clear()

    def rate(self, machine_id: int, resource: str) -> float:
        return self._rates.get((machine_id, resource), float("nan"))

    def count(self, machine_id: int, resource: str) -> int:
        return self._counts.get((machine_id, resource), 0)

    def machine_count(self, machine_id: int) -> int:
        return sum(n for (m, _), n in self._counts.items()
                   if m == machine_id)


class _StreamCursor:
    """Consumes an append-only stream of finished records in order.

    Every stream it reads is appended to when a record finishes, so
    consumption is a deterministic function of the stream.
    """

    def __init__(self) -> None:
        self._next = 0

    def finished(self, stream: list) -> list:
        records = stream[self._next:]
        self._next = len(stream)
        return records


class MonotaskRateEstimator:
    """Per-resource rates from MonoSpark's self-reported telemetry."""

    resources = (CPU, DISK, NETWORK)
    name = "monotask-rates"

    def __init__(self, metrics: MetricsCollector) -> None:
        self.metrics = metrics
        self.table = _RateTable()
        #: The first monotask row the next update folds.
        self._next_row = 0
        self._transfers = _StreamCursor()

    def update(self) -> None:
        """Fold newly finished monotasks and transfers into the table.

        Monotask reports are read from the collector's columns, rows
        past the last update in record order.
        """
        rows = self.metrics.monotask_table
        first, self._next_row = self._next_row, len(rows)
        for (_, resource, _, machine_id, start, end, _, nbytes,
             deserialize_s, op_s, serialize_s) in rows.scan(
                range(first, self._next_row)):
            duration = end - start
            if duration <= 0:
                continue
            if resource == CPU:
                priced = deserialize_s + op_s + serialize_s
                if priced > 0:
                    self.table.observe(machine_id, CPU,
                                       min(1.0, priced / duration))
            elif resource == DISK and nbytes > 0:
                self.table.observe(machine_id, DISK, nbytes / duration)
            # NETWORK monotasks span several source machines; the
            # per-source TransferRecords below carry the attribution.
        for record in self._transfers.finished(self.metrics.transfers):
            duration = record.duration
            if duration <= 0 or record.nbytes <= 0:
                continue
            rate = record.nbytes / duration
            self.table.observe(record.src_machine_id, NETWORK, rate)
            self.table.observe(record.dst_machine_id, NETWORK, rate)
        self.table.flush()

    def observation_count(self, machine_id: int) -> int:
        """Observations folded for one machine (freshness signal)."""
        return self.table.machine_count(machine_id)


class TaskEwmaEstimator:
    """Blended task-level rate: all the Spark baseline can see.

    Rate is 1 / attempt wall-clock, per machine.  Heterogeneous task sizes
    make it noisy, and because a Spark task's time includes fetching
    from *other* machines, a fail-slow NIC inflates task durations
    cluster-wide -- the estimator cannot say which machine is sick,
    only that something is slow (and it says so as resource
    ``"task"``).
    """

    resources = (TASK,)
    name = "task-ewma"

    def __init__(self, metrics: MetricsCollector) -> None:
        self.metrics = metrics
        self.table = _RateTable()
        self._attempts = _StreamCursor()
        # Only attempts that finish from now on are observed.
        self._attempts.finished(metrics.attempts)

    def update(self) -> None:
        """Fold newly finished task attempts into the table.

        Attempts finish in any order; they are folded in the order they
        were dispatched (span ids are minted at dispatch), so each
        machine's batch sums its rates in a fixed order.
        """
        finished = self._attempts.finished(self.metrics.attempts)
        for span in sorted(finished, key=lambda span: span.span_id):
            duration = span.end - span.start
            if duration <= 0:
                continue
            self.table.observe(span.machine_id, TASK, 1.0 / duration)
        self.table.flush()

    def observation_count(self, machine_id: int) -> int:
        """Observations folded for one machine (freshness signal)."""
        return self.table.machine_count(machine_id)
