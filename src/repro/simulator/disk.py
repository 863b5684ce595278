"""Disk models.

Two device behaviours matter to the paper:

* **HDD**: a single head.  One sequential stream runs at full throughput
  after one seek; concurrent streams are interleaved at a fixed chunk
  granularity and pay a seek on every stream switch, which roughly halves
  effective throughput under the fine-grained concurrent access pattern
  of Spark tasks (§5.4).  Implemented as a chunked round-robin server.

* **SSD**: an internally parallel device.  A single stream cannot
  saturate it; aggregate throughput scales with the number of concurrent
  requests up to ``max_concurrency`` (the paper found four outstanding
  monotasks reach near-maximum throughput, §3.3).  Implemented as a
  rate-shared server with a per-stream cap.

Both expose ``submit(nbytes, kind) -> Event`` and a :class:`BusyTracker`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

from repro.config import DiskSpec
from repro.errors import DiskFailure, Interrupted, SimulationError
from repro.simulator.core import Environment, Event, Process
from repro.simulator.resources import BusyTracker

__all__ = ["Disk", "DiskRequest"]

#: Extra seek multiplier when the head alternates between read and
#: write streams (anticipatory scheduling loss, write settling).
READ_WRITE_SWITCH_FACTOR = 4.0


class DiskRequest:
    """One outstanding read or write of ``nbytes`` contiguous bytes."""

    __slots__ = ("nbytes", "remaining", "kind", "done", "submitted_at",
                 "started_at", "rate", "label")

    def __init__(self, env: Environment, nbytes: float, kind: str,
                 label: str = "") -> None:
        if nbytes < 0:
            raise SimulationError(f"negative request size: {nbytes}")
        if kind not in ("read", "write"):
            raise SimulationError(f"unknown request kind: {kind}")
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.kind = kind
        self.label = label
        #: Succeeds with no value: a value of ``self`` would make the
        #: request and its event a cycle only the cyclic collector frees.
        self.done: Event = env.event()
        self.submitted_at = env.now
        self.started_at: Optional[float] = None
        self.rate = 0.0  # SSD mode only


class Disk:
    """A single physical disk on one machine."""

    def __init__(self, env: Environment, spec: DiskSpec, name: str = "disk") -> None:
        self.env = env
        self.spec = spec
        #: Pristine spec kept so injected degradation can be undone.
        self.base_spec = spec
        self.name = name
        #: True after a fault; submissions fail until the disk is revived.
        self.dead = False
        self.tracker = BusyTracker(env, spec.max_concurrency, name)
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.seeks = 0
        # The completion log -- machine-level observation used by the
        # Spark-based models (§6.6) -- as columns, one entry per finished
        # request in completion (so time) order: time, bytes, and 1 for
        # a write, 0 for a read.
        self._log_times = array("d")
        self._log_bytes = array("d")
        self._log_writes = bytearray()
        if spec.max_concurrency == 1:
            self._queue: Deque[DiskRequest] = deque()
            self._server_active = False
            self._server: Optional[Process] = None
            self._current: Optional[DiskRequest] = None
            #: True while the server is inside a multi-chunk batch that a
            #: new arrival should preempt at the next chunk boundary.
            self._batch_preemptible = False
        else:
            self._active: List[DiskRequest] = []
            self._waiter: Optional[Process] = None
            self._wake_at = float("inf")

    # -- public API ----------------------------------------------------------

    @property
    def transfer_log(self) -> List[Tuple[float, float, str]]:
        """``(completion time, bytes, kind)`` per finished request, in
        completion order: a list built from the log's columns."""
        return [(when, nbytes, "write" if write else "read")
                for when, nbytes, write in zip(
                    self._log_times, self._log_bytes, self._log_writes)]

    def completed_bytes(self, start: float, end: float) -> array:
        """Bytes of each request that finished in ``[start, end]``, in
        completion order."""
        if not start <= end:
            return array("d")
        times = self._log_times
        return self._log_bytes[bisect_left(times, start):
                               bisect_right(times, end)]

    def _log(self, request: DiskRequest) -> None:
        self._log_times.append(self.env.now)
        self._log_bytes.append(request.nbytes)
        self._log_writes.append(request.kind == "write")

    @property
    def is_hdd(self) -> bool:
        """True for single-head (spinning) devices."""
        return self.spec.max_concurrency == 1

    def submit(self, nbytes: float, kind: str, label: str = "") -> Event:
        """Start a request; the returned event fires when it completes."""
        request = DiskRequest(self.env, nbytes, kind, label)
        if self.dead:
            request.done.fail(DiskFailure(f"{self.name} is dead"))
            return request.done
        if kind == "read":
            self.bytes_read += request.nbytes
        else:
            self.bytes_written += request.nbytes
        if request.nbytes == 0:
            request.done.succeed()
            return request.done
        if self.is_hdd:
            self._queue.append(request)
            if not self._server_active:
                self._server_active = True
                self._server = self.env.process(self._serve_hdd())
            elif self._batch_preemptible:
                # The server is deep in a lone request's batched
                # transfer: cut it short at the next chunk boundary so
                # the new arrival gets its round-robin turn.
                self._batch_preemptible = False
                self._server.interrupt(cause="new-request")
        else:
            self._admit_ssd(request)
        return request.done

    def fail_all(self) -> int:
        """Fail every outstanding request (fault injection).

        Marks the disk dead; call :meth:`revive` to accept new requests
        again.  Returns the number of requests killed.
        """
        self.dead = True
        if self.is_hdd:
            victims = list(self._queue)
            self._queue.clear()
            if self._current is not None:
                victims.append(self._current)
                self._current = None
            if self._server is not None and self._server.is_alive:
                self._server.interrupt(cause="disk-failed")
        else:
            victims = list(self._active)
            self._active.clear()
            self.tracker.set_busy(0)
            # The SSD waiter exits on its own when it wakes to no work.
        for request in victims:
            request.done.fail(DiskFailure(
                f"{self.name} failed with {request.kind} outstanding"))
        return len(victims)

    def revive(self) -> None:
        """Bring a failed disk back (empty, at its original speed)."""
        self.dead = False
        self.spec = self.base_spec

    def read(self, nbytes: float, label: str = "") -> Event:
        """Submit a read request."""
        return self.submit(nbytes, "read", label)

    def write(self, nbytes: float, label: str = "") -> Event:
        """Submit a write request."""
        return self.submit(nbytes, "write", label)

    def time_to_serve(self, nbytes: float) -> float:
        """Uncontended sequential service time: one seek plus transfer."""
        return self.spec.seek_time_s + nbytes / self.spec.throughput_bps

    @property
    def queue_length(self) -> int:
        """Requests outstanding (queued plus in service)."""
        if self.is_hdd:
            return len(self._queue) + (1 if self._server_active else 0)
        return len(self._active)

    # -- HDD: chunked round-robin server --------------------------------------

    def _serve_hdd(self) -> Generator:
        spec = self.spec
        last: Optional[DiskRequest] = None
        self.tracker.set_busy(1)
        try:
            while self._queue:
                request = self._queue.popleft()
                self._current = request
                if request.started_at is None:
                    request.started_at = self.env.now
                # A seek is paid when the head moves: at the start of a new
                # request, or when switching between interleaved streams.
                # Alternating between reads and writes is costlier still
                # (head repositioning plus write-settling), which is what
                # makes Spark's mixed map-stage I/O so expensive (§5.4).
                if request is not last:
                    penalty = spec.seek_time_s
                    if last is not None and request.kind != last.kind:
                        penalty *= READ_WRITE_SWITCH_FACTOR
                    self.seeks += 1
                else:
                    penalty = 0.0
                chunk_s = spec.interleave_bytes / spec.throughput_bps
                if self._queue:
                    # Contended: one interleave chunk, then rotate.
                    batch = min(spec.interleave_bytes, request.remaining)
                    nchunks = 1
                else:
                    # Lone request: serve every remaining chunk under a
                    # single timeout -- O(1) kernel events instead of
                    # O(chunks) -- and let a new arrival preempt at the
                    # next chunk boundary (below), which is exactly where
                    # the per-chunk loop would have rotated streams.
                    batch = request.remaining
                    nchunks = int(-(-batch // spec.interleave_bytes))
                served = batch
                self._batch_preemptible = nchunks > 1
                begin = self.env.now
                try:
                    yield self.env.timeout(
                        penalty + batch / spec.throughput_bps)
                except Interrupted as exc:
                    if exc.cause != "new-request":
                        raise
                    # Preempted mid-batch: bank the chunks fully served,
                    # then finish the chunk in flight at its boundary.
                    elapsed = self.env.now - begin
                    full = (int((elapsed - penalty) / chunk_s)
                            if elapsed > penalty else 0)
                    full = max(0, min(full, nchunks - 1))
                    served = min((full + 1) * spec.interleave_bytes, batch)
                    residual = (penalty + served / spec.throughput_bps
                                - elapsed)
                    if residual > 0:
                        yield self.env.timeout(residual)
                finally:
                    self._batch_preemptible = False
                request.remaining -= served
                self._current = None
                if request.remaining > 1e-9:
                    self._queue.append(request)
                    last = request
                else:
                    request.remaining = 0.0
                    last = request
                    self._log(request)
                    request.done.succeed()
        except Interrupted:
            pass  # Disk failed mid-service; fail_all() settles the queue.
        finally:
            self._current = None
            self._server_active = False
            self._batch_preemptible = False
            self.tracker.set_busy(0)

    # -- SSD: rate-shared server ----------------------------------------------

    def _admit_ssd(self, request: DiskRequest) -> None:
        request.started_at = self.env.now
        self._active.append(request)
        self._recompute_ssd()

    def _ssd_rate_per_request(self, n: int) -> float:
        """Per-request service rate with ``n`` concurrent requests.

        Each stream is capped at ``throughput / max_concurrency``; with
        more than ``max_concurrency`` streams the full device rate is
        shared evenly.
        """
        spec = self.spec
        if n <= 0:
            return 0.0
        per_stream_cap = spec.throughput_bps / spec.max_concurrency
        return min(per_stream_cap, spec.throughput_bps / n)

    def _recompute_ssd(self) -> None:
        """Re-shard device bandwidth and re-aim the completion waiter."""
        now = self.env.now
        for request in self._active:
            # Progress accrued since the last recompute at the old rate.
            if request.rate > 0:
                elapsed = now - request.started_at
                request.remaining = max(
                    0.0, request.remaining - request.rate * elapsed)
            request.started_at = now
        n = len(self._active)
        rate = self._ssd_rate_per_request(n)
        for request in self._active:
            request.rate = rate
        self.tracker.set_busy(min(n, self.spec.max_concurrency))
        self._arm_ssd()

    def _ssd_next_deadline(self) -> float:
        soonest = min(self._active, key=lambda r: r.remaining)
        rate = max(soonest.rate, 1e-12)
        return (self.env.now + self.spec.seek_time_s
                + soonest.remaining / rate)

    def _arm_ssd(self) -> None:
        """One persistent waiter, re-aimed like the network's: interrupt
        only when the deadline moved earlier, discover later deadlines on
        wakeup.  Request churn leaves no superseded events in the heap."""
        if not self._active:
            self._wake_at = float("inf")
            return
        wake_at = self._ssd_next_deadline()
        if self._waiter is None or not self._waiter.is_alive:
            self._wake_at = wake_at
            self._waiter = self.env.process(self._ssd_completion_loop())
        elif wake_at < self._wake_at:
            self._wake_at = wake_at
            self._waiter.interrupt(cause="rearm")

    def _ssd_completion_loop(self) -> Generator:
        while self._active:
            delay = self._wake_at - self.env.now
            if delay > 0:
                try:
                    yield self.env.timeout(delay)
                except Interrupted:
                    continue  # Re-armed at an earlier deadline.
                if not self._active:
                    break  # All requests failed while we slept.
            now = self.env.now
            finished = []
            for request in self._active:
                progressed = request.rate * (now - request.started_at)
                if request.remaining - progressed <= 1e-9:
                    request.remaining = 0.0
                    finished.append(request)
            if not finished:
                # Rates dropped since arming (new requests admitted):
                # this wakeup is early.  Bank progress and sleep again.
                for request in self._active:
                    if request.rate > 0:
                        request.remaining = max(
                            0.0,
                            request.remaining
                            - request.rate * (now - request.started_at))
                    request.started_at = now
                self._wake_at = self._ssd_next_deadline()
                continue
            for request in finished:
                self._active.remove(request)
            self._recompute_ssd()
            for request in finished:
                self._log(request)
                request.done.succeed()
