"""Critical-path extraction and attribution over a job's span tree.

The question the paper's §3 promises an answer to: *which causal chain
of waits and work determined this job's runtime, and on which
resource/machine?*  With monotask leaf spans the answer is computable:
every instant of the job's wall-clock window is covered by some
monotask's service time, by its wait in a per-resource scheduler queue
(``queue_s``), or by driver-side coordination between spans.  The
critical path is found with a backward walk: start at the job's end,
repeatedly jump to the start of the covering interval whose start is
latest (the *binding* one -- nothing that ends earlier could have been
the reason this instant was still busy), and attribute each traversed
segment to its (resource, machine, phase).

By construction the returned segments partition the job's window
exactly, so their durations sum to the job's wall-clock duration --
the invariant the tests pin.

The Spark engine's runs produce only blended attempt spans: the walk
still works, but every segment is labeled with the pseudo-resource
``task`` and the report says so (*not attributable*) instead of
pretending -- §6.6's contrast, executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.trace.spans import SPAN_ATTEMPT

__all__ = ["PathSegment", "CriticalPathReport", "critical_path"]

#: Segment kinds.
SERVICE = "service"
QUEUE = "queue"
DRIVER = "driver"

#: Pseudo-resource for blended Spark attempt spans and driver gaps.
TASK = "task"

#: Ignore intervals shorter than this when walking (guards against
#: zero-length spans stalling the backward walk).
_EPS = 1e-12


@dataclass(frozen=True)
class PathSegment:
    """One contiguous piece of the critical path."""

    start: float
    end: float
    kind: str  # SERVICE | QUEUE | DRIVER
    resource: str  # cpu/disk/network, "task" (blended), or "driver"
    machine_id: int  # -1 for driver segments
    phase: str  # monotask phase; "" for driver/blended segments
    span_id: int  # span the segment came from; -1 for driver gaps

    @property
    def duration(self) -> float:
        """Seconds this segment spans."""
        return self.end - self.start

    @property
    def label(self) -> str:
        """Human label: ``disk queue``, ``cpu``, ``driver``, ..."""
        if self.kind == DRIVER:
            return DRIVER
        if self.kind == QUEUE:
            return f"{self.resource} queue"
        return self.resource


class _Interval:
    """A candidate covering interval derived from one span.

    A plain ``__slots__`` class, not a dataclass: one is built per span
    per job on the always-on clarity path, and the precomputed
    ``sort_key`` (latest start wins; deterministic tie-breaks after
    that) is what the walk's max-heap orders by.
    """

    __slots__ = ("start", "end", "kind", "resource", "machine_id",
                 "phase", "span_id", "sort_key")

    def __init__(self, start: float, end: float, kind: str, resource: str,
                 machine_id: int, phase: str, span_id: int) -> None:
        self.start = start
        self.end = end
        self.kind = kind
        self.resource = resource
        self.machine_id = machine_id
        self.phase = phase
        self.span_id = span_id
        self.sort_key: Tuple = (start, kind == SERVICE, resource,
                                machine_id, phase, span_id)


class _MaxEntry:
    """Heap entry that inverts comparison, turning ``heapq``'s min-heap
    into a max-heap over ``_Interval.sort_key``."""

    __slots__ = ("key", "interval")

    def __init__(self, interval: _Interval) -> None:
        self.key = interval.sort_key
        self.interval = interval

    def __lt__(self, other: "_MaxEntry") -> bool:
        return self.key > other.key


class CriticalPathReport:
    """The critical path of one job plus attribution roll-ups."""

    def __init__(self, job_id: int, name: str, start: float, end: float,
                 segments: List[PathSegment], attributable: bool,
                 engine: str = "") -> None:
        self.job_id = job_id
        self.name = name
        self.start = start
        self.end = end
        #: Chronological (start -> end) partition of the job's window.
        self.segments = segments
        #: True when monotask leaf spans existed: per-resource clarity.
        self.attributable = attributable
        self.engine = engine

    @property
    def duration(self) -> float:
        """The job's wall-clock seconds."""
        return self.end - self.start

    @property
    def total_attributed(self) -> float:
        """Sum of segment durations (== :attr:`duration` by invariant)."""
        return sum(segment.duration for segment in self.segments)

    def by_label(self) -> Dict[str, float]:
        """Seconds per segment label (``disk queue``, ``cpu``, ...)."""
        totals: Dict[str, float] = {}
        for segment in self.segments:
            totals[segment.label] = (totals.get(segment.label, 0.0)
                                     + segment.duration)
        return totals

    def by_machine(self) -> Dict[int, float]:
        """Seconds per machine (driver segments under -1)."""
        totals: Dict[int, float] = {}
        for segment in self.segments:
            totals[segment.machine_id] = (
                totals.get(segment.machine_id, 0.0) + segment.duration)
        return totals

    def by_phase(self) -> Dict[str, float]:
        """Seconds per monotask phase (driver gaps under ``driver``)."""
        totals: Dict[str, float] = {}
        for segment in self.segments:
            phase = segment.phase or DRIVER
            totals[phase] = totals.get(phase, 0.0) + segment.duration
        return totals

    def fractions(self) -> Dict[str, float]:
        """Fraction of the critical path per label (sums to 1.0)."""
        duration = self.duration
        if duration <= 0:
            return {}
        return {label: seconds / duration
                for label, seconds in self.by_label().items()}

    def dominant(self) -> Tuple[str, int, float]:
        """(label, machine, seconds) of the single largest contributor."""
        totals: Dict[Tuple[str, int], float] = {}
        for segment in self.segments:
            key = (segment.label, segment.machine_id)
            totals[key] = totals.get(key, 0.0) + segment.duration
        (label, machine), seconds = max(
            totals.items(), key=lambda item: (item[1], item[0]))
        return label, machine, seconds

    def format(self) -> str:
        """A stable, human-readable attribution report."""
        lines = [
            f"critical path: job {self.job_id} ({self.name})"
            + (f" on {self.engine}" if self.engine else ""),
            f"  wall-clock: {self.duration:.3f}s in "
            f"{len(self.segments)} segments",
        ]
        if not self.attributable:
            lines.append(
                "  NOT ATTRIBUTABLE: this engine runs blended tasks that "
                "pipeline cpu, disk, and network internally; without "
                "per-resource monotask spans the path cannot be decomposed "
                "by resource (the paper's Section 3 / 6.6 contrast).")
        duration = self.duration if self.duration > 0 else 1.0
        by_label = sorted(self.by_label().items(),
                          key=lambda item: (-item[1], item[0]))
        lines.append("  by resource:")
        for label, seconds in by_label:
            lines.append(f"    {label:<16} {seconds:>9.3f}s  "
                         f"{100.0 * seconds / duration:5.1f}%")
        lines.append("  by machine:")
        for machine, seconds in sorted(self.by_machine().items()):
            where = "driver" if machine < 0 else f"machine {machine}"
            lines.append(f"    {where:<16} {seconds:>9.3f}s  "
                         f"{100.0 * seconds / duration:5.1f}%")
        if self.attributable:
            lines.append("  by phase:")
            for phase, seconds in sorted(
                    self.by_phase().items(),
                    key=lambda item: (-item[1], item[0])):
                lines.append(f"    {phase:<16} {seconds:>9.3f}s  "
                             f"{100.0 * seconds / duration:5.1f}%")
            label, machine, seconds = self.dominant()
            where = "driver" if machine < 0 else f"machine {machine}"
            lines.append(
                f"  dominant: {100.0 * seconds / duration:.1f}% of the "
                f"critical path is {label} on {where}")
        return "\n".join(lines)


def _intervals_for_job(metrics, job_id: int, lo: float,
                       hi: float) -> Tuple[List[_Interval], bool]:
    """Candidate covering intervals from a job's spans, clamped to the
    job window.  Returns (intervals, attributable).

    Monotask leaves come as plain tuples
    (:meth:`~repro.metrics.collector.MetricsCollector.monotask_leaves`),
    so a live job's rows are read without building their records.
    """
    leaves = metrics.monotask_leaves(job_id)
    attributable = bool(leaves)
    intervals: List[_Interval] = []

    def add(start: float, end: float, kind: str, resource: str,
            machine_id: int, phase: str, span_id: int) -> None:
        start, end = max(start, lo), min(end, hi)
        if end - start > _EPS:
            intervals.append(_Interval(start, end, kind, resource,
                                       machine_id, phase, span_id))

    if attributable:
        for start, end, resource, machine_id, phase, span_id, queue_s \
                in leaves:
            add(start, end, SERVICE, resource, machine_id, phase, span_id)
            if queue_s > _EPS:
                add(start - queue_s, start, QUEUE, resource, machine_id,
                    phase, span_id)
    else:
        # Blended-engine fallback: attempts are the finest grain.
        for span in metrics.spans_for_job(job_id):
            if span.kind == SPAN_ATTEMPT and span.finished:
                add(span.start, span.end, SERVICE, TASK,
                    span.machine_id, "", span.span_id)
    return intervals, attributable


def critical_path(metrics, job_id: int,
                  engine: str = "") -> CriticalPathReport:
    """Extract and attribute one finished job's critical path.

    ``metrics`` is a :class:`~repro.metrics.collector.MetricsCollector`;
    consumers read its cached copy (``critical_path_report``).
    """
    job = metrics.jobs.get(job_id)
    if job is None:
        raise SimulationError(
            f"critical path requested for unknown job id {job_id}; "
            f"known jobs: {sorted(metrics.jobs)}")
    if not (job.end == job.end):  # NaN: still running
        raise SimulationError(
            f"critical path requested for unfinished job {job_id}")
    lo, hi = job.start, job.end
    intervals, attributable = _intervals_for_job(metrics, job_id, lo, hi)

    # Backward walk: at each point t, the binding interval is the one
    # covering t whose start is latest; gaps no interval covers are
    # driver coordination.  Implemented as a sweep: both halves of the
    # covering test are monotone as t decreases (``end >= t - eps``
    # becomes true and stays true; ``start < t - eps`` becomes false and
    # stays false), so intervals enter a max-heap over ``sort_key`` as t
    # passes their end and are lazily discarded once their start can no
    # longer precede t.  Each interval is pushed and popped at most
    # once -- O(n log n) -- and because ``sort_key`` leads with
    # ``start``, the heap top after discarding is exactly the interval
    # the old per-step ``max(covering)`` rescan selected.
    by_end = sorted(intervals, key=lambda iv: iv.end, reverse=True)
    pending: List[_MaxEntry] = []
    next_in = 0
    total = len(by_end)
    segments: List[PathSegment] = []
    t = hi
    while t - lo > _EPS:
        while next_in < total and by_end[next_in].end >= t - _EPS:
            heappush(pending, _MaxEntry(by_end[next_in]))
            next_in += 1
        while pending and pending[0].interval.start >= t - _EPS:
            heappop(pending)
        if pending:
            binding = pending[0].interval
            cut = max(binding.start, lo)
            segments.append(PathSegment(
                start=cut, end=t, kind=binding.kind,
                resource=binding.resource, machine_id=binding.machine_id,
                phase=binding.phase, span_id=binding.span_id))
            t = cut
            continue
        # Driver gap.  Everything ending at-or-after t has been
        # inserted, so the next uninserted interval (if any) holds the
        # latest end before t.
        cut = max(by_end[next_in].end, lo) if next_in < total else lo
        segments.append(PathSegment(
            start=cut, end=t, kind=DRIVER, resource=DRIVER,
            machine_id=-1, phase="", span_id=-1))
        t = cut
    segments.reverse()

    # Make the partition exact: abutting segments already share
    # endpoints, and the first/last are clamped to the job window.
    return CriticalPathReport(job_id=job_id, name=job.name, start=lo,
                              end=hi, segments=segments,
                              attributable=attributable, engine=engine)
