"""Online cluster-level bottleneck attribution over rolling windows.

The per-job pieces already exist -- critical-path attribution
(:mod:`repro.trace.critpath`) explains one finished job, and the ideal
model (:mod:`repro.model.ideal`) profiles its stages -- but an operator
of a serving cluster asks a different question: *which resource (and
which machine) is the cluster's bottleneck over the last N seconds?*

The :class:`ClarityAggregator` answers it continuously: as each job
completes (the :class:`~repro.serve.server.JobServer` calls
:meth:`observe_job`), the job's critical-path segments and stage
profiles, computed once and cached by the collector, are folded into a
bounded window of :class:`JobClarity` observations, and
:meth:`bottleneck` rolls the window up into per-resource and
per-machine critical-path fractions.

On MonoSpark the fractions decompose by real resources (cpu, disk,
disk queue, network, driver, ...).  On Spark's blended tasks the
aggregator keeps the accounting honest: the window is reported as
explicitly **not attributable** (the paper's §6.6 contrast) instead of
fabricating a per-resource split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ClarityError, ModelError
from repro.model.ideal import StageProfile

__all__ = ["JobClarity", "BottleneckWindow", "ClarityAggregator"]


@dataclass
class JobClarity:
    """One completed job's clarity observation.

    ``path_seconds`` and ``machine_seconds`` come straight from the
    job's critical path, so each sums to the job's wall-clock duration;
    ``profiles`` are the ideal-model stage profiles (empty when the
    engine's blended tasks admit none -- then ``attributable`` is
    False and only the blended totals are retained).
    """

    job_id: int
    name: str
    tenant: str
    engine: str
    start: float
    end: float
    attributable: bool
    #: Critical-path seconds per label ("cpu", "disk queue", ...).
    path_seconds: Dict[str, float] = field(default_factory=dict)
    #: Critical-path seconds per machine (-1 = driver).
    machine_seconds: Dict[int, float] = field(default_factory=dict)
    #: Ideal-model stage profiles (empty when not attributable).
    profiles: List[StageProfile] = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        """The job's wall-clock duration."""
        return self.end - self.start


@dataclass
class BottleneckWindow:
    """The rolling-window answer to "what is the cluster's bottleneck?"

    ``fractions`` are critical-path fractions per label across the
    window's attributable jobs: non-negative, and they sum to (at most)
    1 -- the invariant the property tests pin.  When the window holds
    only blended-engine jobs, ``attributable`` is False, the fractions
    are empty, and ``reason`` says why.
    """

    window_s: float
    now: float
    jobs: int
    attributable_jobs: int
    attributable: bool
    #: Critical-path fraction per label (empty when not attributable).
    fractions: Dict[str, float] = field(default_factory=dict)
    #: Critical-path fraction per machine (-1 = driver).
    machine_fractions: Dict[int, float] = field(default_factory=dict)
    #: Wall-clock seconds summed over the window's attributable jobs.
    attributed_seconds: float = 0.0
    reason: str = ""
    #: Control-plane utilization per driver shard: the fraction of the
    #: window each replica's sequential admission loop spent busy
    #: (empty when no sharded control plane reported in).
    shard_fractions: Dict[int, float] = field(default_factory=dict)

    @property
    def dominant(self) -> Optional[Tuple[str, float]]:
        """(label, fraction) of the largest contributor, if decomposed."""
        if not self.fractions:
            return None
        return max(self.fractions.items(),
                   key=lambda item: (item[1], item[0]))

    @property
    def dominant_shard(self) -> Optional[Tuple[int, float]]:
        """(driver, busy fraction) of the busiest control-plane shard."""
        if not self.shard_fractions:
            return None
        return max(self.shard_fractions.items(),
                   key=lambda item: (item[1], -item[0]))

    def format(self) -> str:
        """A stable, human-readable window summary."""
        header = (f"clarity window: last {self.window_s:g}s at "
                  f"t={self.now:.1f}s -- {self.jobs} jobs "
                  f"({self.attributable_jobs} attributable)")
        if self.jobs == 0:
            return self._with_shards(
                header + "\n  no jobs completed in the window")
        if not self.attributable:
            return self._with_shards(
                header + "\n  NOT ATTRIBUTABLE: " + self.reason)
        lines = [header, "  critical-path fraction by resource:"]
        for label, fraction in sorted(self.fractions.items(),
                                      key=lambda item: (-item[1], item[0])):
            lines.append(f"    {label:<16} {100.0 * fraction:5.1f}%")
        lines.append("  critical-path fraction by machine:")
        for machine, fraction in sorted(self.machine_fractions.items()):
            where = "driver" if machine < 0 else f"machine {machine}"
            lines.append(f"    {where:<16} {100.0 * fraction:5.1f}%")
        dominant = self.dominant
        if dominant is not None:
            label, fraction = dominant
            lines.append(f"  bottleneck: {label} "
                         f"({100.0 * fraction:.1f}% of the window's "
                         f"critical-path seconds)")
        return self._with_shards("\n".join(lines))

    def _with_shards(self, body: str) -> str:
        """Append the control-plane shard section (when one reported)."""
        if not self.shard_fractions:
            return body
        lines = [body, "  control-plane busy fraction by driver shard:"]
        for driver, fraction in sorted(self.shard_fractions.items()):
            lines.append(f"    driver {driver:<9} {100.0 * fraction:5.1f}%")
        shard = self.dominant_shard
        if shard is not None and shard[1] >= SHARD_SATURATION_FRACTION:
            lines.append(f"  saturated driver shard: driver {shard[0]} "
                         f"({100.0 * shard[1]:.1f}% busy -- the "
                         f"control plane, not a cluster resource, is "
                         f"this shard's bottleneck)")
        return "\n".join(lines)


#: A driver shard whose admission loop is busy at least this fraction
#: of the window is called out as saturated in the window summary.
SHARD_SATURATION_FRACTION = 0.9

#: Reason strings (kept stable: tests and reports match on them).
_BLENDED_REASON = (
    "this engine runs blended tasks that pipeline cpu, disk, and "
    "network internally; without per-resource monotask spans the "
    "window's critical paths cannot be decomposed by resource")


class ClarityAggregator:
    """Folds completed jobs into rolling bottleneck-attribution windows.

    ``window_s`` is the default query window; ``max_jobs`` bounds the
    retained observations (a ring, like the telemetry store) so the
    aggregator's memory is constant no matter how long the service
    runs.
    """

    def __init__(self, window_s: float = 120.0, max_jobs: int = 512,
                 engine: str = "") -> None:
        if not window_s > 0:
            raise ClarityError(f"window_s must be positive: {window_s!r}")
        if max_jobs < 1:
            raise ClarityError(f"max_jobs must be >= 1: {max_jobs}")
        self.window_s = window_s
        self.engine = engine
        self._jobs: Deque[JobClarity] = deque(maxlen=max_jobs)
        #: (end time, driver id, busy seconds) of control-plane work,
        #: reported per dispatch by a sharded control plane; bounded
        #: like the job ring so memory stays constant.
        self._control: Deque[Tuple[float, int, float]] = deque(
            maxlen=max(max_jobs * 16, 1024))

    # -- folding -------------------------------------------------------------------

    def observe_job(self, metrics, job_id: int, engine: str = "",
                    tenant: str = "") -> JobClarity:
        """Fold one finished job's attribution into the window.

        ``metrics`` is the engine's
        :class:`~repro.metrics.collector.MetricsCollector`; the job must
        have finished (the critical-path walk requires a closed window).
        """
        engine = engine or self.engine
        report = metrics.critical_path_report(job_id, engine=engine)
        profiles: List[StageProfile] = []
        if report.attributable:
            try:
                profiles = metrics.stage_profiles(job_id)
            except ModelError:
                pass
        observation = JobClarity(
            job_id=job_id, name=report.name, tenant=tenant, engine=engine,
            start=report.start, end=report.end,
            attributable=report.attributable,
            path_seconds=report.by_label(),
            machine_seconds=report.by_machine(),
            profiles=profiles)
        self._jobs.append(observation)
        return observation

    def observe_control(self, driver_id: int, busy_s: float,
                        at: float) -> None:
        """Fold one slice of control-plane work into the window.

        A :class:`~repro.controlplane.ControlPlane` driver replica calls
        this once per dispatch with the seconds its sequential admission
        loop spent on the request, so :meth:`bottleneck` can report a
        *driver shard* -- not just a cluster resource -- as saturated.
        """
        if not busy_s >= 0:
            raise ClarityError(f"busy_s must be >= 0: {busy_s!r}")
        self._control.append((at, driver_id, busy_s))

    # -- querying ------------------------------------------------------------------

    @property
    def total_observed(self) -> int:
        """Observations currently retained (bounded by ``max_jobs``)."""
        return len(self._jobs)

    def _now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if not self._jobs and not self._control:
            return 0.0
        ends = [job.end for job in self._jobs]
        ends.extend(at for at, _, _ in self._control)
        return max(ends)

    def observations(self, now: Optional[float] = None,
                     window_s: Optional[float] = None) -> List[JobClarity]:
        """Retained jobs that completed within ``[now - window, now]``."""
        window_s = window_s if window_s is not None else self.window_s
        now = self._now(now)
        return [job for job in self._jobs
                if now - window_s <= job.end <= now]

    def bottleneck(self, now: Optional[float] = None,
                   window_s: Optional[float] = None) -> BottleneckWindow:
        """Roll the window up into the cluster bottleneck answer."""
        window_s = window_s if window_s is not None else self.window_s
        now = self._now(now)
        jobs = self.observations(now=now, window_s=window_s)
        attributable = [job for job in jobs if job.attributable]
        summary = BottleneckWindow(
            window_s=window_s, now=now, jobs=len(jobs),
            attributable_jobs=len(attributable),
            attributable=bool(attributable))
        shard_seconds: Dict[int, float] = {}
        for at, driver_id, busy_s in self._control:
            if now - window_s <= at <= now:
                shard_seconds[driver_id] = (shard_seconds.get(driver_id, 0.0)
                                            + busy_s)
        summary.shard_fractions = {
            driver: min(seconds / window_s, 1.0)
            for driver, seconds in shard_seconds.items()}
        if not jobs:
            summary.reason = "no jobs completed in the window"
            return summary
        if not attributable:
            summary.reason = _BLENDED_REASON
            return summary
        label_seconds: Dict[str, float] = {}
        machine_seconds: Dict[int, float] = {}
        total = 0.0
        for job in attributable:
            for label, seconds in job.path_seconds.items():
                label_seconds[label] = label_seconds.get(label, 0.0) + seconds
            for machine, seconds in job.machine_seconds.items():
                machine_seconds[machine] = (machine_seconds.get(machine, 0.0)
                                            + seconds)
            total += job.measured_s
        if total <= 0:
            summary.attributable = False
            summary.reason = ("the window's jobs have zero wall-clock "
                              "duration")
            return summary
        summary.fractions = {label: seconds / total
                             for label, seconds in label_seconds.items()}
        summary.machine_fractions = {
            machine: seconds / total
            for machine, seconds in machine_seconds.items()}
        summary.attributed_seconds = total
        return summary
